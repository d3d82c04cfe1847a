"""Shared strategies and slow-but-obvious oracles for the test suite.

The oracles deliberately share no code with the package: subsets and
permutations are enumerated directly so that any disagreement points at the
fast implementation.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import strategies as st

from ramseykit import EdgeColoring, Graph, IntervalColoring, labeled_graph_count
from ramseykit.graphs import coloring_count, pair_count


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    code = draw(st.integers(0, labeled_graph_count(n) - 1))
    return Graph.from_code(n, code)


@st.composite
def edge_colorings(draw, min_n: int = 1, max_n: int = 5, max_m: int = 4):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(2, max_m))
    code = draw(st.integers(0, coloring_count(n, m) - 1))
    return EdgeColoring.from_code(n, m, code)


@st.composite
def interval_colorings(draw, max_len: int = 16, max_m: int = 4, min_m: int = 1):
    m = draw(st.integers(min_m, max_m))
    length = draw(st.integers(1, max_len))
    digits = draw(st.lists(st.integers(0, m - 1), min_size=length, max_size=length))
    return IntervalColoring(m, tuple(digits))


def random_graph(rng, n: int) -> Graph:
    pc = pair_count(n)
    return Graph.from_code(n, rng.getrandbits(pc) if pc else 0)


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


# --- oracles -----------------------------------------------------------------


def clique_sets(g: Graph, size: int):
    """All cliques of exactly ``size`` vertices, as sorted tuples."""
    for combo in itertools.combinations(range(g.n), size):
        if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            yield combo


def lex_min_max_clique(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Largest clique size and its lexicographically least witness."""
    for size in range(g.n, 0, -1):
        found = sorted(clique_sets(g, size))
        if found:
            return size, found[0]
    return 0, ()


def ascending_cliques(g: Graph, vertices=None):
    """Every nonempty clique inside ``vertices`` (default: all of g) as a
    sorted tuple, in lexicographic order: a plain depth-first walk with no
    bound, so the first largest one is the lexicographically least."""
    nbrs = [{u for u in range(g.n) if u != v and g.has_edge(u, v)} for v in range(g.n)]

    def grow(clique, cand):
        for v in sorted(cand):
            yield clique + (v,)
            yield from grow(clique + (v,), {u for u in cand & nbrs[v] if u > v})

    yield from grow((), set(range(g.n) if vertices is None else vertices))


def longest_path_oracle(g: Graph) -> int:
    """Longest simple path by trying every permutation of every subset."""
    for size in range(g.n, 1, -1):
        for combo in itertools.combinations(range(g.n), size):
            for perm in itertools.permutations(combo):
                if perm[0] > perm[-1]:
                    continue
                if all(g.has_edge(perm[i], perm[i + 1]) for i in range(size - 1)):
                    return size
    return 1 if g.n else 0


def longest_cycle_oracle(g: Graph) -> int:
    """Longest simple cycle by trying every rotation-fixed permutation."""
    for size in range(g.n, 2, -1):
        for combo in itertools.combinations(range(g.n), size):
            first = combo[0]
            for perm in itertools.permutations(combo[1:]):
                cyc = (first,) + perm
                if cyc[1] > cyc[-1]:
                    continue
                edges_ok = all(g.has_edge(cyc[i], cyc[(i + 1) % size])
                               for i in range(size))
                if edges_ok:
                    return size
    return 0


def longest_ap_oracle(positions: set[int]) -> int:
    """Longest AP inside a set of integers, by walking every (start, step)."""
    if not positions:
        return 0
    best = 1
    top = max(positions)
    for a in positions:
        d = 1
        # anything longer than best must fit inside [a, top]
        while a + best * d <= top:
            ln = 1
            while a + ln * d in positions:
                ln += 1
            if ln > best:
                best = ln
            d += 1
    return best


def orbit_count_oracle(m: int, length: int) -> int:
    """Burnside over reversal x S_m, summed over every colour permutation."""
    half, odd = divmod(length, 2)
    total = 0
    for perm in itertools.permutations(range(m)):
        fix = sum(perm[c] == c for c in range(m))
        fix2 = sum(perm[perm[c]] == c for c in range(m))
        total += fix**length + fix2**half * fix**odd
    return total // (2 * math.factorial(m))
