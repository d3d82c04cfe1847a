"""Shared strategies and slow-but-obvious oracles for the test suite.

The oracles deliberately share no code with the package: subsets and
permutations are enumerated directly so that any disagreement points at the
fast implementation.
"""

from __future__ import annotations

import itertools
import math

from hypothesis import strategies as st

from ramseykit import (EdgeColoring, Graph, Graph6ParseError, IntervalColoring,
                       labeled_graph_count)
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


# --- codec oracles: one step per pair ------------------------------------------


def reference_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in graph6 order: column-major along the upper triangle."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def reference_rows(n: int, code: int) -> list[int]:
    """Adjacency rows of a graph code, one pair per code bit."""
    rows = [0] * n
    for k, (i, j) in enumerate(reference_pairs(n)):
        if code >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def reference_code(n: int, rows) -> int:
    """Graph code of adjacency rows, one pair per code bit."""
    code = 0
    for k, (i, j) in enumerate(reference_pairs(n)):
        if rows[i] >> j & 1:
            code |= 1 << k
    return code


def reference_digit_code(digits, m: int) -> int:
    """Code of base-m colour digits, least significant first, one digit at a
    time (Horner)."""
    code = 0
    for d in reversed(digits):
        code = code * m + d
    return code


def reference_digits(code: int, m: int, count: int) -> tuple[int, ...]:
    """The ``count`` base-m digits of a code, each by its own division."""
    return tuple(code // m**k % m for k in range(count))


def reference_letters(digits) -> str:
    return "".join("abcdefgh"[d] for d in digits)


def reference_positions(digits, color: int) -> int:
    """Bitmask of the digits equal to ``color``, one bit at a time."""
    return sum(1 << k for k, d in enumerate(digits) if d == color)


def reference_graph6(n: int, code: int) -> str:
    """graph6 text of a graph code, six code bits per body character."""
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    np = n * (n - 1) // 2
    body = []
    for group in range(0, np, 6):
        val = 0
        for t in range(6):
            k = group + t
            val = val << 1 | (code >> k & 1 if k < np else 0)
        body.append(chr(63 + val))
    return head + "".join(body)


def reference_parse_graph6(text: str) -> tuple[int, int]:
    """(n, code) of one graph6 line, bit by bit; raises Graph6ParseError with
    the same message and byte offset as ``parse_graph6``."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    data = []
    for pos, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6ParseError(f"character {ch!r} outside the graph6 alphabet", pos)
        data.append(ord(ch) - 63)
    if data[0] == 63:
        if len(data) < 4:
            raise Graph6ParseError("truncated long-form size", len(s))
        n, at = (data[1] << 12) | (data[2] << 6) | data[3], 4
    else:
        n, at = data[0], 1
    if not 1 <= n <= 64:
        raise Graph6ParseError(f"vertex count {n} outside 1..64", 0)
    np = n * (n - 1) // 2
    need = (np + 5) // 6
    if len(data) - at < need:
        raise Graph6ParseError(f"body too short for {n} vertices", len(s))
    if len(data) - at > need:
        raise Graph6ParseError(f"trailing data after {n}-vertex body", at + need)
    code = 0
    for idx in range(need):
        for t in range(6):
            if data[at + idx] >> (5 - t) & 1:
                k = 6 * idx + t
                if k >= np:
                    raise Graph6ParseError("nonzero padding bits", at + idx)
                code |= 1 << k
    return n, code
