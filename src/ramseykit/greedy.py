"""Greedy extraction of logarithmic-size clique/independent-set pairs.

One vertex is inspected per step; whichever of its neighbour or non-neighbour
side is larger survives to the next round, so at least half (minus the pivot)
of the remaining vertices are kept.  Unwinding the choices yields a clique A
and an independent set B whose combined size is logarithmic in the vertex
count.  Two variants are provided: a strict-majority form that keeps A and B
disjoint and settles the last two or three vertices directly, and a
tie-toward-clique form that lets the final vertex join both sets.  For edge
colourings, the same halving over the m colour classes of the pivot vertex
yields one monochromatic clique per colour.

Every run can record a replayable trace, and every witness carries a
guarantee floor that exhaustive sweeps (all graphs on up to 7 vertices)
confirm is never violated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .engine import chunk_ranges, run_chunks
from .exact import WitnessFamily, WitnessPair
from .graphs import (BudgetError, EdgeColoring, Graph, bits,
                     labeled_graph_count, pair_index, _decode_adj)

NEIGHBOR_SIDE = "neighbor-side"
NONNEIGHBOR_SIDE = "nonneighbor-side"
TERMINAL_CLIQUE = "terminal-clique"
TERMINAL_INDEPENDENT = "terminal-independent"
BASE_BOTH = "base-both"
BASE_FAMILY = "base"

# A pick rule maps (candidate mask, adjacency rows or None) to a vertex.
PickRule = Callable[[int, Optional[tuple]], int]


def pick_lowest(mask: int, adj=None) -> int:
    """Default rule: the lowest-indexed remaining vertex."""
    return (mask & -mask).bit_length() - 1


def pick_highest_degree(mask: int, adj=None) -> int:
    """Highest degree within the remaining vertices, ties to the lowest index.

    Colouring hosts have no single adjacency (every pair is present), so they
    pass adj=None and this rule degrades to the lowest index.
    """
    if adj is None:
        return pick_lowest(mask)
    best_v = -1
    best_d = -1
    for v in bits(mask):
        d = (adj[v] & mask).bit_count()
        if d > best_d:
            best_d = d
            best_v = v
    return best_v


def seeded_pick(seed: int) -> PickRule:
    """A reproducible random rule; the same seed replays the same choices."""
    rng = random.Random(seed)

    def pick(mask: int, adj=None) -> int:
        vs = list(bits(mask))
        return vs[rng.randrange(len(vs))]

    return pick


@dataclass(frozen=True)
class GreedyStep:
    """One decision: the pivot vertex, the branch taken, and how many
    vertices were still in play when it was taken."""

    vertex: int
    branch: Union[str, int]
    remaining: int

    def to_json_dict(self) -> dict:
        return {"vertex": self.vertex, "branch": self.branch,
                "remaining": self.remaining}


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]
    result: Union[WitnessPair, WitnessFamily]

    def to_json_dict(self) -> dict:
        return {"steps": [s.to_json_dict() for s in self.steps],
                "result": self.result.to_json_dict()}


# --- cores ------------------------------------------------------------------
# The cores work on raw adjacency rows so exhaustive sweeps can skip Graph
# construction; pick=None is the inlined lowest-index rule.


def _pair_disjoint_core(adj, n: int, pick: Optional[PickRule], record):
    a = 0
    b = 0
    cur = (1 << n) - 1
    cnt = n
    while cnt >= 4:
        if pick is None:
            v = (cur & -cur).bit_length() - 1
        else:
            v = pick(cur, adj)
        vb = 1 << v
        nbrs = adj[v] & cur
        others = (cur ^ vb) & ~adj[v]
        if nbrs.bit_count() > others.bit_count():
            if record is not None:
                record.append(GreedyStep(v, NEIGHBOR_SIDE, cnt))
            a |= vb
            cur = nbrs
        else:
            if record is not None:
                record.append(GreedyStep(v, NONNEIGHBOR_SIDE, cnt))
            b |= vb
            cur = others
        cnt = cur.bit_count()
    # Two or three vertices left: settle on a pair of them directly.
    if pick is None:
        v = (cur & -cur).bit_length() - 1
    else:
        v = pick(cur, adj)
    rest = cur ^ (1 << v)
    if pick is None:
        w = (rest & -rest).bit_length() - 1
    else:
        w = pick(rest, adj)
    if adj[v] >> w & 1:
        if record is not None:
            record.append(GreedyStep(v, TERMINAL_CLIQUE, cnt))
            record.append(GreedyStep(w, TERMINAL_CLIQUE, cnt - 1))
        a |= (1 << v) | (1 << w)
    else:
        if record is not None:
            record.append(GreedyStep(v, TERMINAL_INDEPENDENT, cnt))
            record.append(GreedyStep(w, TERMINAL_INDEPENDENT, cnt - 1))
        b |= (1 << v) | (1 << w)
    return a, b


def _pair_overlap_core(adj, n: int, pick: Optional[PickRule], record):
    a = 0
    b = 0
    cur = (1 << n) - 1
    cnt = n
    while cnt >= 2:
        if pick is None:
            v = (cur & -cur).bit_length() - 1
        else:
            v = pick(cur, adj)
        vb = 1 << v
        nbrs = adj[v] & cur
        others = (cur ^ vb) & ~adj[v]
        if nbrs.bit_count() >= others.bit_count():
            if record is not None:
                record.append(GreedyStep(v, NEIGHBOR_SIDE, cnt))
            a |= vb
            cur = nbrs
        else:
            if record is not None:
                record.append(GreedyStep(v, NONNEIGHBOR_SIDE, cnt))
            b |= vb
            cur = others
        cnt = cur.bit_count()
    # A single vertex remains and extends both sides at once.
    v = cur.bit_length() - 1
    if record is not None:
        record.append(GreedyStep(v, BASE_BOTH, 1))
    return a | (1 << v), b | (1 << v)


def _family_core(n: int, m: int, colors, pick: Optional[PickRule], record):
    choices = []
    cur = (1 << n) - 1
    cnt = n
    while cnt >= 2:
        if pick is None:
            v = (cur & -cur).bit_length() - 1
        else:
            v = pick(cur, None)
        classes = [0] * m
        for u in bits(cur ^ (1 << v)):
            classes[colors[pair_index(u, v)]] |= 1 << u
        best = 0
        for i in range(1, m):
            if classes[i].bit_count() > classes[best].bit_count():
                best = i
        if record is not None:
            record.append(GreedyStep(v, best, cnt))
        choices.append((v, best))
        cur = classes[best]
        cnt = cur.bit_count()
    if pick is None:
        v = cur.bit_length() - 1
    else:
        v = pick(cur, None)
    if record is not None:
        record.append(GreedyStep(v, BASE_FAMILY, 1))
    # The last vertex survived every chosen class, so it completes all m
    # cliques; each earlier pivot joins the clique of its branch colour.
    parts = [1 << v] * m
    for u, i in reversed(choices):
        parts[i] |= 1 << u
    return tuple(parts)


# --- public wrappers ----------------------------------------------------------


def greedy_pair_disjoint(g: Graph, pick: Optional[PickRule] = None
                         ) -> tuple[WitnessPair, GreedyTrace]:
    """Strict-majority variant: branches to the neighbour side only when it
    is strictly larger, keeps A and B disjoint, and settles the final two or
    three vertices as one edge or one non-edge.  Needs n >= 2 and guarantees
    |A| + |B| >= floor(log2 n) + 1.
    """
    if g.n < 2:
        raise ValueError("the disjoint variant needs at least 2 vertices")
    record: list[GreedyStep] = []
    a, b = _pair_disjoint_core(g.adj, g.n, pick, record)
    pair = WitnessPair(a, b)
    return pair, GreedyTrace(tuple(record), pair)


def greedy_pair_overlap(g: Graph, pick: Optional[PickRule] = None
                        ) -> tuple[WitnessPair, GreedyTrace]:
    """Tie-toward-clique variant: ties branch to the neighbour side and the
    single final vertex joins both sets, so |A & B| <= 1.  Works for n >= 1
    and guarantees |A| + |B| >= floor(log2 n) + 2.
    """
    record: list[GreedyStep] = []
    a, b = _pair_overlap_core(g.adj, g.n, pick, record)
    pair = WitnessPair(a, b)
    return pair, GreedyTrace(tuple(record), pair)


def greedy_family(c: EdgeColoring, pick: Optional[PickRule] = None
                  ) -> tuple[WitnessFamily, GreedyTrace]:
    """Colour-class variant: each pivot keeps its largest colour class (ties
    to the lowest colour), yielding one monochromatic clique per colour with
    total size >= family_guarantee_floor(n, m).
    """
    record: list[GreedyStep] = []
    parts = _family_core(c.n, c.m, c.colors, pick, record)
    fam = WitnessFamily(parts)
    return fam, GreedyTrace(tuple(record), fam)


def disjoint_guarantee_floor(n: int) -> int:
    """floor(log2 n) + 1: induction f(2)=f(3)=2, f(N) >= 1+f(ceil((N-1)/2))."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    return n.bit_length()  # floor(log2 n) + 1


def overlap_guarantee_floor(n: int) -> int:
    """floor(log2 n) + 2: induction g(1)=2, g(N) >= 1+g(ceil((N-1)/2))."""
    if n < 1:
        raise ValueError("defined for n >= 1")
    return n.bit_length() + 1  # floor(log2 n) + 2


def family_guarantee_floor(n: int, m: int) -> int:
    """m + k for the largest k with n >= 1 + (m^k - 1)/(m - 1)."""
    if n < 1 or m < 2:
        raise ValueError("defined for n >= 1 and m >= 2")
    k = 0
    while 1 + (m ** (k + 1) - 1) // (m - 1) <= n:
        k += 1
    return m + k


# --- trace replay -------------------------------------------------------------


def replay_pair_trace(g: Graph, trace: GreedyTrace) -> WitnessPair:
    """Re-execute a recorded pair run against ``g`` and return the witness.

    Raises ValueError as soon as a step disagrees with the graph (wrong
    remaining-count or an unknown branch token), so a trace recorded on one
    graph cannot silently validate against another.
    """
    a = 0
    b = 0
    cur = g.full_mask
    for step in trace.steps:
        v = step.vertex
        vb = 1 << v
        if not cur & vb or step.remaining != cur.bit_count():
            raise ValueError(f"step {step} does not match the remaining set")
        if step.branch == NEIGHBOR_SIDE:
            a |= vb
            cur &= g.adj[v]
        elif step.branch == NONNEIGHBOR_SIDE:
            b |= vb
            cur = (cur ^ vb) & ~g.adj[v]
        elif step.branch == TERMINAL_CLIQUE:
            a |= vb
            cur ^= vb
        elif step.branch == TERMINAL_INDEPENDENT:
            b |= vb
            cur ^= vb
        elif step.branch == BASE_BOTH:
            a |= vb
            b |= vb
            cur ^= vb
        else:
            raise ValueError(f"unknown pair branch {step.branch!r}")
    return WitnessPair(a, b)


def replay_family_trace(c: EdgeColoring, trace: GreedyTrace) -> WitnessFamily:
    """Re-execute a recorded family run against ``c`` and return the witness."""
    cur = (1 << c.n) - 1
    choices = []
    base = None
    for step in trace.steps:
        v = step.vertex
        vb = 1 << v
        if not cur & vb or step.remaining != cur.bit_count():
            raise ValueError(f"step {step} does not match the remaining set")
        if step.branch == BASE_FAMILY:
            base = v
            break
        if not isinstance(step.branch, int):
            raise ValueError(f"unknown family branch {step.branch!r}")
        kept = 0
        for u in bits(cur ^ vb):
            if c.color_of(u, v) == step.branch:
                kept |= 1 << u
        choices.append((v, step.branch))
        cur = kept
    if base is None:
        raise ValueError("trace ended without a base step")
    parts = [1 << base] * c.m
    for u, i in reversed(choices):
        parts[i] |= 1 << u
    return WitnessFamily(tuple(parts))


# --- exhaustive guarantee sweep -------------------------------------------------


def _mask_is_clique(adj, mask: int) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if rest & ~adj[low.bit_length() - 1]:
            return False
    return True


def _mask_is_independent(adj, mask: int) -> bool:
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        if rest & adj[low.bit_length() - 1]:
            return False
    return True


def _sweep_chunk(args) -> tuple[int, Optional[int]]:
    """Run both pair variants (lowest-index rule) on every graph code in
    [start, stop); returns (graphs checked, first violating code or None).

    A violation is any broken contract: guarantee floor missed, output sets
    not a clique/independent set, disjointness broken, or an overlap of more
    than one vertex in the tie variant.
    """
    n, start, stop = args
    dfloor = disjoint_guarantee_floor(n)
    ofloor = overlap_guarantee_floor(n)
    checked = 0
    for code in range(start, stop):
        adj = _decode_adj(n, code)
        checked += 1
        a, b = _pair_disjoint_core(adj, n, None, None)
        if (a & b or a.bit_count() + b.bit_count() < dfloor
                or not _mask_is_clique(adj, a) or not _mask_is_independent(adj, b)):
            return checked, code
        a, b = _pair_overlap_core(adj, n, None, None)
        if ((a & b).bit_count() > 1 or a.bit_count() + b.bit_count() < ofloor
                or not _mask_is_clique(adj, a) or not _mask_is_independent(adj, b)):
            return checked, code
    return checked, None


def pair_guarantee_sweep(n: int, threads: int = 1) -> tuple[int, Optional[int]]:
    """Exhaustively confirm both pair guarantees over all graphs on n <= 7
    vertices; returns (graphs checked, first violating code or None)."""
    if n < 2:
        raise ValueError("sweep needs n >= 2")
    if n > 7:
        raise BudgetError(f"sweep over {labeled_graph_count(n)} graphs exceeds the n <= 7 cap")
    total = labeled_graph_count(n)
    chunks = [(n, lo, hi) for lo, hi in chunk_ranges(total, threads)]
    results = run_chunks(_sweep_chunk, chunks, threads)
    checked = sum(r[0] for r in results)
    violations = [r[1] for r in results if r[1] is not None]
    return checked, (min(violations) if violations else None)
