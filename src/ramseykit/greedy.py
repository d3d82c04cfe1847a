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

Every run records its steps as a trace; replay reruns the same core with the
recorded pivots and rejects any step the rule would not take.  Every witness
carries a guarantee floor that exhaustive sweeps (all graphs on up to 10
vertices) confirm is never violated.  A sweep runs in one process and
splits the graphs into cubes on exactly the pairs the rule reads: on a
pivot's whole open row at once, where each sub-cube resumes the run, and
each variant is settled once per cube and not rerun inside it.  Its
result is the least violating code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .exact import WitnessFamily, WitnessPair
from .graphs import (BudgetError, EdgeColoring, Graph, bits, labeled_graph_count,
                     pair_index, _mask_is_clique, _mask_is_independent, _upper_code)

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
        for _ in range(rng.randrange(mask.bit_count())):
            mask &= mask - 1
        return pick_lowest(mask)

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
# One pair core (``overlap`` picks the tie rule and the ending) and one
# colour-class core.  They work on raw adjacency rows so exhaustive sweeps
# can skip Graph construction; replay reruns them on recorded pivots.


def _pair_core(adj, n: int, pick: PickRule, record, overlap: bool, start=None):
    """Halve while 4 or more vertices remain, then settle one edge or
    non-edge among the last two or three; with ``overlap``, ties go to the
    neighbour side, halving goes on down to one vertex, and that vertex
    joins both sets.  Returns (a, b).

    A ``pick`` that returns None declines its pivot: the run stops and
    returns its state (a, b, cur), ``cur`` the remaining set.  Passed as
    ``start``, the state resumes the run, which then records the steps and
    returns the result of one uninterrupted run (a decline at the disjoint
    ending's second pick resumes at its first).  Public picks never decline.

    The sweep's cubes rely on this: row v is read only after ``pick`` has
    returned v, and only on the remaining set ``cur`` (as ``row & cur`` or
    ``~row & (cur ^ vb)``), so a cube can split on all of ``row & cur`` at
    once when ``pick`` sees open pairs there.  The disjoint ending reads one
    pair only, ``adj[v] >> w & 1`` for its two picks v and w."""
    a, b, cur = start or (0, 0, (1 << n) - 1)
    cnt = cur.bit_count()
    stop = 2 if overlap else 4
    while cnt >= stop:
        v = pick(cur, adj)
        if v is None:
            return a, b, cur
        vb = 1 << v
        row = adj[v]
        nbrs = row & cur
        others = (cur ^ vb) & ~row
        if nbrs.bit_count() + overlap > others.bit_count():  # ties: overlap only
            branch, a, cur = NEIGHBOR_SIDE, a | vb, nbrs
        else:
            branch, b, cur = NONNEIGHBOR_SIDE, b | vb, others
        if record is not None:
            record.append(GreedyStep(v, branch, cnt))
        cnt = cur.bit_count()
    if overlap:
        v = cur.bit_length() - 1
        if record is not None:
            record.append(GreedyStep(v, BASE_BOTH, 1))
        return a | (1 << v), b | (1 << v)
    v = pick(cur, adj)
    w = None if v is None else pick(cur ^ (1 << v), adj)
    if w is None:
        return a, b, cur
    ends = (1 << v) | (1 << w)
    if adj[v] >> w & 1:
        branch, a = TERMINAL_CLIQUE, a | ends
    else:
        branch, b = TERMINAL_INDEPENDENT, b | ends
    if record is not None:
        record.append(GreedyStep(v, branch, cnt))
        record.append(GreedyStep(w, branch, cnt - 1))
    return a, b


def _family_core(n: int, m: int, colors, pick: PickRule, record):
    choices = []
    cur = (1 << n) - 1
    cnt = n
    while cnt >= 2:
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
    a, b = _pair_core(g.adj, g.n, pick or pick_lowest, record, False)
    pair = WitnessPair(a, b)
    return pair, GreedyTrace(tuple(record), pair)


def greedy_pair_overlap(g: Graph, pick: Optional[PickRule] = None
                        ) -> tuple[WitnessPair, GreedyTrace]:
    """Tie-toward-clique variant: ties branch to the neighbour side and the
    single final vertex joins both sets, so |A & B| <= 1.  Works for n >= 1
    and guarantees |A| + |B| >= floor(log2 n) + 2.
    """
    record: list[GreedyStep] = []
    a, b = _pair_core(g.adj, g.n, pick or pick_lowest, record, True)
    pair = WitnessPair(a, b)
    return pair, GreedyTrace(tuple(record), pair)


def greedy_family(c: EdgeColoring, pick: Optional[PickRule] = None
                  ) -> tuple[WitnessFamily, GreedyTrace]:
    """Colour-class variant: each pivot keeps its largest colour class (ties
    to the lowest colour), yielding one monochromatic clique per colour with
    total size >= family_guarantee_floor(n, m).
    """
    record: list[GreedyStep] = []
    parts = _family_core(c.n, c.m, c.colors, pick or pick_lowest, record)
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


def _rerun(trace: GreedyTrace, core):
    """Run ``core(pick, record)`` with a rule that serves the recorded pivots
    in order; ValueError unless the run records exactly the trace's steps and
    returns the trace's result."""
    pivots = iter(trace.steps)

    def pick(mask: int, adj=None) -> int:
        step = next(pivots, None)
        if step is None or not mask >> step.vertex & 1:
            raise ValueError(f"recorded pivot {step} is not a remaining vertex")
        return step.vertex

    record: list[GreedyStep] = []
    out = core(pick, record)
    if record != list(trace.steps):
        raise ValueError("the trace records steps the greedy rule does not take")
    if out != trace.result:
        raise ValueError("the trace records a result the greedy rule does not return")
    return out


def replay_pair_trace(g: Graph, trace: GreedyTrace) -> WitnessPair:
    """Rerun the pair rule on ``g`` with the recorded pivots and return the
    witness; the variant is the one whose ending the trace records.

    Raises ValueError unless the rerun records exactly the trace's steps and
    result: a pivot outside the remaining set, a branch, count or terminal
    label the rule would not take, a missing or extra step, or a witness the
    rule does not return is rejected, so a trace recorded on one graph cannot
    silently validate against another.
    """
    overlap = bool(trace.steps) and trace.steps[-1].branch == BASE_BOTH
    return _rerun(trace, lambda pick, record:
                  WitnessPair(*_pair_core(g.adj, g.n, pick, record, overlap)))


def replay_family_trace(c: EdgeColoring, trace: GreedyTrace) -> WitnessFamily:
    """Rerun the colour-class rule on ``c`` with the recorded pivots and
    return the witness; raises ValueError unless the rerun records exactly
    the trace's steps and result."""
    return _rerun(trace, lambda pick, record:
                  WitnessFamily(_family_core(c.n, c.m, c.colors, pick, record)))


# --- exhaustive guarantee sweep -------------------------------------------------


def _sweep_check(ones, free, a: int, b: int, overlap: bool, floor: int):
    """Check a finished run's contract on a cube's best and worst completion
    (free pairs inside A present or absent, inside B absent or present).
    True if every graph in the cube breaks it, False if none does, and if
    the two differ, the first free pair inside A or B as (v, one-bit mask)
    to split on."""
    if (a & b).bit_count() > overlap or a.bit_count() + b.bit_count() < floor:
        return True
    if _mask_is_clique(ones, a) and not any((ones[v] | free[v]) & b for v in bits(b)):
        return False  # the common case: passes on every completion
    some = [row | f for row, f in zip(ones, free)]
    if not _mask_is_clique(some, a) or not _mask_is_independent(ones, b):
        return True
    v, s = next((v, s) for s in (a, b) for v in bits(s) if free[v] & s)
    return v, 1 << pick_lowest(free[v] & s)


def pair_guarantee_sweep(n: int, threads: int = 1) -> tuple[int, Optional[int]]:
    """Exhaustively confirm both pair guarantees (lowest-index rule) over all
    graphs on n <= 10 vertices; returns (graphs checked, least violating code
    or None), and on a violation at code c, (c + 1, c), the count a serial
    scan in code order stops at.  ``threads`` is ignored (the sweep is
    serial); it stays while perfbench/ still passes it (ROADMAP item 7).

    A violation is any broken contract: guarantee floor missed, output sets
    not a clique/independent set, disjointness broken, or an overlap of more
    than one vertex in the tie variant.  The sweep works on cubes: rows
    ``ones`` of pairs known present and ``free`` of pairs not decided yet,
    the count ``open`` of free pairs, the variant to settle and its run so
    far.  Each variant runs on ``ones`` through ``_pair_core`` with a pick
    that declines a pivot whose reads meet free pairs: the pivot's whole
    free row in the remaining set, or for the disjoint ending's first pick
    the one pair (v, w) it reads.  The cube then splits on all of them at
    once into its 2^k sub-cubes, and each resumes the suspended run.  A
    finished run is checked by ``_sweep_check``; where the best and worst
    completion differ the cube splits on one pair inside A or B, and the
    sub-cubes check the same (a, b) again, since the run never read that
    pair.  A variant that passes on a cube passes on all of its sub-cubes,
    so it does not run there again.  The leaves partition every graph on n
    vertices, so their sizes must add up to labeled_graph_count(n).
    """
    if n < 2:
        raise ValueError("sweep needs n >= 2")
    if n > 10:
        raise BudgetError(f"sweep over {labeled_graph_count(n)} graphs exceeds the n <= 10 cap")
    floors = ((False, disjoint_guarantee_floor(n)), (True, overlap_guarantee_floor(n)))
    full = (1 << n) - 1

    def pick(cur: int, adj=None) -> Optional[int]:  # pick_lowest, declining open reads
        nonlocal ending, split
        v = pick_lowest(cur)
        if ending:
            return v
        reads = free[v] & cur
        if not overlap and cur.bit_count() < 4:
            ending = True
            reads &= 1 << pick_lowest(cur ^ 1 << v)  # the pair (v, w) only
        if reads:
            split = v, reads
            return None
        return v

    # (ones, free, open pairs, index of the variant to settle, its run: the
    # state to resume, or the finished (a, b))
    cubes = [([0] * n, [full ^ 1 << v for v in range(n)], n * (n - 1) // 2, 0, (0, 0, full))]
    checked = 0
    least = None
    while cubes:
        ones, free, open_, i, run = cubes.pop()
        while i < len(floors):
            overlap, floor = floors[i]
            if len(run) == 3:
                ending = False  # set by the disjoint ending's first pick
                run = _pair_core(ones, n, pick, None, overlap, run)
                if len(run) == 3:
                    break  # declined: ``split`` holds the pairs it reads
            split = _sweep_check(ones, free, *run, overlap, floor)
            if split is not False:
                break
            i, run = i + 1, (0, 0, full)
        if not isinstance(split, tuple):  # a leaf: every variant passed, or one failed
            checked += 1 << open_
            if split:  # failed: the cube's least code has every free pair absent
                code = _upper_code(ones, n)
                least = code if least is None else min(least, code)
            continue
        v, mask = split
        free = list(free)
        free[v] ^= mask
        for w in bits(mask):
            free[w] ^= 1 << v
        open_ -= mask.bit_count()
        sub = mask
        while sub:  # each nonempty subset of the split pairs, present
            joined = list(ones)
            joined[v] |= sub
            for w in bits(sub):
                joined[w] |= 1 << v
            cubes.append((joined, free, open_, i, run))
            sub = (sub - 1) & mask
        cubes.append((ones, free, open_, i, run))
    if checked != labeled_graph_count(n):
        raise AssertionError(f"sweep cubes cover {checked} graphs, not {labeled_graph_count(n)}")
    return (checked, None) if least is None else (least + 1, least)
