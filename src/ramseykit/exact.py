"""Exact clique and independent-set computations, and certified scans.

The central quantity is the clique/independent pair sum: the size of a
largest clique plus the size of a largest independent set.  Thresholds asking
"from which vertex count onward does every graph (or every edge colouring)
reach value n?" are settled by exhaustive scans that emit machine-checkable
certificates; small closed-form upper bounds accompany them.  One clique
kernel serves every score: a colour-ordered branch and bound (MCQ, Tomita &
Seki 2003), as an optimisation (``_omega``) and as a decision
(``_has_clique``).  Each node colours its candidates greedily but lists only
the vertices whose colour can still beat the bound, BBMC's colour threshold
(San Segundo, Rodriguez-Losada & Jimenez 2011).  The whole-graph witness
queries (``max_clique``, ``max_independent_set`` and the pair and family
witnesses built on them) first relabel the graph by degree, highest first,
which is MCQ's initial order; the scoring kernels keep index order, since
they mostly score graphs on a handful of vertices, where the relabel costs
about as much as the search.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .graphs import (EdgeColoring, Graph, bits, _frame, _mask_is_clique, _mask_is_independent,
                     _pack, _transpose, _unpack)

if TYPE_CHECKING:  # annotations only: a cold start need not load certificates
    from .certificates import SearchCertificate, SearchResult

# Per-probe instance budgets for the certified scans; the graph budget is the
# full n=7 exhaustion, the colouring budget keeps a single probe near a
# million instances.  Both can be raised per call up to the global cap.
DEFAULT_GRAPH_BUDGET = 1 << 21
DEFAULT_COLORING_BUDGET = 1 << 20

GRAPH_MODES = ("rprime", "ramsey")
COLORING_MODES = ("rprime_m",)


# --- exact solvers ---------------------------------------------------------


def _color_order(adj, cand: int, kmin: int) -> list[tuple[int, int]]:
    """Greedy colouring of cand in index order, as (vertex, colour) pairs
    with colours ascending: a clique among the pairs up to colour c has at
    most c vertices.  Classes below colour ``kmin`` are built but not listed:
    a caller that needs ``kmin`` more vertices never branches on them."""
    order = []
    rest = cand
    c = 0
    while rest:
        c += 1
        avail = rest
        if c < kmin:
            while avail:
                low = avail & -avail
                rest ^= low
                avail = (avail ^ low) & ~adj[low.bit_length() - 1]
            continue
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            order.append((v, c))
            rest ^= low
            avail = (avail ^ low) & ~adj[v]
    return order


def _omega(adj, cand: int) -> int:
    """Largest clique size inside the candidate mask, by colour-ordered
    branch and bound (MCQ: Tomita & Seki 2003).

    One greedy colouring per node orders the branches and bounds every
    child: walking the vertices from the highest colour down, a clique
    through v within the vertices not yet dropped gains at most v's colour,
    so the node returns once that cannot beat the best clique found.
    """
    best = 0

    def expand(size: int, cand: int):
        nonlocal best
        if size > best:
            best = size
        for v, c in reversed(_color_order(adj, cand, best - size + 1)):
            if size + c <= best:
                return
            expand(size + 1, cand & adj[v])
            cand ^= 1 << v

    expand(0, cand)
    return best


def _has_clique(adj, cand: int, k: int) -> bool:
    """Is there a clique of size k inside cand?  The same colour-ordered
    walk as ``_omega`` (Tomita & Seki 2003), with the bound fixed at k: only
    vertices of colour k or more are branched on, and once they are spent
    what is left is coloured with fewer than k colours."""
    if k <= 1:
        return k <= 0 or cand != 0
    if k == 2:  # an edge inside cand
        rest = cand
        while rest:
            low = rest & -rest
            if adj[low.bit_length() - 1] & cand:
                return True
            rest ^= low
        return False
    if cand.bit_count() < k:
        return False
    for v, _ in reversed(_color_order(adj, cand, k)):
        if _has_clique(adj, cand & adj[v], k - 1):
            return True
        cand ^= 1 << v
    return False


def _complement_rows(g: Graph) -> list[int]:
    full = g.full_mask
    return [full ^ row ^ 1 << v for v, row in enumerate(g.adj)]


def clique_number(g: Graph) -> int:
    return _omega(g.adj, g.full_mask)


def independence_number(g: Graph) -> int:
    return _omega(_complement_rows(g), g.full_mask)


def max_clique(g: Graph) -> tuple[int, int]:
    """(size, mask) of the lexicographically least maximum clique.

    Least by vertex list: among all maximum cliques, the one whose sorted
    vertex sequence is smallest.  Greedy reconstruction: walk vertices in
    ascending order and keep v whenever some maximum-size completion through
    v survives inside the remaining candidates.
    """
    return _lex_min_clique(g.adj)


def max_independent_set(g: Graph) -> tuple[int, int]:
    """(size, mask) of the lexicographically least maximum independent set."""
    return _lex_min_clique(_complement_rows(g))


def _ordered(adj) -> tuple[list[int], list[int]]:
    """Symmetric rows relabelled by degree, highest first (ties by index),
    and each vertex's new index.  With P the permutation, P A P^T is
    P (P A)^T for a symmetric A: one row shuffle, one frame transpose and
    a second row shuffle, with no bit loop per vertex."""
    n = len(adj)
    order = sorted(range(n), key=[-row.bit_count() for row in adj].__getitem__)
    frame = _frame(n)
    cols = _unpack(_transpose(_pack([adj[v] for v in order], frame), frame[0]), n, frame)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    return [cols[v] for v in order], pos


def _lex_min_clique(adj) -> tuple[int, int]:
    """(size, mask) of the lex-least maximum clique of the graph on rows adj.

    The search runs on the rows relabelled by degree (``_ordered``); the
    one ascending pass walks the original labels and reads rows through
    their new indices, so the witness is the lex-least one in the original
    labels.  A vertex refuted at some step, with no clique of the needed
    size through it inside cand, leaves cand: each later cand is a subset
    of this one and needs one vertex fewer per vertex kept since, so a clique
    through it there would extend by those kept vertices to one here.
    """
    rows, pos = _ordered(adj)
    cand = (1 << len(adj)) - 1
    size = need = _omega(rows, cand)
    chosen = 0
    for v, p in enumerate(pos):
        if not need:
            break
        if cand >> p & 1:
            if _has_clique(rows, cand & rows[p], need - 1):
                chosen |= 1 << v
                cand &= rows[p]
                need -= 1
            else:
                cand ^= 1 << p
    return size, chosen


class WitnessPair(NamedTuple):
    """A clique mask ``a`` and an independent-set mask ``b`` of one graph."""

    a: int
    b: int

    @property
    def value(self) -> int:
        return self.a.bit_count() + self.b.bit_count()

    def validate(self, g: Graph) -> bool:
        return (not (self.a | self.b) & ~g.full_mask  # no vertex outside g
                and _mask_is_clique(g.adj, self.a) and _mask_is_independent(g.adj, self.b))

    def to_json_dict(self) -> dict:
        return {"a": sorted(bits(self.a)), "b": sorted(bits(self.b))}


def clique_indep_pair(g: Graph) -> WitnessPair:
    """Maximum clique plus maximum independent set, both lex-least."""
    return WitnessPair(max_clique(g)[1], max_independent_set(g)[1])


def pair_sum_value(g: Graph) -> int:
    """Clique number plus independence number, without witness extraction."""
    return clique_number(g) + independence_number(g)


def pair_sum_bruteforce(g: Graph) -> int:
    """Independent oracle: classify all 2^n vertex subsets directly.

    Dynamic programme over subsets (a set is a clique iff removing its lowest
    vertex leaves a clique fully adjacent to it), so no branch-and-bound code
    is shared with the primary solver.  Limited to n <= 16.
    """
    n = g.n
    if n > 16:
        raise ValueError(f"brute force classifies 2^n subsets; n={n} exceeds 16")
    adj = g.adj
    size = 1 << n
    is_cl = bytearray(size)
    is_ind = bytearray(size)
    is_cl[0] = is_ind[0] = 1
    best_cl = 0
    best_ind = 0
    for s in range(1, size):
        low = s & -s
        rest = s ^ low
        row = adj[low.bit_length() - 1]
        if is_cl[rest] and row & rest == rest:
            is_cl[s] = 1
            c = s.bit_count()
            if c > best_cl:
                best_cl = c
        if is_ind[rest] and not row & rest:
            is_ind[s] = 1
            c = s.bit_count()
            if c > best_ind:
                best_ind = c
    return best_cl + best_ind


class WitnessFamily(NamedTuple):
    """One monochromatic clique mask per colour of an edge colouring."""

    parts: tuple[int, ...]

    @property
    def value(self) -> int:
        return sum(p.bit_count() for p in self.parts)

    def validate(self, c: EdgeColoring) -> bool:
        full = (1 << c.n) - 1
        return len(self.parts) == c.m and all(
            not part & ~full and _mask_is_clique(c.color_class(i).adj, part)
            for i, part in enumerate(self.parts))

    def to_json_dict(self) -> dict:
        return {"parts": [sorted(bits(p)) for p in self.parts]}


def mono_clique_family(c: EdgeColoring) -> WitnessFamily:
    """A largest monochromatic clique in every colour class."""
    return WitnessFamily(tuple(max_clique(c.color_class(i))[1] for i in range(c.m)))


def family_sum_value(c: EdgeColoring) -> int:
    full = (1 << c.n) - 1
    return sum(_omega(c.color_class(i).adj, full) for i in range(c.m))


# --- certified exhaustive scans --------------------------------------------


class CheckOutcome(NamedTuple):
    """Verdict of one exhaustive scan plus its certificate."""

    ok: bool
    certificate: SearchCertificate


def check_universal(target: int, n_vertices: int, mode: str, m: int = 2,
                    budget: Optional[int] = None, prune: bool = False) -> CheckOutcome:
    """Does every instance on ``n_vertices`` vertices reach ``target``?

    Modes: "rprime" (clique + independent pair sum), "ramsey" (a clique or an
    independent set of the target size) and "rprime_m" (sum over colours of
    the largest monochromatic clique).  Failures report the minimum-code
    instance.  ``prune`` (graph modes only) records the number of complement
    pairs instead of all labeled graphs; the scan, verdict and witness are
    the same either way (see ``engine``).
    """
    if mode not in GRAPH_MODES + COLORING_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    from .engine import check
    return check(mode, target, n_vertices, m=m, budget=budget, prune=prune)


# --- threshold searches -----------------------------------------------------


def search_threshold(kind: str, target: int, m: int = 2, budget: Optional[int] = None,
                     prune: bool = False) -> SearchResult:
    """Least vertex count from which every instance reaches ``target``.

    Probes n_vertices = 1, 2, ... from one scan, which keeps the failing
    instances it has built from one probe to the next, until no instance
    fails; passing is monotone upward (an induced subgraph argument), so
    the first pass is the threshold.  When the next probe would blow the
    instance budget, raises UndecidedError carrying the best-known bracket.
    """
    if kind not in GRAPH_MODES + COLORING_MODES:
        raise ValueError(f"unknown search kind {kind!r}")
    from .engine import search
    return search(kind, target, m=m, budget=budget, prune=prune)


# --- closed-form bounds ------------------------------------------------------


def two_color_ramsey_bound(n: int) -> int:
    """Upper bound 2^(2n-3) for the two-colour clique-or-independent threshold."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    return 1 << (2 * n - 3)


def multicolor_ramsey_bound(n: int, m: int) -> int:
    """Upper bound 1 + (m^(mn-2m+1) - 1)/(m - 1) for the m-colour threshold."""
    if n < 2 or m < 2:
        raise ValueError("defined for n >= 2 and m >= 2")
    return 1 + (m ** (m * n - 2 * m + 1) - 1) // (m - 1)


def pair_sum_bound(n: int) -> int:
    """Upper bound 2^(n-2) for the clique-plus-independent pair-sum threshold."""
    if n < 2:
        raise ValueError("defined for n >= 2")
    return 1 << (n - 2)


def family_sum_bound(m: int, k: int) -> int:
    """Upper bound 1 + (m^k - 1)/(m - 1) for family sum m + k; k=0 gives 1."""
    if m < 2 or k < 0:
        raise ValueError("defined for m >= 2 and k >= 0")
    return 1 + (m**k - 1) // (m - 1)


class BoundSet(NamedTuple):
    """The four closed-form bounds evaluated at one (n, m)."""

    clique_or_independent: int
    multicolor: int
    pair_sum: int
    family_sum: Optional[int]


def bound_formulas(n: int, m: int = 2) -> BoundSet:
    """All closed-form bounds at (n, m); the family bound reads k = n - m."""
    return BoundSet(
        clique_or_independent=two_color_ramsey_bound(n),
        multicolor=multicolor_ramsey_bound(n, m),
        pair_sum=pair_sum_bound(n),
        family_sum=family_sum_bound(m, n - m) if n >= m else None,
    )
