"""Scores of colour classes beyond clique size, with top-j aggregation.

Each colour class of an edge colouring spans a graph on all n vertices; a
score function assigns it the size of its largest clique, longest cycle, or
longest path (counted in vertices).  Aggregating the j best class scores
generalizes the monochromatic-clique family sum (clique score, j = m) and the
single-best-class threshold (j = 1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .certificates import SearchResult
from .exact import CheckOutcome, _omega
from .graphs import EdgeColoring, bits


class ScoreKind(str, enum.Enum):
    CLIQUE = "clique"
    CYCLE = "cycle"
    PATH = "path"


@dataclass(frozen=True)
class ScoreProfile:
    """Per-colour scores of one colouring, in colour order."""

    per_color: tuple[int, ...]

    def aggregate(self, j: int) -> int:
        """Sum of the j largest class scores."""
        if not 1 <= j <= len(self.per_color):
            raise ValueError(f"j={j} outside 1..{len(self.per_color)}")
        return sum(sorted(self.per_color, reverse=True)[:j])


def _longest_path(adj, full: int) -> int:
    """Vertices on a longest simple path; 1 for any nonempty vertex set."""
    best = 0

    def extend(v: int, visited: int, length: int):
        nonlocal best
        if length > best:
            best = length
        for u in bits(adj[v] & ~visited & full):
            extend(u, visited | (1 << u), length + 1)

    for v in bits(full):
        extend(v, 1 << v, 1)
    return best


def _longest_cycle(adj, full: int) -> int:
    """Vertices on a longest simple cycle; 0 when the graph is acyclic.

    Each cycle is found once, anchored at its minimum vertex: paths grow only
    through vertices above the anchor and score when they close back on it
    with length at least 3.
    """
    best = 0

    def extend(v: int, visited: int, length: int, anchor: int, above: int):
        nonlocal best
        if length >= 3 and adj[v] >> anchor & 1 and length > best:
            best = length
        for u in bits(adj[v] & ~visited & above):
            extend(u, visited | (1 << u), length + 1, anchor, above)

    for anchor in bits(full):
        above = full & ~((1 << (anchor + 1)) - 1)
        extend(anchor, 1 << anchor, 1, anchor, above)
    return best


def _score_rows(adj, full: int, kind: ScoreKind) -> int:
    if kind is ScoreKind.CLIQUE:
        return _omega(adj, full)
    if kind is ScoreKind.CYCLE:
        return _longest_cycle(adj, full)
    return _longest_path(adj, full)


def score_color_class(c: EdgeColoring, color: int, kind: ScoreKind) -> int:
    """Score of one colour class (its graph keeps all n vertices)."""
    kind = ScoreKind(kind)
    g = c.color_class(color)
    return _score_rows(g.adj, g.full_mask, kind)


def score_sum(c: EdgeColoring, kind: ScoreKind, j: int) -> tuple[int, ScoreProfile]:
    """Aggregate of the j best class scores, plus the full profile."""
    kind = ScoreKind(kind)
    profile = ScoreProfile(tuple(score_color_class(c, i, kind) for i in range(c.m)))
    return profile.aggregate(j), profile


def check_universal_score(target: int, n_vertices: int, kind: ScoreKind,
                          m: int = 2, j: int = 1, threads: int = 1,
                          budget: Optional[int] = None) -> CheckOutcome:
    """Does every m-colouring on ``n_vertices`` reach ``target`` with its j
    best class scores?  Failures report the minimum-code colouring.
    ``threads`` is unused (the scan is serial)."""
    from .engine import check
    return check("score", target, n_vertices, m=m, j=j, score=kind, budget=budget)


def search_threshold_score(kind: ScoreKind, m: int, j: int, target: int,
                           threads: int = 1, budget: Optional[int] = None
                           ) -> SearchResult:
    """Least vertex count from which every m-colouring reaches ``target``
    with its j best class scores; raises UndecidedError past the budget.
    ``threads`` is unused (the scan is serial)."""
    from .engine import search
    return search("score", target, m=m, j=j, score=kind, budget=budget)
