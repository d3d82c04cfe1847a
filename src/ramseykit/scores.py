"""Scores of colour classes beyond clique size, with top-j aggregation.

Each colour class of an edge colouring spans a graph on all n vertices; a
score function assigns it the size of its largest clique, longest cycle, or
longest path (counted in vertices).  Aggregating the j best class scores
generalizes the monochromatic-clique family sum (clique score, j = m) and the
single-best-class threshold (j = 1).  Path and cycle scores share one
kernel, ``_through``: the longest path or cycle through a top vertex,
stopping at a cap (the labeled scan's target, or a spanning path or cycle).
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


def _through(rows, row: int, cap: int, cycle: bool) -> int:
    """Most vertices on a path (``cycle``: a cycle, else 0) through vertex
    v = len(rows), with neighbours ``row``, on vertices 0..v only; returns
    once the count reaches ``cap``.  A path is two arms leaving v, the
    second forking off the first and starting above its first vertex, so
    each path is walked once; a cycle is a first arm that closes on v.  A
    walk stops once the free vertices cannot beat the best or, for cycles,
    none of v's neighbours is free to close on."""
    free = (1 << len(rows)) - 1
    row &= free
    best = 0 if cycle else 1

    def walk(u: int, free: int, count: int, fork: int) -> bool:
        nonlocal best
        if count > best and (not cycle or count > 2 and row >> u & 1):
            best = count
            if best >= cap:
                return True
        if count + free.bit_count() <= best or cycle and not row & free:
            return False
        for step, then in ((rows[u] & free, fork), (fork & free, 0)):
            while step:
                low = step & -step
                step ^= low
                if walk(low.bit_length() - 1, free ^ low, count + 1, then):
                    return True
        return False

    for a in bits(row):
        if walk(a, free ^ 1 << a, 2, 0 if cycle else row & ~((2 << a) - 1)):
            break
    return best


def score_color_class(c: EdgeColoring, color: int, kind: ScoreKind) -> int:
    """Score of one colour class (its graph keeps all n vertices).  A longest
    path or cycle is the longest through its top vertex v on vertices 0..v,
    taken for v descending until v + 1 vertices cannot beat the best."""
    kind = ScoreKind(kind)
    adj = c.color_class(color).adj
    if kind is ScoreKind.CLIQUE:
        return _omega(adj, (1 << c.n) - 1)
    best = 0
    for v in reversed(range(c.n)):
        if v + 1 <= best:
            break
        best = max(best, _through(adj[:v], adj[v], v + 1, kind is ScoreKind.CYCLE))
    return best


def score_sum(c: EdgeColoring, kind: ScoreKind, j: int) -> tuple[int, ScoreProfile]:
    """Aggregate of the j best class scores, plus the full profile."""
    kind = ScoreKind(kind)
    profile = ScoreProfile(tuple(score_color_class(c, i, kind) for i in range(c.m)))
    return profile.aggregate(j), profile


def check_universal_score(target: int, n_vertices: int, kind: ScoreKind,
                          m: int = 2, j: int = 1, budget: Optional[int] = None
                          ) -> CheckOutcome:
    """Does every m-colouring on ``n_vertices`` reach ``target`` with its j
    best class scores?  Failures report the minimum-code colouring."""
    from .engine import check
    return check("score", target, n_vertices, m=m, j=j, score=kind, budget=budget)


def search_threshold_score(kind: ScoreKind, m: int, j: int, target: int,
                           budget: Optional[int] = None) -> SearchResult:
    """Least vertex count from which every m-colouring reaches ``target``
    with its j best class scores; raises UndecidedError past the budget."""
    from .engine import search
    return search("score", target, m=m, j=j, score=kind, budget=budget)
