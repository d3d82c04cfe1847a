"""Scores of colour classes beyond clique size, with top-j aggregation.

Each colour class of an edge colouring spans a graph on all n vertices; a
score function assigns it the size of its largest clique, longest cycle, or
longest path (counted in vertices).  Aggregating the j best class scores
generalizes the monochromatic-clique family sum (clique score, j = m) and the
single-best-class threshold (j = 1).  A colouring's path and cycle scores
(``score_color_class``, so ``emit`` and ``revalidate``) share one kernel,
``_through``: the longest path or cycle through a top vertex, stopping at a
cap (a spanning path or cycle).  Labeled scans use ``_ends`` instead: for
one class of a parent, the most vertices on a path or cycle through a new
vertex with each pair or single vertex of ends, found by one set of walks,
from which the engine tables every colouring of the new vertex's pairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .certificates import SearchResult
from .exact import _omega
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


def _ends(rows, lo: int, cap: int, cycle: bool, lift) -> list[int]:
    """Where a new vertex v = len(rows) lifts the parent's class score ``lo``
    (lo <= v): entry i is the OR of ``lift[c]`` over the end sets c (set
    indices) scoring at least lo + 1 + i, for the scores in (lo, cap].  An
    end set is the new vertex's neighbours on a path or cycle through it: a
    pair {a, b} joined by a path (``cycle``) or starting two disjoint arms,
    or one vertex {a} (a path ending at v; the empty set, the lone v, lifts
    only an empty parent), scoring the most vertices on it, capped at ``cap``.
    Walks from each a record, per b > a, the most vertices on an a-b path
    or on two arms from a and b (the first arms also give the longest path
    from a).  A walk stops once its free vertices cannot lift a score above
    ``lo`` or past what is recorded, or once every score it could record is
    capped; an a-b walk one step from the cap records the cap for every
    vertex in reach."""
    v, found = len(rows), {}
    everyone, least = (1 << v) - 1, max(lo, 1)
    if cycle:
        def walk(u: int, free: int, count: int) -> None:
            """a-b paths on through u, ``count`` vertices so far, recorded."""
            nonlocal done
            step = rows[u] & free
            if count + 2 >= cap:  # every longer a-b path is capped too
                seen = step
                while step:
                    ahead = 0
                    while step:
                        low = step & -step
                        step ^= low
                        ahead |= rows[low.bit_length() - 1]
                    step = ahead & free & ~seen
                    seen |= step
                done |= seen
                while seen:
                    low = seen & -seen
                    seen ^= low
                    most[low.bit_length() - 1] = cap
                return
            count += 1
            while step:
                low = step & -step
                step ^= low
                u = low.bit_length() - 1
                if count > most[u]:
                    most[u] = count
                rest = free ^ low
                if rest & ~done and count + rest.bit_count() >= lo:
                    walk(u, rest, count)

        for a in range(v - 1):
            most, done = [0] * v, (2 << a) - 1  # each pair is found from its least end
            walk(a, everyone ^ 1 << a, 1)
            for b in range(a + 1, v):
                if most[b] >= least:
                    score = min(most[b] + 1, cap)
                    found[score] = found.get(score, 0) | lift[1 << a | 1 << b]
    else:
        def arm(u: int, free: int, count: int) -> bool:
            """Second arms on through u, ``count`` vertices on both arms so
            far, recorded in ``best``; True once the pair reaches the cap."""
            nonlocal best
            step = rows[u] & free
            count += 1
            while step:
                low = step & -step
                step ^= low
                if count > best:
                    best = count
                    if count + 1 >= cap:
                        return True
                rest = free ^ low
                if count + rest.bit_count() > best and arm(low.bit_length() - 1, rest, count):
                    return True
            return False

        def fork(u: int, free: int, count: int) -> None:
            """First arms on through u, ``count`` vertices so far, forking a
            second arm at each free b > a whose pair is below the cap."""
            nonlocal longest, best, done
            if count > longest:
                longest = count
            forks = free & ~done
            if count + free.bit_count() < lo or not forks and longest + 1 >= cap:
                return
            count += 1
            while forks:
                low = forks & -forks
                forks ^= low
                best = most[low.bit_length() - 1]
                if count > best:
                    best = count
                rest = free ^ low
                if best + 1 < cap and count + rest.bit_count() > best:
                    arm(low.bit_length() - 1, rest, count)
                most[low.bit_length() - 1] = best
                if best + 1 >= cap:
                    done |= low
            step = rows[u] & free
            while step:
                low = step & -step
                step ^= low
                fork(low.bit_length() - 1, free ^ low, count)

        scores = [(0, 1)]  # (end set, score): the lone v, each {a} and each pair
        for a in range(v):
            # each pair is found from its least end; ``done``: a, the vertices
            # below it and the ends whose pair with a reached the cap
            most, longest, best, done = [lo - 1] * v, 1, 0, (2 << a) - 1
            fork(a, everyone ^ 1 << a, 1)
            scores.append((1 << a, longest + 1))
            scores += [(1 << a | 1 << b, most[b] + 1) for b in range(a + 1, v)
                       if most[b] >= least]
        for c, score in scores:
            if score > lo:
                score = min(score, cap)
                found[score] = found.get(score, 0) | lift[c]
    levels, acc = [], 0
    for score in range(max(found, default=lo), lo, -1):
        acc |= found.get(score, 0)
        levels.append(acc)
    return levels[::-1]


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


def search_threshold_score(kind: ScoreKind, m: int, j: int, target: int,
                           budget: Optional[int] = None) -> SearchResult:
    """Least vertex count from which every m-colouring reaches ``target``
    with its j best class scores; raises UndecidedError past the budget."""
    from .engine import search
    return search("score", target, m=m, j=j, score=kind, budget=budget)
