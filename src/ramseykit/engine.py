"""One certified check and one threshold search for every mode.

A threshold is the least size at which every instance reaches a target.
Each row of ``MODES`` says what an instance is, how many there are, how a
witness is written and scored, and which closed form brackets the search.
``check`` settles one size: the least-code failing instance as a witness, or
an exhaustive certificate counting every instance.  ``search`` probes sizes
1, 2, ... until a check passes; passing is monotone upward (a failing
instance restricts to a failing one a size down), so the first pass is the
threshold.

Labeled scans (every mode but "wprime") extend failing codes one vertex at a
time.  Every labeled predicate is hereditary: a class's clique number, path
or cycle score cannot grow when a vertex is dropped, and the first k-1
vertices of a code on k vertices are the code ``low = code mod
m^pairs(k-1)``.  So a code fails only if ``low`` fails, and level k is
exactly the failing ``low + high * m^pairs(k-1)``, where ``high``'s base-m
digit u colours the pair (u, k-1).  Each level is produced in ascending code
order (highs outer, the memoised parent level inner; ``low`` is below
m^pairs(k-1)), and only as far as the next level asks, so the first failing
code of the last level is the least failing code and no code above it is
scored.  Each code carries its class rows (its parent's plus the new
vertex), so the replay for every ``high`` decodes nothing.

The top-digit symmetry still applies at the last level.  Each predicate is
invariant under permuting colours (complementing, at m = 2), and swapping
the top digit's colour with colour 0 lowers a code, so the least failing
code, when one exists, has top digit 0: the last level's highs lie in
[0, m^(size-2)).  The certificate still accounts for all m^pairs instances;
``prune`` changes only that recorded count, to the complement pairs of
graphs or the orbits of intervals under reversal x S_m.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import or_
from typing import Any, Callable, Iterator, Optional

from . import exact, scores, vdw
from .certificates import (EXHAUSTIVE, WITNESS, SearchCertificate,
                           SearchResult, UndecidedError)
from .exact import CheckOutcome, _has_clique
from .graphs import (ENUMERATION_CAP, BudgetError, EdgeColoring, Graph,
                     pair_count, parse_graph6, write_graph6)
from .scores import ScoreKind, _through


# --- the registry ------------------------------------------------------------


def _labeled_scan(name, n, m, j, score, target) -> Optional[int]:
    """Least failing code on n vertices, or None.

    A code is split into its m colour classes; it fails when no class has a
    ``target`` clique (clique modes) or when its j best class scores sum
    below ``target``.  Levels 0..n-1 of failing codes are built lazily, each
    produced only as far as the next level asks for it and carrying its
    class rows; the last level's highs are [0, m^(n-2)), codes with top
    digit 0."""
    if MODES[name].clique_test:
        fails = lambda per: max(per) < target
    elif j == m:
        fails = lambda per: sum(per) < target
    else:
        fails = lambda per: sum(sorted(per, reverse=True)[:j]) < target
    kind = ScoreKind(score)
    if kind is ScoreKind.CLIQUE:
        through = lambda rows, nbrs, s: s + _has_clique(rows, nbrs, s)
    else:  # capped: a class that reaches the target makes the child pass
        cycle = kind is ScoreKind.CYCLE
        through = lambda rows, nbrs, s: _through(rows, nbrs, target, cycle)
    # the empty graph fails every target
    level = _memoised(0, m, iter([(0, bytes(m), [[]] * m)]))
    for k in range(1, n):
        level = _memoised(k, m, _extend(level, k, m, range(m ** (k - 1)), through, fails))
    highs = range(m ** (n - 2) if n > 1 else 1)
    return next((code for code, _, _ in _extend(level, n, m, highs, through, fails)), None)


def _memoised(k: int, m: int, source) -> Callable[[], Iterator[tuple]]:
    """Replayable failing codes on k vertices with their class scores and
    class rows: a pass replays the entries stored so far, then pulls more
    from ``source`` and stores them compactly (codes in an array, m score
    bytes each, and k row bytes per code in one array per class: the
    enumeration cap keeps every stored level at k <= 8 vertices)."""
    codes, scores, rows = array("Q"), bytearray(), [bytearray() for _ in range(m)]

    def entries():
        for i, code in enumerate(codes):
            yield code, scores[i * m:i * m + m], [r[i * k:i * k + k] for r in rows]
        for code, per, grown in source:
            codes.append(code)
            scores.extend(per)
            for r, g in zip(rows, grown):
                r.extend(g)
            yield code, per, grown
    return entries


def _extend(parents, k: int, m: int, highs, through,
            fails) -> Iterator[tuple[int, bytes, list]]:
    """Failing codes on k vertices, ascending, with their class scores and
    rows: ``low + high * m^pairs(k-1)`` with ``low`` a failing parent and
    ``high``'s digit u the colour of the pair (u, k-1).  Every predicate is
    hereditary, so no other code fails.  A child's class score is the
    parent's or, when larger, ``through(rows, nbrs, score)``: one more for
    a clique in the new vertex's class neighbours, or the longest path or
    cycle through the new vertex.  Scoring stops once the child passes, and
    only failing children get rows."""
    base = m ** pair_count(k - 1)
    new = 1 << (k - 1)
    for high in highs:
        nbrs, joins = [0] * m, [[0] * (k - 1) for _ in range(m)]
        h = high
        for u in range(k - 1):
            h, d = divmod(h, m)
            nbrs[d] |= 1 << u
            joins[d][u] = new
        offset = high * base
        for low, per, rows in parents():
            child = bytearray(per)
            for d in range(m):
                score = through(rows[d], nbrs[d], per[d])
                if score > per[d]:
                    child[d] = score
                    if not fails(child):
                        break
            else:
                yield low + offset, child, _grow(rows, joins, nbrs)


def _grow(rows, joins, nbrs) -> list[list[int]]:
    """Each class's rows with the new vertex added: ``joins[d][u]`` is the
    new vertex's bit when u is its class-d neighbour, else 0, and
    ``nbrs[d]`` is its own class-d row."""
    return [[*map(or_, r, j), nb] for r, j, nb in zip(rows, joins, nbrs)]


def _interval_scan(name, size, m, j, score, target) -> Optional[tuple]:
    """Colours of the least failing interval colouring (a serial prefix DFS)."""
    return vdw._least_failing(m, size, target, False, ENUMERATION_CAP)


@dataclass(frozen=True)
class Mode:
    """One threshold family.  ``keys`` are the parameters recorded beyond
    mode, target and size; ``pruned`` is None where ``prune`` is refused."""

    name: str
    keys: tuple[str, ...]
    colors: range
    budget: int                                     # default per-probe budget
    field: str                                      # certificate witness field
    write: Callable[[int, int, Any], str]           # (size, m, found) -> text
    read: Callable[[str, int], Any]                 # (text, m) -> instance
    value: Callable[[Any, dict], int]               # (instance, params) -> value
    bound: Callable[[int, int], Optional[int]] = lambda target, m: None
    pruned: Optional[Callable[[int, int], int]] = None
    clique_test: bool = False   # labeled predicate: a target clique in some class
    size_key: str = "n_vertices"
    scan: Callable = _labeled_scan

    def count(self, size: int, m: int) -> int:
        """All instances of one size: m^pairs, or m^length for intervals."""
        return m ** (size if self.size_key == "length" else pair_count(size))

    def size_of(self, instance) -> int:
        return instance.length if self.size_key == "length" else instance.n

    def check_colors(self, m: int):
        if m not in self.colors:
            raise ValueError(f"{self.name} takes {self.colors[0]}..{self.colors[-1]}"
                             f" colours, not {m}")

    def params(self, target: int, size: int, m: int, j: int, score: str,
               prune: bool) -> dict:
        """Validated certificate parameters of one check."""
        self.check_colors(m)
        if prune and self.pruned is None:
            raise ValueError(f"{self.name} has no symmetry pruning")
        if "j" in self.keys and not 1 <= j <= m:
            raise ValueError(f"j={j} outside 1..{m}")
        if target < 1 or size < 1:
            raise ValueError("target and size must be positive")
        p = {"mode": self.name, "target": target, self.size_key: size,
             **_keys(self, m, j, score)}
        if prune:
            p["pruned"] = True
        return p


def _keys(mode: Mode, m: int, j: int, score: str) -> dict:
    given = {"m": m, "j": j, "score": ScoreKind(score).value}
    return {k: given[k] for k in mode.keys}


def _graph_row(name, value, bound, clique_test=False) -> Mode:
    return Mode(name, (), range(2, 3), exact.DEFAULT_GRAPH_BUDGET, "witness_graph6",
                lambda n, m, code: write_graph6(Graph.from_code(n, code)),
                lambda text, m: parse_graph6(text), value, bound,
                lambda n, m: max(1, 2 ** pair_count(n) // 2), clique_test)


def _coloring_row(name, keys, value, bound=lambda target, m: None) -> Mode:
    return Mode(name, keys, range(2, 9), exact.DEFAULT_COLORING_BUDGET,
                "witness_coloring",
                lambda n, m, code: EdgeColoring.from_code(n, m, code).to_text(),
                EdgeColoring.from_text, value, bound)


MODES = {mode.name: mode for mode in (
    _graph_row("rprime", lambda g, p: exact.clique_indep_pair(g).value,
               lambda t, m: exact.pair_sum_bound(t) if t >= 2 else None),
    _graph_row("ramsey",
               lambda g, p: max(exact.clique_number(g), exact.independence_number(g)),
               lambda t, m: exact.two_color_ramsey_bound(t) if t >= 2 else None,
               clique_test=True),
    _coloring_row("rprime_m", ("m",), lambda c, p: exact.mono_clique_family(c).value,
                  lambda t, m: exact.family_sum_bound(m, t - m) if t >= m else None),
    _coloring_row("score", ("score", "j", "m"),
                  lambda c, p: scores.score_sum(c, p["score"], p["j"])[0]),
    Mode("wprime", ("m",), range(1, vdw.MAX_INTERVAL_COLORS + 1),
         vdw.DEFAULT_INTERVAL_BUDGET, "witness_coloring",
         lambda length, m, colors: vdw.IntervalColoring(m, colors).to_text(),
         vdw.IntervalColoring.from_text, lambda c, p: vdw.ap_sum(c)[0],
         pruned=lambda length, m: vdw.orbit_count(m, length), size_key="length",
         scan=_interval_scan),
)}


# --- check and search --------------------------------------------------------


def check(name: str, target: int, size: int, m: int = 2, j: int = 1,
          score: str = "clique", budget: Optional[int] = None,
          prune: bool = False) -> CheckOutcome:
    """Does every instance of ``size`` reach ``target``?  Raises BudgetError
    when all m^pairs (or m^length) instances exceed the budget."""
    mode = MODES[name]
    params = mode.params(target, size, m, j, score, prune)
    total = mode.count(size, m)
    if total > min(mode.budget if budget is None else budget, ENUMERATION_CAP):
        raise BudgetError(f"{name} check at {mode.size_key}={size} needs {total}"
                          " instances, over the budget")
    # Modes without a j ("rprime", "rprime_m") sum the clique numbers of all
    # m classes, whatever ``score`` says: only "score" records it.
    found = mode.scan(name, size, m, j if "j" in mode.keys else m,
                      params.get("score", ScoreKind.CLIQUE.value), target)
    if found is None:
        scanned = mode.pruned(size, m) if prune else total
        return CheckOutcome(True, SearchCertificate(EXHAUSTIVE, params, target,
                                                    scanned_count=scanned))
    text = mode.write(size, m, found)
    value = mode.value(mode.read(text, m), params)
    return CheckOutcome(False, SearchCertificate(WITNESS, params, value,
                                                 **{mode.field: text}))


def search(name: str, target: int, m: int = 2, j: int = 1, score: str = "clique",
           budget: Optional[int] = None, prune: bool = False) -> SearchResult:
    """Least size from which every instance reaches ``target``, with a witness
    at size - 1 and an exhaustive certificate at the size.  When the next probe
    would blow the per-probe budget, raises UndecidedError with the bracket."""
    mode = MODES[name]
    mode.check_colors(m)
    per_probe = mode.budget if budget is None else budget
    params = {"kind": name, "target": target, **_keys(mode, m, j, score)}
    last_fail: Optional[SearchCertificate] = None
    size = 1
    while mode.count(size, m) <= min(per_probe, ENUMERATION_CAP):
        outcome = check(name, target, size, m, j, score, per_probe, prune)
        if outcome.ok:
            return SearchResult(name, params, size, lower=last_fail,
                                upper=outcome.certificate)
        last_fail = outcome.certificate
        size += 1
    raise UndecidedError(name, params, size, mode.bound(target, m), lower=last_fail)
