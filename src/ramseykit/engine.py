"""One certified check and one threshold search for every mode.

A threshold is the least size at which every instance reaches a target.
Each row of ``MODES`` says what an instance is, how many there are, how a
witness is decoded, written and scored, and which closed form brackets the
search.  ``check`` settles one size: the least failing code as a witness, or
an exhaustive certificate counting every instance, both built by ``emit``,
which ``revalidate`` compares against.  ``search`` probes sizes 1, 2, ...
until a check passes; passing is monotone upward (a failing instance
restricts to a failing one a size down), so the first pass is the
threshold.  Budget admission lives in ``check`` only (``graphs.admit``):
``search`` turns the BudgetError of the first refused probe into an
UndecidedError.

Labeled scans (every mode but "wprime") extend failing codes one vertex at a
time.  Every labeled predicate is hereditary: a class's clique number, path
or cycle score cannot grow when a vertex is dropped, and the first k-1
vertices of a code on k vertices are the code ``low = code mod
m^pairs(k-1)``.  So a code fails only if ``low`` fails, and level k is
exactly the failing ``low + high * m^pairs(k-1)``, where ``high``'s base-m
digit u colours the pair (u, k-1).  Each level is produced in ascending code
order (highs outer, the stored parent level inner; ``low`` is below
m^pairs(k-1)), and only as far as the next level asks, so the first failing
code of the last level is the least failing code and no code above it is
scored.  Each code carries its class rows as one word per class, byte u
being row u: a child's word is its parent's OR one constant per ``high``, so
the replay for every ``high`` decodes nothing and a kernel reads a word's
bytes.

Clique children are decided by per-parent tables, other children by the
kernel.  A child's class-d clique number is its parent's, or one more
exactly when the new vertex's class-d neighbourhood holds a largest clique
of the parent's class d.  Over all highs that is one m^(k-1)-bit int per
class: the OR, over those cliques, of the highs whose digits on the clique
are all d.  One more int holds the highs whose increments leave the child
failing, so a child costs one bit test and its scores are read off the same
ints (the "feasible neighbourhood" view of one-vertex extension: McKay and
Radziszowski, "R(4,5) = 25", J. Graph Theory 1995).  A parent's table is
built once it has been visited often enough to pay (``_TABLE_SWITCH``); the
parent is then listed under its next failing high only, and a high visits
just the parents listed under it.  Before the switch, and for path and cycle
scores, each child is scored by ``_has_clique`` or ``_through`` on the new
vertex, except a clique class whose new neighbourhood is the whole parent:
its clique number goes up by one, so at high 0 (every digit 0) a clique
child costs no kernel call.

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
from functools import cache
from itertools import count
from operator import or_
from typing import Any, Callable, Iterator, Optional

from . import exact, scores, vdw
from .certificates import (EXHAUSTIVE, WITNESS, SearchCertificate,
                           SearchResult, UndecidedError)
from .exact import CheckOutcome, _has_clique
from .graphs import (BudgetError, EdgeColoring, Graph, admit, pair_count,
                     parse_graph6, write_graph6)
from .scores import ScoreKind, _through


# --- the registry ------------------------------------------------------------

# The high from which a clique scan decides children by parent tables
# (``_extend``), in inner levels and in the last level.  A table costs about
# three kernel visits of its parent (m = 2, parents on 6 vertices: 5.1 us, and
# 3 us more for ``_ups`` when the parent has failing children, against 1.9 us
# for a visit at high 1, 2 or 3).  A visit at high 0 calls no kernel (class 0
# spans the parent) and costs 0.9 us.  Inner levels are read to the end,
# 2^(k-1) or more highs over each parent, unless the scan stops; the last
# level stops at its first failing code, often within the first few highs.
_TABLE_SWITCH = (0, 4)


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
        inner, last = _TABLE_SWITCH
    else:  # capped: a class that reaches the target makes the child pass
        cycle = kind is ScoreKind.CYCLE
        through = lambda rows, nbrs, s: _through(rows, nbrs, target, cycle)
        inner = last = None
    # the empty graph fails every target
    level = _Level(m, iter([(0, bytes(m), [0] * m)]))
    for k in range(1, n):
        level = _Level(m, _extend(level, k, m, range(m ** (k - 1)), through, fails, inner))
    highs = range(m ** (n - 2) if n > 1 else 1)
    return next((code for code, _, _ in _extend(level, n, m, highs, through, fails, last)),
                None)


class _Level:
    """Replayable failing codes on k vertices with their class scores and
    class rows.  Iterating replays the entries stored so far, then pulls
    more from ``source`` and stores them compactly: codes in an array, m
    score bytes each, and m words each in one array("Q"), the word of class
    d holding row u of that class in byte u.  A stored level has at most 8
    vertices, because ``ENUMERATION_CAP`` stops every scan at 9 vertices
    (m = 2), so the k rows fit in 64 bits; lifting the cap means widening
    the word.  ``entry`` reads back one stored entry."""

    def __init__(self, m: int, source: Iterator[tuple]):
        self.m, self.source = m, source
        self.codes, self.scores, self.words = array("Q"), bytearray(), array("Q")

    def entry(self, i: int) -> tuple[int, bytes, list]:
        m = self.m
        return self.codes[i], self.scores[i * m:i * m + m], self.words[i * m:i * m + m]

    def __iter__(self) -> Iterator[tuple]:
        m, scores, words = self.m, self.scores, self.words
        for i, code in enumerate(self.codes):  # ``entry`` inlined: the kernel's hot loop
            yield code, scores[i * m:i * m + m], words[i * m:i * m + m]
        for code, per, grown in self.source:
            self.codes.append(code)
            scores.extend(per)
            words.extend(grown)
            yield code, per, grown


def _spans(nbrs: int, v: int) -> bool:
    """Is the new vertex joined to all v parent vertices in one class?  Then
    the class's clique number goes up by one, with no kernel call."""
    return nbrs == (1 << v) - 1


def _extend(parents, k: int, m: int, highs, through, fails,
            switch: Optional[int]) -> Iterator[tuple[int, bytes, list]]:
    """Failing codes on k vertices, ascending, with their class scores and
    class words: ``low + high * m^pairs(k-1)`` with ``low`` a failing parent
    and ``high``'s digit u the colour of the pair (u, k-1).  Every predicate
    is hereditary, so no other code fails.  Only failing children get words,
    each by ``_grow``: one OR per class with a constant of the ``high``.
    ``highs`` starts at 0, so a high is also its position among them.

    Below the high ``switch`` (at every high when ``switch`` is None: path
    and cycle scores), a child's class score is the parent's or, when
    larger, ``through(rows, nbrs, score)`` on the parent's class rows (the
    word's k-1 bytes): one more for a clique in the new vertex's class
    neighbours, or the longest path or cycle through the new vertex; scoring
    stops once the child passes.  A clique class whose neighbours are all
    k-1 parent vertices (``_spans``) goes up by one with no kernel call: its
    score is the parent's class clique number, and any of its largest
    cliques grows by the new vertex.

    At the high ``switch`` each parent's ``_table`` is built on its visit,
    one parent at a time: each child is one bit test, and a failing child's
    scores are read off the same table.  A parent with failing children
    ahead is listed (by its index in the level) under its next failing high;
    visiting it there lists it under the one after.  So a high visits just
    its listed parents, sorted back into level order, and a level that the
    next one reads only partly lists no parent beyond the highs it reaches."""
    v = k - 1
    base = m ** pair_count(v)
    new = 1 << v
    passing = {}  # class scores -> the class sets whose increments pass
    tables = {}  # parent index -> (failing, ups, scores as an int), while children lie ahead
    listed = []  # per high, the parents whose next failing child is there
    for high in highs:
        nbrs, joins = [0] * m, [0] * m
        h = high
        for u in range(v):
            h, d = divmod(h, m)
            nbrs[d] |= 1 << u
            joins[d] |= new << 8 * u
        joins = [j | nb << 8 * v for j, nb in zip(joins, nbrs)]
        offset = high * base
        if switch is None or high < switch:
            full = [switch is not None and _spans(nb, v) for nb in nbrs]
            for low, per, words in parents:
                child = bytearray(per)
                for d in range(m):
                    s = per[d]
                    score = s + 1 if full[d] else through(words[d].to_bytes(v, "little"),
                                                         nbrs[d], s)
                    if score > s:
                        child[d] = score
                        if not fails(child):
                            break
                else:
                    yield low + offset, child, _grow(words, joins)
        elif high == switch:  # each parent's table is built on this visit
            masks, ahead = _masks(v, m), ((1 << len(highs)) - 1) >> high << high
            # a byte of ``_ups`` -> what it adds to the scores read as one int
            spread = [sum((c >> d & 1) << 8 * d for d in range(m)) for c in range(1 << m)]
            listed = [array("I") for _ in highs]
            for p, (low, per, words) in enumerate(parents):
                key = bytes(per)
                if key not in passing:
                    passing[key] = _passing(per, fails)
                f, gains = _table([w.to_bytes(v, "little") for w in words], per,
                                  passing[key], masks)
                f &= ahead
                if not f:
                    continue
                ups, packed = _ups(gains, len(highs)), int.from_bytes(per, "little")
                if f & 1 << high:
                    yield (low + offset, (packed + spread[ups[high]]).to_bytes(m, "little"),
                           _grow(words, joins))
                after = f >> high + 1
                if after:
                    tables[p] = f, ups, packed
                    listed[high + (after & -after).bit_length()].append(p)
        elif listed[high]:
            for p in sorted(listed[high]):
                f, ups, packed = tables[p]
                low, _, words = parents.entry(p)
                yield (low + offset, (packed + spread[ups[high]]).to_bytes(m, "little"),
                       _grow(words, joins))
                after = f >> high + 1
                if after:
                    listed[high + (after & -after).bit_length()].append(p)
                else:
                    del tables[p]
            listed[high] = None


def _ups(gains, n: int) -> bytes:
    """Byte h has bit d set when the class-d score of the child at high h is
    one up (bit h of ``gains[d]``), for the highs h < n.  Each class's bits
    are spread one to a byte through their binary digits."""
    ups, zero = 0, int.from_bytes(b"0" * n, "big")
    for d, gain in enumerate(gains):
        ups |= int.from_bytes(format(gain & (1 << n) - 1, f"0{n}b").encode(), "big") - zero << d
    return ups.to_bytes(n, "little")


def _grow(words, joins) -> list[int]:
    """Each class's word with the new vertex added: one OR per class.
    ``joins[d]`` carries the new vertex's bit in the byte of each class-d
    neighbour and the new vertex's own class-d row in its top byte."""
    return list(map(or_, words, joins))


def _passing(per, fails) -> list[int]:
    """The sets of classes (bit d for class d) whose scores, each one up from
    ``per``, make a child pass; each is minimal."""
    found = []
    for classes in sorted(range(1, 1 << len(per)), key=int.bit_count):
        if not any(c & classes == c for c in found) and not fails(
                bytes([s + (classes >> d & 1) for d, s in enumerate(per)])):
            found.append(classes)
    return found


@cache
def _masks(v: int, m: int) -> tuple:
    """Constant masks for the tables of parents on v vertices, m colours.

    Sets of parent vertices are indices in [0, 2^v): ``inside[x]`` is the
    sets inside x, ``sized[s]`` those of s vertices.  Highs are indices in
    [0, m^v): ``within[d][c]`` is the highs whose digit u is d for every u
    in c, the new vertices whose class-d neighbourhood contains c."""
    sets = range(1 << v)
    inside, sized = [1] * len(sets), [0] * (v + 1)
    for c in sets:
        sized[c.bit_count()] |= 1 << c
        if c:
            low = c & -c
            inside[c] = inside[c ^ low] | inside[c ^ low] << low
    within = []
    for d in range(m):
        # digit u is d on a run of m^u highs in every m^(u+1)
        digit = [((1 << m ** u) - 1 << d * m ** u) * ((1 << m ** v) - 1)
                 // ((1 << m ** (u + 1)) - 1) for u in range(v)]
        w = [(1 << m ** v) - 1] * len(sets)
        for c in sets[1:]:
            low = c & -c
            w[c] = w[c ^ low] & digit[low.bit_length() - 1]
        within.append(w)
    return inside, sized, within


def _table(rows, per, passing, masks) -> tuple[int, list[int]]:
    """A failing parent's children at every high: (failing, gains).  Bit
    ``high`` of ``gains[d]`` says the new vertex's class-d neighbourhood
    holds a ``per[d]``-clique of the parent's class d (so the child's class-d
    score is one up); bit ``high`` of ``failing`` says the child still
    fails, that is, no set of classes in ``passing`` all go up."""
    inside, sized, within = masks
    gains = []
    for d, (r, s) in enumerate(zip(rows, per)):
        cliques = 1  # the cliques on vertices below u, as a set of index bits
        for u, row in enumerate(r):
            cliques |= (cliques & inside[row]) << (1 << u)
        cliques &= sized[s]
        gain = 0
        while cliques:
            low = cliques & -cliques
            gain |= within[d][low.bit_length() - 1]
            cliques ^= low
        gains.append(gain)
    up = 0
    for classes in passing:
        all_up = -1
        for d, gain in enumerate(gains):
            if classes >> d & 1:
                all_up &= gain
        up |= all_up
    return within[0][0] & ~up, gains


def _interval_scan(name, size, m, j, score, target) -> Optional[int]:
    """Code of the least failing interval colouring (a serial prefix DFS)."""
    return vdw._least_failing(m, size, target, False)


@dataclass(frozen=True)
class Mode:
    """One threshold family.  ``keys`` are the parameters recorded beyond
    mode, target and size; ``pruned`` is None where ``prune`` is refused.
    A witness is a code until ``emit`` decodes it and writes its text once;
    ``read`` serves only ``revalidate``, which reads text back to a code."""

    name: str
    keys: tuple[str, ...]
    colors: range
    budget: int                                     # default per-probe budget
    field: str                                      # certificate witness field
    decode: Callable[[int, int, int], Any]          # (size, m, code) -> instance
    write: Callable[[Any], str]                     # instance -> witness text
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

    def params(self, target: int, size: int, m: int, j: int, score: str,
               prune: bool) -> dict:
        """Validated certificate parameters of one check."""
        if m not in self.colors:
            raise ValueError(f"{self.name} takes {self.colors[0]}..{self.colors[-1]}"
                             f" colours, not {m}")
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
                lambda n, m, code: Graph.from_code(n, code), write_graph6,
                lambda text, m: parse_graph6(text), value, bound,
                lambda n, m: max(1, 2 ** pair_count(n) // 2), clique_test)


def _coloring_row(name, keys, value, bound=lambda target, m: None) -> Mode:
    return Mode(name, keys, range(2, 9), exact.DEFAULT_COLORING_BUDGET,
                "witness_coloring", EdgeColoring.from_code, EdgeColoring.to_text,
                EdgeColoring.from_text, value, bound)


MODES = {mode.name: mode for mode in (
    _graph_row("rprime", lambda g, p: exact.pair_sum_value(g),
               lambda t, m: exact.pair_sum_bound(t) if t >= 2 else None),
    _graph_row("ramsey",
               lambda g, p: max(exact.clique_number(g), exact.independence_number(g)),
               lambda t, m: exact.two_color_ramsey_bound(t) if t >= 2 else None,
               clique_test=True),
    _coloring_row("rprime_m", ("m",), lambda c, p: exact.family_sum_value(c),
                  lambda t, m: exact.family_sum_bound(m, t - m) if t >= m else None),
    _coloring_row("score", ("score", "j", "m"),
                  lambda c, p: scores.score_sum(c, p["score"], p["j"])[0]),
    Mode("wprime", ("m",), range(1, vdw.MAX_INTERVAL_COLORS + 1),
         vdw.DEFAULT_INTERVAL_BUDGET, "witness_coloring",
         lambda length, m, code: vdw.IntervalColoring.from_code(m, length, code),
         vdw.IntervalColoring.to_text, vdw.IntervalColoring.from_text,
         lambda c, p: vdw.ap_sum(c)[0],
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
    admit(mode.count(size, m), budget, mode.budget, f"{name} check at {mode.size_key}={size}")
    # Modes without a j ("rprime", "rprime_m") sum the clique numbers of all
    # m classes, whatever ``score`` says: only "score" records it.
    found = mode.scan(name, size, m, j if "j" in mode.keys else m,
                      params.get("score", ScoreKind.CLIQUE.value), target)
    return CheckOutcome(found is None, emit(mode, params, found))


def emit(mode: Mode, params: dict, code: Optional[int] = None) -> SearchCertificate:
    """The certificate a check with ``params`` emits, and the only bytes
    ``revalidate`` accepts: exhaustive without ``code`` (the target, every
    instance counted, the orbits under ``pruned``), else a witness: the
    instance of ``code`` at the recorded size, decoded once, scored and
    written once.  A code out of range at that size raises ValueError."""
    size, m = params[mode.size_key], params.get("m", 2)
    if code is None:
        scanned = mode.pruned(size, m) if params.get("pruned") else mode.count(size, m)
        return SearchCertificate(EXHAUSTIVE, params, params["target"], scanned_count=scanned)
    instance = mode.decode(size, m, code)
    return SearchCertificate(WITNESS, params, mode.value(instance, params),
                             **{mode.field: mode.write(instance)})


def search(name: str, target: int, m: int = 2, j: int = 1, score: str = "clique",
           budget: Optional[int] = None, prune: bool = False) -> SearchResult:
    """Least size from which every instance reaches ``target``, with a witness
    at size - 1 and an exhaustive certificate at the size.  Each probe is a
    ``check``, which validates the parameters and admits the probe; when it
    refuses one as over the budget, raises UndecidedError with the bracket."""
    mode = MODES[name]
    params = {"kind": name, "target": target, **_keys(mode, m, j, score)}
    last_fail: Optional[SearchCertificate] = None
    for size in count(1):
        try:
            outcome = check(name, target, size, m, j, score, budget, prune)
        except BudgetError:
            raise UndecidedError(name, params, size, mode.bound(target, m),
                                 lower=last_fail) from None
        if outcome.ok:
            return SearchResult(name, params, size, lower=last_fail,
                                upper=outcome.certificate)
        last_fail = outcome.certificate
