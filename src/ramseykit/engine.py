"""One certified check and one threshold search for every mode.

A threshold is the least size at which every instance reaches a target.
Each row of ``MODES`` says what an instance is, how many there are, which
parameters a check records (``Mode.params``) and how many class scores
count (``Mode.top``), how a witness is scored, and which closed form
brackets the search.  A mode's scan yields the least failing code at each
size from its first one up, and ends with None at the first size where no
code fails.  ``_check``, run by ``check`` and by a deep ``revalidate``,
admits a size's scan and emits its first code as a witness, or an
exhaustive certificate counting every instance.  ``search`` probes sizes
1, 2, ... from one scan until no code fails; passing is monotone upward (a
failing instance restricts to a failing one a size down), so the first
pass is the threshold.  Each probe is admitted as a check at its size
would be (``graphs.admit``) before the scan runs on to that size:
``search`` turns the BudgetError of the first refused probe into an
UndecidedError.

Labeled scans (every mode but "wprime") extend failing codes one vertex at a
time, and keep their levels from one size to the next.  Every labeled
predicate is hereditary: a class's clique number, path or cycle score
cannot grow when a vertex is dropped, and the first k-1
vertices of a code on k vertices are the code ``low = code mod
m^pairs(k-1)``.  So a code fails only if ``low`` fails, and level k is
exactly the failing ``low + high * m^pairs(k-1)``, where ``high``'s base-m
digit u colours the pair (u, k-1).  Each level is produced in ascending code
order (highs outer, the stored parent level inner; ``low`` is below
m^pairs(k-1)), and only as far as it is read.  Size k reads the first code
of level k, the least failing code, and size k + 1 extends that same
level, so no level is scored twice and a check scores no code of its size
above its witness.  Each code carries its class rows as one word per class, byte u
being row u: a child's word is its parent's OR one constant per ``high``, so
the replay for every ``high`` decodes nothing and a kernel reads a word's
bytes.

Children are decided by per-parent tables.  A child's class-d score is its
parent's, or more where the new vertex's class-d neighbourhood holds an end
set that lifts it: a largest clique of the parent's class d (one more), or
one or two ends of a path or cycle through the new vertex (the most
vertices on it, capped at the target: ``scores._ends``).  Over all highs,
each score a class can reach is one m^(k-1)-bit int: the OR, over the end
sets that lift that far, of the highs whose digits on the set are all d.
One more int holds the highs whose scores leave the child failing, so a
child costs one bit test and its scores are read off the same ints (the
"feasible neighbourhood" view of one-vertex extension: McKay and
Radziszowski, "R(4,5) = 25", J. Graph Theory 1995).  A parent's table is
built once it has been visited often enough to pay (``_TABLE_SWITCH``,
``_PAIR_SWITCH``), or, in a level read past its first code, from the next
high on; the parent is then listed under its next failing high
only, and a high visits just the parents listed under it.  Before the
switch, each child is scored by ``_has_clique`` or ``_through`` on the new
vertex, except a clique class whose new neighbourhood is the whole parent:
its clique number goes up by one, so at high 0 (every digit 0) a clique
child costs no kernel call.

Reading a size stops within the level's first m^(size-2) highs.  Each
predicate is invariant under permuting colours (complementing, at m = 2),
and swapping the top digit's colour with colour 0 lowers a code, so the
level's first code, the least failing code, has top digit 0 when it exists.
The certificate still accounts for all m^pairs instances; ``prune``, on the
two graph modes only, changes just that recorded count, to the complement
pairs of graphs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cache
from itertools import chain, count, product
from operator import add, mul, or_
from typing import Any, Callable, Iterator, NamedTuple, Optional

from . import exact, scores, vdw
from .certificates import (EXHAUSTIVE, WITNESS, SearchCertificate,
                           SearchResult, UndecidedError)
from .exact import CheckOutcome, _has_clique
from .graphs import (MAX_COLORS, BudgetError, EdgeColoring, Graph, admit,
                     pair_count, parse_graph6, write_graph6)
from .scores import ScoreKind, _through


# --- the registry ------------------------------------------------------------

# The high from which a clique scan decides children by parent tables
# (``_extend``), in inner levels (below the first size read) and in read
# levels (a size's own level, read up to its first code).  A table costs about
# three kernel visits of its parent (m = 2, parents on 6 vertices: 5.1 us, and
# 3 us more for ``_ups`` when the parent has failing children, against 1.9 us
# for a visit at high 1, 2 or 3).  A visit at high 0 calls no kernel (class 0
# spans the parent) and costs 0.9 us.  Inner levels are read to the end,
# 2^(k-1) or more highs over each parent, unless the scan stops; a read
# level stops at its first failing code, often within the first few highs,
# and tables from the next high on if a search reads it further.
_TABLE_SWITCH = (0, 4)
# The same for path and cycle scans.  A table there costs a few kernel
# visits too (the pair walks of ``scores._ends``), but a visit at high 0
# needs the kernel on class 0 alone, and a scan that stops early reads
# mostly the high-0 children of each level: with tables from high 0, checks
# whose witness is a low code ran 3 to 7 times slower than with the kernel
# at high 0 (cycle m=2 j=2 t=7 on 7 vertices: 50 against 14 ms; path m=2
# j=1 t=6 on 7 vertices: 114 against 14 ms), while full scans ran alike.
_PAIR_SWITCH = (1, 1)


def _labeled_scan(first, m, top, score, target) -> Iterator[Optional[int]]:
    """Least failing code on n vertices for n = first, first + 1, ..., and
    then None at the first n where no code fails.

    A code is split into its m colour classes; it fails while its ``top``
    best class scores sum below ``target`` (top = 1: no class reaches it).
    Levels of failing codes are built lazily, each produced only as far as
    it is read and carrying its class rows, and kept from one size to the
    next.  Size n reads the first code of level n, the level that size n+1
    extends, and the level is stored only once size n+1 asks for it.
    Levels below ``first`` table from the ``inner`` switch, read levels from
    the ``last`` one."""
    if top == 1:
        fails = lambda per: max(per) < target
    elif top == m:
        fails = lambda per: sum(per) < target
    else:
        fails = lambda per: sum(sorted(per, reverse=True)[:top]) < target
    kind = ScoreKind(score)
    if kind is ScoreKind.CLIQUE:
        through = lambda rows, nbrs, s: s + _has_clique(rows, nbrs, s)
        ends, (inner, last) = _cliques, _TABLE_SWITCH
    else:  # capped: a class that reaches the target makes the child pass
        cycle = kind is ScoreKind.CYCLE
        through = lambda rows, nbrs, s: _through(rows, nbrs, target, cycle)
        ends = lambda rows, per, within: [scores._ends(r, s, target, cycle, lift)
                                          for r, s, lift in zip(rows, per, within)]
        inner, last = _PAIR_SWITCH
    rule = _Rule(fails, through, kind is ScoreKind.CLIQUE, ends,
                 lambda per, rises: _passing(bytes(per), rises, top, target))
    # the empty graph fails every target
    level = _Level(m, iter([(0, bytes(m), [0] * m)]))
    for n in count(1):
        children = _extend(level, n, m, rule, last if n >= first else inner)
        if n >= first:
            found = next(children, None)
            yield None if found is None else found[0]
            if found is None:
                return
            children = chain([found], children)
        level = _Level(m, children)


class _Rule(NamedTuple):
    """How a labeled scan decides a failing parent's children."""

    fails: Callable     # class scores -> does the code still fail?
    through: Callable   # (rows, nbrs, score) -> a child's class score, below the switch
    spans: bool         # a class joined to the whole parent goes one up (cliques)
    ends: Callable      # (rows, scores, within) -> each class's levels (``_table``)
    passing: Callable   # (scores, rises) -> the least passing increments (``_passing``)


class _Level:
    """Replayable failing codes on k vertices with their class scores and
    class rows.  Iterating replays the entries stored so far, then pulls
    more from ``source`` and stores them compactly: codes in an array, m
    score bytes each, and m words each in one array("Q"), the word of class
    d holding row u of that class in byte u.  A stored level has at most 8
    vertices, because a level is stored only as the next size extends it
    and ``ENUMERATION_CAP`` stops every scan at 9 vertices (m = 2), so the
    k rows fit in 64 bits; lifting the cap means widening the word.  ``entry`` reads back one stored code and its words (a
    listed parent's scores are in its table)."""

    def __init__(self, m: int, source: Iterator[tuple]):
        self.m, self.source = m, source
        self.codes, self.scores, self.words = array("Q"), bytearray(), array("Q")

    def entry(self, i: int) -> tuple[int, list]:
        m = self.m
        return self.codes[i], self.words[i * m:i * m + m]

    def __iter__(self) -> Iterator[tuple]:
        m, scores, words = self.m, self.scores, self.words
        for i, code in enumerate(self.codes):  # ``entry`` inlined, with the scores
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


def _extend(parents, k: int, m: int, rule,
            switch: int) -> Iterator[tuple[int, bytes, list]]:
    """Failing codes on k vertices, ascending, with their class scores and
    class words: ``low + high * m^pairs(k-1)`` with ``low`` a failing parent
    and ``high``'s digit u the colour of the pair (u, k-1).  Every predicate
    is hereditary, so no other code fails.  Only failing children get words,
    each by ``_grow``: one OR per class with a constant of the ``high``,
    for every high in [0, m^(k-1)).  ``rule`` says how a child is decided
    (``_Rule``).

    Below the high ``switch``, a child's class score is the parent's or,
    when larger, ``through(rows, nbrs, score)`` on the parent's class rows
    (the word's k-1 bytes): one more for a clique in the new vertex's class
    neighbours, or the longest path or cycle through the new vertex; scoring
    stops once the child passes.  A clique class whose neighbours are all
    k-1 parent vertices (``_spans``) goes up by one with no kernel call: its
    score is the parent's class clique number, and any of its largest
    cliques grows by the new vertex.  Once the level is read on past a
    child yielded there, ``switch`` drops to the next high: a search reads
    a level's first code for its size, then extends the whole level for the
    next size, which pays for tables as an inner level does.

    At the high ``switch`` each parent's ``_table`` is built on its visit,
    one parent at a time, from the end sets ``ends`` finds in its class
    rows: each child is one bit test, and a failing child's scores are read
    off the same table (``_ups``).  A parent with failing children ahead is
    listed (by its index in the level) under its next failing high;
    visiting it there lists it under the one after.  So a high visits just
    its listed parents, sorted back into level order, and a level that the
    next one reads only partly lists no parent beyond the highs it reaches."""
    fails, through, spans, ends, passing = rule
    v = k - 1
    highs = range(m ** v)
    base = m ** pair_count(v)
    new = 1 << v
    tables = {}  # parent index -> (failing, index, children), while children lie ahead
    listed = []  # per high, the parents whose next failing child is there
    for high in highs:
        if high > switch and not listed[high]:
            continue
        nbrs, joins = [0] * m, [0] * m
        h = high
        for u in range(v):
            h, d = divmod(h, m)
            nbrs[d] |= 1 << u
            joins[d] |= new << 8 * u
        joins = [j | nb << 8 * v for j, nb in zip(joins, nbrs)]
        offset = high * base
        if high < switch:
            full = [spans and _spans(nb, v) for nb in nbrs]
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
                    switch = min(switch, high + 1)
        elif high == switch:  # each parent's table is built on this visit
            within = _within(v, m)
            listed = [array("I") for _ in highs]
            for p, (low, per, words) in enumerate(parents):
                f, levels = _table([w.to_bytes(v, "little") for w in words], per, ends,
                                   passing, within)
                f = f >> high << high
                if not f:
                    continue
                index, children = _ups(per, levels, len(highs))
                if f >> high & 1:
                    yield low + offset, children[index[high]], _grow(words, joins)
                after = f >> high + 1
                if after:
                    tables[p] = f, index, children
                    listed[high + (after & -after).bit_length()].append(p)
        else:
            for p in sorted(listed[high]):
                f, index, children = tables[p]
                low, words = parents.entry(p)
                yield low + offset, children[index[high]], _grow(words, joins)
                after = f >> high + 1
                if after:
                    listed[high + (after & -after).bit_length()].append(p)
                else:
                    del tables[p]
            listed[high] = None


def _ups(per, levels, n: int) -> tuple:
    """(index, children): the child at high h < n has the class scores
    ``children[index[h]]``.  ``children`` lists every score vector a child
    can have (``_children``); index[h] is the child's increments in mixed
    radix, class d's count of ``levels[d]`` holding bit h times the product
    of len(levels[e]) + 1 over the classes e < d.  Each level's bits are
    spread one to a byte through their binary digits; an index too large
    for one byte per high is summed per high instead."""
    digits, zero = f"0{n}b", int.from_bytes(b"0" * n, "big")
    counts, strides, stride = [], [], 1
    for reach in levels:
        count = -len(reach) * zero
        for level in reach:
            count += int.from_bytes(format(level, digits).encode(), "big")
        counts.append(count)
        strides.append(stride)
        stride *= len(reach) + 1
    if stride <= 256:
        index = sum(map(mul, counts, strides)).to_bytes(n, "little")
    else:
        index = [sum(map(mul, column, strides))
                 for column in zip(*(count.to_bytes(n, "little") for count in counts))]
    return index, _children(bytes(per), bytes(map(len, levels)))


@cache
def _children(per: bytes, rises: bytes) -> tuple[bytes, ...]:
    """Every class-score vector a child can have, ``per`` plus up to
    ``rises[d]`` in class d, listed in ``_ups``'s mixed radix (class 0's
    increment varies fastest)."""
    return tuple(bytes(map(add, per, reversed(ups)))
                 for ups in product(*(range(r + 1) for r in reversed(rises))))


def _grow(words, joins) -> list[int]:
    """Each class's word with the new vertex added: one OR per class.
    ``joins[d]`` carries the new vertex's bit in the byte of each class-d
    neighbour and the new vertex's own class-d row in its top byte."""
    return list(map(or_, words, joins))


@cache
def _passing(per: bytes, rises: bytes, j: int, target: int) -> tuple:
    """The least increments of the class scores ``per``, up to ``rises[d]``
    in class d, that make a child pass (its j best class scores sum to
    ``target`` or more), each as its (class, increment - 1) pairs: a child
    passes exactly when its increments reach one of them.  Increments are
    visited in mixed-radix order, so each one-down neighbour comes first."""
    strides, size = [], 1
    for r in reversed(rises):
        strides.insert(0, size)
        size *= r + 1
    passes, least = [], []
    for ups in product(*(range(r + 1) for r in rises)):
        ok = sum(sorted(map(add, per, ups), reverse=True)[:j]) >= target
        if ok and not any(passes[len(passes) - s] for s, u in zip(strides, ups) if u):
            least.append(tuple((d, u - 1) for d, u in enumerate(ups) if u))
        passes.append(ok)
    return tuple(least)


@cache
def _subsets(v: int) -> tuple[list[int], list[int]]:
    """Sets of v parent vertices are indices in [0, 2^v): ``inside[x]`` is
    the sets inside x, ``sized[s]`` those of s vertices, as index bits."""
    inside, sized = [1] * (1 << v), [0] * (v + 1)
    for c in range(1 << v):
        sized[c.bit_count()] |= 1 << c
        if c:
            low = c & -c
            inside[c] = inside[c ^ low] | inside[c ^ low] << low
    return inside, sized


@cache
def _within(v: int, m: int) -> list[list[int]]:
    """``within[d][c]`` is the highs h < m^v whose digit u is d for every u
    in the set c of parent vertices (an index in [0, 2^v)): the new vertices
    whose class-d neighbourhood holds c."""
    every = (1 << m ** v) - 1
    within = []
    for d in range(m):
        # digit u is d on a run of m^u highs in every m^(u+1)
        digit = [((1 << m ** u) - 1 << d * m ** u) * every // ((1 << m ** (u + 1)) - 1)
                 for u in range(v)]
        w = [every] * (1 << v)
        for c in range(1, 1 << v):
            low = c & -c
            w[c] = w[c ^ low] & digit[low.bit_length() - 1]
        within.append(w)
    return within


def _cliques(rows, per, within) -> list[list[int]]:
    """Where a new vertex lifts the clique classes with clique numbers
    ``per``: class d to per[d] + 1 when its class-d neighbourhood holds a
    per[d]-clique, so the one level of class d is the OR of ``within[d][c]``
    over those cliques c (set indices)."""
    inside, sized = _subsets(len(rows[0]))
    levels = []
    for r, s, lift in zip(rows, per, within):
        cliques = 1  # the cliques on vertices below u, as a set of index bits
        for u, row in enumerate(r):
            cliques |= (cliques & inside[row]) << (1 << u)
        cliques &= sized[s]
        gain = 0
        while cliques:
            low = cliques & -cliques
            gain |= lift[low.bit_length() - 1]
            cliques ^= low
        levels.append([gain])
    return levels


def _table(rows, per, ends, passing, within) -> tuple[int, list[list[int]]]:
    """A failing parent's children at every high: (failing, levels).
    ``levels = ends(rows, per, within)``: entry i of ``levels[d]`` is the
    highs whose class-d score is at least per[d] + 1 + i, the OR of
    ``within[d][c]`` over the end sets c of those scores, the sets of parent
    vertices in the new vertex's class-d neighbourhood that lift the score
    that far.  Bit ``high`` of ``failing`` says the child still fails: its
    increments reach none of ``passing(per, rises)``."""
    levels = ends(rows, per, within)
    up = 0
    for need in passing(per, bytes(map(len, levels))):
        all_up = -1
        for d, i in need:
            all_up &= levels[d][i]
        up |= all_up
    return within[0][0] & ~up, levels


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
    top: Optional[int] = None   # best class scores counted; None: j, or all m classes
    size_key: str = "n_vertices"
    scan: Callable = _labeled_scan  # (first, m, top, score, target) -> least failing codes

    def count(self, size: int, m: int) -> int:
        """All instances of one size: m^pairs, or m^length for intervals."""
        return m ** (size if self.size_key == "length" else pair_count(size))

    def params(self, target: int, size: int, m: int, j: int, score: str,
               prune: bool) -> dict:
        """Validated certificate parameters of one check."""
        if any(type(x) is not int for x in (target, size, m, j)) or min(target, size) < 1:
            raise ValueError("target and size must be positive ints, m and j ints")
        if m not in self.colors:
            raise ValueError(f"{self.name} takes {self.colors[0]}..{self.colors[-1]}"
                             f" colours, not {m}")
        if prune and self.pruned is None:
            raise ValueError(f"{self.name} has no symmetry pruning")
        if "j" in self.keys and not 1 <= j <= m:
            raise ValueError(f"j={j} outside 1..{m}")
        p = {"mode": self.name, "target": target, self.size_key: size,
             **_keys(self, m, j, score)}
        if prune:
            p["pruned"] = True
        return p


def _keys(mode: Mode, m: int, j: int, score: str) -> dict:
    given = {"m": m, "j": j, "score": ScoreKind(score).value}
    return {k: given[k] for k in mode.keys}


def _graph_row(name, value, bound, top=None) -> Mode:
    return Mode(name, (), range(2, 3), exact.DEFAULT_GRAPH_BUDGET, "witness_graph6",
                lambda n, m, code: Graph.from_code(n, code), write_graph6,
                lambda text, m: parse_graph6(text), value, bound,
                lambda n, m: max(1, 2 ** pair_count(n) // 2), top)


def _coloring_row(name, keys, value, bound=lambda target, m: None) -> Mode:
    return Mode(name, keys, range(2, MAX_COLORS + 1), exact.DEFAULT_COLORING_BUDGET,
                "witness_coloring", EdgeColoring.from_code, EdgeColoring.to_text,
                EdgeColoring.from_text, value, bound)


MODES = {mode.name: mode for mode in (
    _graph_row("rprime", lambda g, p: exact.pair_sum_value(g),
               lambda t, m: exact.pair_sum_bound(t) if t >= 2 else None),
    _graph_row("ramsey",
               lambda g, p: max(exact.clique_number(g), exact.independence_number(g)),
               lambda t, m: exact.two_color_ramsey_bound(t) if t >= 2 else None,
               top=1),
    _coloring_row("rprime_m", ("m",), lambda c, p: exact.family_sum_value(c),
                  lambda t, m: exact.family_sum_bound(m, t - m) if t >= m else None),
    _coloring_row("score", ("score", "j", "m"),
                  lambda c, p: scores.score_sum(c, p["score"], p["j"])[0]),
    Mode("wprime", ("m",), range(1, MAX_COLORS + 1),
         vdw.DEFAULT_INTERVAL_BUDGET, "witness_coloring",
         lambda length, m, code: vdw.IntervalColoring.from_code(m, length, code),
         vdw.IntervalColoring.to_text, vdw.IntervalColoring.from_text,
         lambda c, p: vdw.ap_sum(c)[0], size_key="length",
         scan=lambda first, m, top, score, target: vdw._least_failing(m, first, target, False)),
)}


# --- check and search --------------------------------------------------------


def check(name: str, target: int, size: int, m: int = 2, j: int = 1,
          score: str = "clique", budget: Optional[int] = None,
          prune: bool = False) -> CheckOutcome:
    """Does every instance of ``size`` reach ``target``?  Raises BudgetError
    when all m^pairs (or m^length) instances exceed the budget."""
    mode = MODES[name]
    return _check(mode, mode.params(target, size, m, j, score, prune), budget)


def _check(mode: Mode, params: dict, budget: Optional[int]) -> CheckOutcome:
    """Admit, run and emit the scan of validated ``params``: the one path of
    ``check`` and of a deep ``revalidate``."""
    _admit(mode, params, budget)
    found = next(_scan(mode, params))
    return CheckOutcome(found is None, emit(mode, params, found))


def _admit(mode: Mode, params: dict, budget: Optional[int]) -> None:
    size = params[mode.size_key]
    admit(mode.count(size, params.get("m", 2)), budget, mode.budget,
          f"{mode.name} check at {mode.size_key}={size}")


def _scan(mode: Mode, params: dict) -> Iterator[Optional[int]]:
    """The mode's scan from the size of ``params`` upward: the least failing
    code at each size, then None where none fails."""
    m = params.get("m", 2)
    return mode.scan(params[mode.size_key], m, mode.top or params.get("j", m),
                     params.get("score", ScoreKind.CLIQUE.value), params["target"])


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
    at size - 1 and an exhaustive certificate at the size.  One scan serves
    every probe: probe n validates its parameters and is admitted as a
    ``check`` at n would be, and only then reads the scan's code at n, so a
    refused probe scans nothing.  When one is refused as over the budget,
    raises UndecidedError with the bracket."""
    mode = MODES[name]
    result = {"kind": name, "target": target, **_keys(mode, m, j, score)}
    scan: Optional[Iterator[Optional[int]]] = None
    last_fail: Optional[tuple[dict, int]] = None  # (params, code) of the last failing size
    lower = lambda: last_fail and emit(mode, *last_fail)
    for size in count(1):
        params = mode.params(target, size, m, j, score, prune)
        try:
            _admit(mode, params, budget)
        except BudgetError:
            raise UndecidedError(name, result, size, mode.bound(target, m),
                                 lower=lower()) from None
        scan = scan or _scan(mode, params)
        found = next(scan)
        if found is None:
            return SearchResult(name, result, size, lower=lower(),
                                upper=emit(mode, params))
        last_fail = params, found
