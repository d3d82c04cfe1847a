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

Labeled scans (every mode but the interval rows) extend failing codes one
vertex at a time, and keep their levels from one size to the next.  Every
labeled predicate is hereditary: a class's clique number, path or cycle
score cannot grow when a vertex is dropped, and the first k-1 vertices of a
code on k vertices are the code ``low = code mod m^pairs(k-1)``.  So a code
fails only if ``low`` fails, and the failing codes on k vertices are
exactly the failing ``low + high * m^pairs(k-1)``, where ``high``'s base-m
digit u colours the pair (u, k-1).  Each code carries its class rows as one
word per class, byte u being row u: a child's word is its parent's OR one
constant per ``high``, so the replay for every ``high`` decodes nothing and
a kernel reads a word's bytes.

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
built on its visit at a switch high; the parent is then listed under its
next failing high only, and a high visits just the parents listed under
it.  Before the switch, each child is scored by ``_has_clique`` or
``_through`` on the new vertex, except a clique class whose new
neighbourhood is the whole parent: its clique number goes up by one, so at
high 0 (every digit 0) a clique child costs no kernel call.

Every predicate is invariant under permuting the m colours, so the scan
stores one code per colour orbit: a code is normal when its digits, read
from pair (0, 1) up, use colours in first-use order (Read, "Every one a
winner", 1978; McKay, "Isomorph-free exhaustive generation", 1998).  The
parent of a normal code is normal, so the normal level on k vertices is the
normal failing children of the normal level on k-1, tabled from high 0, on
up to m! times fewer codes than the failing codes it stands for.  A size
still reads its least failing code, so the bytes of a witness do not
depend on this: size k reads the children, in ascending code order, of a
``_View`` of the failing codes on k-1 vertices.  The view starts with the
children at high 0 of the view below, read lazily as far as the next size
needs them, and goes on with the colour images of the normal level's codes,
sorted, which need that normal level in full.  A size whose children of the
view's first codes pass is then decided on that normal level before any
image is read: a labeled code fails exactly when its normal image does, so
``_fails`` tables the normal codes on k-1 vertices one at a time, at every
high that keeps first-use order, up to the first with a failing child.  If
none has one, size k passes with no labeled code read past the first
codes; else the read goes on to its least failing code.  A failing size
whose witness is a child of the view's first codes therefore stores no
level of its own size, and a size that passes builds each normal level
below it once and tables the one on k-1 vertices once more.  At high 0 a
clique child's scores are its parent's with the class holding colour 0 one
up, so a clique view chooses its images' children there by score class,
one verdict per distinct score vector and class, selected in C; its first
codes, and every path or cycle view, are read one entry at a time.  The
certificate still accounts for all m^pairs instances; ``prune``, on the
two graph modes only, changes just that recorded count, to the complement
pairs of graphs.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, count, groupby, permutations, product, repeat, tee
from operator import add, and_, getitem, mul, or_, sub
from typing import Any, Callable, Iterator, NamedTuple, Optional

from . import exact, scores, vdw
from .certificates import (EXHAUSTIVE, WITNESS, SearchCertificate,
                           SearchResult, UndecidedError)
from .exact import CheckOutcome, _has_clique
from .graphs import (MAX_COLORS, BudgetError, EdgeColoring, Graph, admit,
                     pair_count, parse_graph6, write_graph6)
from .scores import ScoreKind, _through


# --- the registry ------------------------------------------------------------

# The high from which a read (a size's children of the labeled level below,
# up to its first failing code) and the children at high 0 that each labeled
# level starts with decide children by parent tables (``_extend``); normal
# levels are read to the end, so they table every parent from high 0.  For
# cliques a table costs about three kernel visits of its parent (m = 2,
# parents on 6 vertices: 5.1 us, and 3 us more for ``_ups`` when the parent
# has failing children, against 1.9 us for a visit at high 1, 2 or 3), and a
# visit at high 0 calls no kernel (class 0 spans the parent).
_TABLE_SWITCH = 4
# The same for path and cycle scans.  A table there costs a few kernel
# visits too (the pair walks of ``scores._ends``), but a visit at high 0
# needs the kernel on class 0 alone, and a read that stops early reads
# mostly high-0 children: with tables from high 0, checks whose witness is a
# low code ran 3 to 7 times slower than with the kernel at high 0 (cycle
# m=2 j=2 t=7 on 7 vertices: 50 against 14 ms; path m=2 j=1 t=6 on 7
# vertices: 114 against 14 ms).
_PAIR_SWITCH = 1
# The images a view sorts and reads at a time: enough that the Python work per
# batch is small beside the C-level maps and sorts, few enough that a view of
# a million images (``rprime_m`` m=3 on 6 vertices) holds no large temporary list.
_BATCH = 4096


def _labeled_scan(first, m, top, score, target) -> Iterator[Optional[int]]:
    """Least failing code on n vertices for n = first, first + 1, ..., and
    then None at the first n where no code fails.

    A code is split into its m colour classes; it fails while its ``top``
    best class scores sum below ``target`` (top = 1: no class reaches it).
    Size n reads the children of ``labeled``, the view of the failing codes
    on n-1 vertices, in ascending code order up to the first failing one.
    Its children at high 0 (by score class for a clique view's images,
    ``_View.spanned``, one entry at a time otherwise) are shared with the
    view that size n+1 reads, which stores them only when it is read.  When
    none of the children at high 0 of the view's first codes fails, size n
    is decided on ``normal``, the normal level (one code per colour orbit)
    on n-1 vertices: if no code there has a failing child (``_fails``), n
    passes and nothing more is read.  Normal levels are built in full from
    high 0 and only once a read gets past its view's first codes; reads
    table from ``switch``."""
    rule, switch = _rule(m, top, score, target)
    # the empty graph fails every target
    normal = labeled = _Level(m, iter([(0, bytes(m), [0] * m, 0)]))
    zero = [1] * (m + 1)
    for n in count(1):  # the children at high 0: the view's first codes', then its images'
        if not isinstance(labeled, _View):
            head, tail = _extend(labeled, n, m, rule, switch, zero), iter(())
        else:  # by score class for a clique view's images
            head = _extend(labeled.prefix, n, m, rule, switch, zero)
            tail = (labeled.spanned(rule) if rule.spans
                    else _extend(labeled.images(), n, m, rule, switch, zero))
        if n >= first:  # the read shares them, and goes on as far as it must
            read, head = tee(head)
            found = next(read, None)  # the children of the view's first codes
            if found is None and _fails(normal, n - 1, m, rule):  # the rest, if n fails
                read, tail = tee(tail)
                rest = [(1 << m ** (n - 1)) - 2] * (m + 1)
                found = next(chain(read, _extend(labeled, n, m, rule, switch, rest)), None)
            yield None if found is None else found[0]
            if found is None:
                return
        normal = _Level(m, _extend(normal, n, m, rule, 0, _first_use(n - 1, m)))
        labeled = _View(_Level(m, chain(head, tail)), normal, n)


def _fails(level: _Level, v: int, m: int, rule: _Rule) -> bool:
    """Has a code of the normal ``level`` on v vertices a failing child?
    Some code on v + 1 vertices fails exactly when a normal one (its colour
    image) does, and a normal failing code is a failing child of a normal
    code on v vertices at a high that keeps first-use order (``_first_use``).
    So this decides size v + 1: it tables the level one parent at a time, up
    to the first parent with a failing child."""
    keep, within = _first_use(v, m), _within(v, m)
    return any(_table([w.to_bytes(v, "little") for w in words], per, rule.ends,
                      rule.passing, within)[0] & keep[m - words.count(0)]
               for _, per, words, _ in level)


def _rule(m: int, top: int, score: str, target: int) -> tuple[_Rule, int]:
    """The ``_Rule`` of a scan and the high its reads table from."""
    if top == 1:
        fails = lambda per: max(per) < target
    elif top == m:
        fails = lambda per: sum(per) < target
    else:
        fails = lambda per: sum(sorted(per, reverse=True)[:top]) < target
    kind = ScoreKind(score)
    if kind is ScoreKind.CLIQUE:
        through = lambda rows, nbrs, s: s + _has_clique(rows, nbrs, s)
        ends, switch = _cliques, _TABLE_SWITCH
    else:  # capped: a class that reaches the target makes the child pass
        cycle = kind is ScoreKind.CYCLE
        through = lambda rows, nbrs, s: _through(rows, nbrs, target, cycle)
        ends = lambda rows, per, within: [scores._ends(r, s, target, cycle, lift)
                                          for r, s, lift in zip(rows, per, within)]
        switch = _PAIR_SWITCH
    return _Rule(fails, through, kind is ScoreKind.CLIQUE, ends,
                 lambda per, rises: _passing(bytes(per), rises, top, target)), switch


class _Rule(NamedTuple):
    """How a labeled scan decides a failing parent's children."""

    fails: Callable     # class scores -> does the code still fail?
    through: Callable   # (rows, nbrs, score) -> a child's class score, below the switch
    spans: bool         # a class joined to the whole parent goes one up (cliques)
    ends: Callable      # (rows, scores, within) -> each class's levels (``_table``)
    passing: Callable   # (scores, rises) -> the least passing increments (``_passing``)


class _Level:
    """Replayable failing codes on k vertices with their class scores, class
    rows and colour maps.  Iterating replays the entries stored so far,
    then pulls more from ``source`` and stores them compactly: codes in an
    array, m score bytes each, m words each in one array("Q"), the word of
    class d holding row u of that class in byte u, and a map index g each:
    class d of the entry holds colour ``_colour_maps(m)[g][d]`` (0 in a
    normal level).  Iterators may interleave: one that resumes after others
    stored entries yields those first, so none ends short.  A stored level
    has at most 8 vertices, because a level is stored only as the next size
    reads it and ``ENUMERATION_CAP`` stops every scan at 9 vertices (m = 2),
    so the k rows fit in 64 bits; lifting the cap means widening the word."""

    def __init__(self, m: int, source: Iterator[tuple]):
        self.m, self.source, self.complete = m, source, False
        self.codes, self.scores, self.words = array("Q"), bytearray(), array("Q")
        self.maps = array("H")

    def __iter__(self) -> Iterator[tuple]:
        m, codes, scores, words, maps = self.m, self.codes, self.scores, self.words, self.maps
        for i, code in enumerate(codes):
            yield code, scores[i * m:i * m + m], words[i * m:i * m + m], maps[i]
        done = len(codes)  # the entries this iterator has yielded
        codes_, per_, words_, maps_ = codes.append, scores.extend, words.extend, maps.append
        for entry in self.source:
            code, per, grown, g = entry
            codes_(code)
            per_(per)
            words_(grown)
            maps_(g)
            if len(codes) == done + 1:
                done += 1
                yield entry
            else:  # another iterator stored entries while this one waited: those first
                yield from self._after(done)
                done = len(codes)
        yield from self._after(done)  # and those stored after this one's last pull
        self.complete = True

    def _after(self, i: int) -> Iterator[tuple]:
        """The stored entries from index i on, with any stored meanwhile."""
        m = self.m
        while i < len(self.codes):
            yield (self.codes[i], self.scores[i * m:i * m + m], self.words[i * m:i * m + m],
                   self.maps[i])
            i += 1


class _View:
    """The failing codes on k vertices, ascending, as the next size reads
    them: first ``prefix``, the children at high 0 of the view below, then
    every colour image with a nonzero top high of the codes of the normal
    ``level`` on k.  The image of a normal code under colour map g is the
    same code with class d coloured ``_colour_maps(m)[g][d]``, so it keeps
    the normal code's scores and words and is stored as its code, g, and the
    normal code's index in ``level``: a few thousand at a time, sorted, as
    far as the view is read.  ``level`` is completed when the first image is
    read.  In a clique scan the images' children at high 0 are chosen by
    score class (``spanned``); other scans read them one entry at a time."""

    def __init__(self, prefix: _Level, level: _Level, k: int):
        self.prefix, self.level, self.k, self.m = prefix, level, k, level.m
        # per image: its code, its colour map's index and its normal code's index
        self.codes, self.maps, self.at = array("Q"), array("H"), array("I")
        self.blocks: Any = None  # per top high, the runs sent there; () once all are stored
        self.by_map: dict[int, array] = {}  # per colour map, every normal code's image

    def __iter__(self) -> Iterator[tuple]:
        return chain(self.prefix, self.images())

    def images(self) -> Iterator[tuple]:
        """The view past ``prefix``: the colour images, ascending."""
        m, scores, words = self.m, self.level.scores, self.level.words
        for i, end in self._runs():
            for code, g, a in zip(self.codes[i:end], self.maps[i:end],
                                  map(m.__mul__, self.at[i:end])):
                yield code, scores[a:a + m], words[a:a + m], g

    def _runs(self) -> Iterator[tuple[int, int]]:
        """The images as (first, end) runs, storing more as far as they are
        read: slices copy, so a few thousand at a time."""
        i, codes = 0, self.codes
        while i < len(codes) or self.blocks != () and self._fill():
            end = min(len(codes), i + _BATCH)
            yield i, end
            i = end

    def spanned(self, rule: _Rule) -> Iterator[tuple]:
        """The failing children at high 0 of the images, as ``_extend``
        yields them, in a clique scan: a child's scores are its parent's with
        the class holding colour 0 one up (``_spans``), so each distinct
        score vector a run reaches is decided once per class, the run is
        selected in C, and only the failing children are built."""
        m, scores, words, maps = self.m, self.level.scores, self.level.words, _colour_maps(self.m)
        up = [sigma.index(0) for sigma in maps]  # per colour map, the class holding colour 0
        bit = [1 << d for d in up]
        joins = _joins(0, self.k, m)[1]
        joins = [[joins[e] for e in sigma] for sigma in maps]
        keys, bits = None, {}  # packed scores per normal code; failing classes per packed scores
        for i, end in self._runs():
            if keys is None:
                keys = self._keys()  # the level is complete now
            gs, at = self.maps[i:end], self.at[i:end]
            run = list(map(keys.__getitem__, at))
            for key in set(run).difference(bits):
                per = key.to_bytes(keys.itemsize, sys.byteorder)[:m]
                bits[key] = sum(rule.fails(per[:d] + bytes([per[d] + 1]) + per[d + 1:]) << d
                                for d in range(m))
            for code, g, a in compress(zip(self.codes[i:end], gs, at), map(
                    and_, map(bits.__getitem__, run), map(bit.__getitem__, gs))):
                a *= m
                child = scores[a:a + m]
                child[up[g]] += 1
                yield code, child, _grow(words[a:a + m], joins[g]), g

    def _keys(self) -> memoryview:
        """Each normal code's class scores packed into one int, class d in
        byte d, built in C with no object per code."""
        m, scores = self.m, self.level.scores
        size = (m - 1).bit_length()  # a 1-, 2-, 4- or 8-byte int per code
        width = 1 << size
        packed = bytearray(width * (len(scores) // m))
        for d in range(m):
            packed[d::width] = scores[d::m]
        return memoryview(packed).cast("BHIQ"[size])

    def _fill(self) -> bool:
        """Store the images under the next top highs, a few thousand at a
        time; False when none is left."""
        if self.blocks is None:
            self._index()
        least, images, at, gs = _least_used(self.m), [], [], []
        for _, blocks in self.blocks:
            for g, start, end in blocks:
                used = self.words[least[g] - 1][start:end] if least[g] else None
                if used is None or all(used):
                    images += self._images(g)[start:end]
                    at += range(start, end)
                else:  # only the codes using colour least - 1 have this image
                    codes = list(compress(range(start, end), used))
                    images += map(self._images(g).__getitem__, codes)
                    at += codes
                gs += repeat(g, len(at) - len(gs))
            if len(images) >= _BATCH:
                break
        if not images:
            self.blocks = ()  # every image is stored
            return False
        order = sorted(range(len(images)), key=images.__getitem__)
        codes = array("Q", map(images.__getitem__, order))
        cut = bisect_left(codes, self.base)
        if cut:
            codes, order = codes[cut:], order[cut:]
        self.codes += codes
        self.maps += array("H", map(gs.__getitem__, order))
        self.at += array("I", map(at.__getitem__, order))
        return True

    def _images(self, g: int) -> array:
        """The image of every normal code under colour map g."""
        if g not in self.by_map:
            terms = [ds if t == 1 else map(t.__mul__, ds)
                     for t, ds in zip(_colour_maps(self.m)[g], self.digits) if t]
            self.by_map[g] = array("Q", terms[0] if len(terms) == 1 else map(sum, zip(*terms)))
        return self.by_map[g]

    def _index(self) -> None:
        """Complete the normal level and list, per top high, the runs of
        normal codes (one top high each) and colour maps that send them there:
        all as one batch when one sort can take every image."""
        level, k, m = self.level, self.k, self.m
        if not level.complete:
            deque(level, 0)
        # a normal code uses colours 0..u-1, those with a nonzero word
        self.words = [level.words[d::m] for d in range(m)]
        # digits[d] has base-m digit p 1 where pair p has colour d: a code is
        # the sum of d * digits[d], and its image under sigma the sum of sigma[d] * digits[d]
        upper = [array("Q", map(_pair_digits(k, m), w)) for w in self.words[2:]]
        one = level.codes
        for d, ds in enumerate(upper, 2):
            one = array("Q", map(sub, one, map(d.__mul__, ds)))
        zero = array("Q", [(m ** pair_count(k) - 1) // (m - 1)]) * len(one)
        for ds in [one] + upper:
            zero = array("Q", map(sub, zero, ds))
        self.digits = [zero, one] + upper
        self.base = base = m ** pair_count(k - 1)  # the prefix holds the codes below
        maps = _relabellings(m, sum(map(any, self.words)))
        if len(level.codes) * len(maps) <= _BATCH:  # one sort takes every image
            self.blocks = iter([(0, [(g, 0, len(level.codes)) for g in maps])])
            return
        blocks = {}  # top high -> (colour map, first, end) per run of normal codes sent there
        start = 0
        for _, run in groupby(map(base.__rfloordiv__, level.codes)):
            end = start + sum(1 for _ in run)
            for g in _relabellings(m, sum(map(any, [w[start:end] for w in self.words]))):
                top = self._images(g)[start] // base
                if top:
                    blocks.setdefault(top, []).append((g, start, end))
            start = end
        self.blocks = iter(sorted(blocks.items()))


@cache
def _colour_maps(m: int) -> list[tuple[int, ...]]:
    """Every permutation of the m colours, identity first: an entry's map
    index g says its class d holds colour ``_colour_maps(m)[g][d]``."""
    return list(permutations(range(m)))


@cache
def _least_used(m: int) -> list[int]:
    """Per colour map, the fewest colours u a normal code must use for the
    map to give one of its images: the map is increasing on [u, m), so it
    sends the unused colours to the colours left over in order."""
    least = []
    for sigma in _colour_maps(m):
        u = m - 1
        while u and sigma[u - 1] < sigma[u]:
            u -= 1
        least.append(u)
    return least


@cache
def _relabellings(m: int, used: int) -> list[int]:
    """The colour maps that give the images of a normal code using colours
    0..used-1, one map per image."""
    return [g for g, u in enumerate(_least_used(m)) if u <= used]


@cache
def _first_use(v: int, m: int) -> list[int]:
    """``keep[u]`` is the highs h < m^v that continue first-use order after a
    parent whose colours are 0..u-1: each digit of h, from u = 0 up, is at
    most one above every colour used before it."""
    keep = [0] * (m + 1)
    for high in range(m ** v):
        need, top, h = 0, -1, high  # need: the fewest colours a parent must use
        for _ in range(v):
            h, d = divmod(h, m)
            if d > top + 1:
                need = max(need, d)
            top = max(top, d)
        for u in range(need, m + 1):
            keep[u] |= 1 << high
    return keep


@cache
def _pair_digits(k: int, m: int) -> Callable[[int], int]:
    """Class word -> the number whose base-m digit p is 1 where the class
    holds pair p, on k vertices: row u's bits below u are the pairs (i, u)."""
    rows = [[sum(m ** (pair_count(u) + i) for i in range(u) if x >> i & 1)
             for x in range(256)] for u in range(k)]
    return lambda word: sum(map(getitem, rows, word.to_bytes(k, "little")))


def _spans(nbrs: int, v: int) -> bool:
    """Is the new vertex joined to all v parent vertices in one class?  Then
    the class's clique number goes up by one, with no kernel call."""
    return nbrs == (1 << v) - 1


@cache
def _joins(high: int, v: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(nbrs, joins) of a new vertex after v parent vertices at ``high``:
    ``nbrs[d]`` is the set of its colour-d neighbours, and ``joins[d]`` what
    ``_grow`` ORs into the colour-d word."""
    nbrs, joins = [0] * m, [0] * m
    for u in range(v):
        high, d = divmod(high, m)
        nbrs[d] |= 1 << u
        joins[d] |= 1 << v << 8 * u
    return tuple(nbrs), tuple(j | nb << 8 * v for j, nb in zip(joins, nbrs))


def _extend(parents, k: int, m: int, rule, switch: int,
            keep: list[int]) -> Iterator[tuple[int, bytes, list]]:
    """Failing codes on k vertices, with their class scores, class words and
    colour maps: ``low + high * m^pairs(k-1)`` with ``low`` a failing parent
    and ``high``'s digit u the colour of the pair (u, k-1), ascending if the
    parents are.  Every predicate is hereditary, so no other code fails.
    Only failing children get words, each by ``_grow``: one OR per class
    with a constant of the ``high``.  ``rule`` says how a child is decided
    (``_Rule``).  ``keep[u]`` is the highs kept over a parent using u
    colours (its nonzero class words): ``_first_use`` for a normal level,
    the same mask for every u in a view's children.  A parent's class d
    holds colour sigma[d] (sigma its colour map), so it reads the new
    vertex's colour-sigma[d] neighbours, and its children keep its map.

    Below the high ``switch``, a child's class score is the parent's or,
    when larger, ``through(rows, nbrs, score)`` on the parent's class rows
    (the word's k-1 bytes): one more for a clique in the new vertex's class
    neighbours, or the longest path or cycle through the new vertex; scoring
    stops once the child passes.  A clique class whose neighbours are all
    k-1 parent vertices (``_spans``) goes up by one with no kernel call: its
    score is the parent's class clique number, and any of its largest
    cliques grows by the new vertex.  Past the first vertex, a class with no
    new neighbour keeps its score, also with no kernel call.

    At the high ``switch`` each parent's ``_table`` is built on its visit,
    one parent at a time, from the end sets ``ends`` finds in its class
    rows: each child is one bit test, and a failing child's scores are read
    off the same table (``_ups``).  A parent with failing children ahead is
    listed (by its index in the level) under its next failing high;
    visiting it there lists it under the one after.  So a high visits just
    its listed parents, sorted back into level order, and a level that the
    next one reads only partly lists no parent beyond the highs it reaches."""
    fails, through, spans, ends, passing = rule
    maps = _colour_maps(m)
    v = k - 1
    highs = range(max(keep).bit_length())
    base = m ** pair_count(v)
    tables = {}  # parent index -> (failing, index, children, low, words, map), while
    # children lie ahead
    listed = []  # per high, the parents whose next failing child is there
    # a parent with colour map g reads its class d as colour sigma[d] of the high
    turn = lambda g, *rows: [[row[e] for e in maps[g]] for row in rows]
    for high in highs:
        if high > switch and not listed[high]:
            continue
        nbrs, joins = _joins(high, v, m)
        offset = high * base
        if high < switch:
            full = [spans and _spans(nb, v) for nb in nbrs]
            # the fewest colours a parent must use to keep this high
            need = next((u for u in range(m + 1) if keep[u] >> high & 1), None)
            if need is None:
                continue
            turns = {0: (full, nbrs, joins, range(m))}
            for low, per, words, g in parents:
                if need and not words[need - 1]:
                    continue
                full_g, nbrs_g, joins_g, order = turns.get(g) or turns.setdefault(
                    g, (*turn(g, full, nbrs, joins), sorted(range(m), key=maps[g].__getitem__)))
                child = bytearray(per)
                for d in order:  # in colour order
                    s = per[d]
                    if full_g[d]:
                        score = s + 1
                    elif nbrs_g[d] or not v:
                        score = through(words[d].to_bytes(v, "little"), nbrs_g[d], s)
                    else:  # past the first vertex, one with no class neighbour lifts nothing
                        continue
                    if score > s:
                        child[d] = score
                        if not fails(child):
                            break
                else:
                    yield low + offset, child, _grow(words, joins_g), g
        elif high == switch:  # each parent's table is built on this visit
            turns = {0: (_within(v, m), joins)}
            listed = [array("I") for _ in highs]
            for p, (low, per, words, g) in enumerate(parents):
                within, joins_g = turns.get(g) or turns.setdefault(
                    g, turn(g, _within(v, m), joins))
                f, levels = _table([w.to_bytes(v, "little") for w in words], per, ends,
                                   passing, within)
                f = f >> high << high & keep[m - words.count(0)]
                if not f:
                    continue
                index, children = _ups(per, levels, m ** v)
                if f >> high & 1:
                    yield low + offset, children[index[high]], _grow(words, joins_g), g
                after = f >> high + 1
                if after:
                    tables[p] = f, index, children, low, words, g
                    listed[high + (after & -after).bit_length()].append(p)
        else:
            turns = {0: joins}
            for p in sorted(listed[high]):
                f, index, children, low, words, g = tables[p]
                joins_g = turns.get(g) or turns.setdefault(g, turn(g, joins)[0])
                yield low + offset, children[index[high]], _grow(words, joins_g), g
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


def _interval_row(name, value, top=None) -> Mode:
    return Mode(name, ("m",), range(1, MAX_COLORS + 1), vdw.DEFAULT_INTERVAL_BUDGET,
                "witness_coloring",
                lambda length, m, code: vdw.IntervalColoring.from_code(m, length, code),
                vdw.IntervalColoring.to_text, vdw.IntervalColoring.from_text, value,
                top=top, size_key="length", scan=vdw._least_failing)


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
    _interval_row("wprime", lambda c, p: vdw.ap_sum(c)[0]),
    _interval_row("vdw", lambda c, p: max(vdw.ap_sum(c)[1]), top=1),
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
