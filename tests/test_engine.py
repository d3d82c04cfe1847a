"""The mode registry and its one check/search pair.

The labeled scan extends failing codes one vertex at a time, scores only
children of failing parents, and records the full count; here it is
compared with a loop over every code that scores instances with the public
value functions only, level by level as well as at the last size, and the
hereditary premise that makes the extension complete is checked on its own.
Certificates the engine emits must revalidate deeply and stop revalidating
under any one-step change, and malformed certificates are rejected without
raising.
"""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (EdgeColoring, Graph, SearchCertificate, ScoreKind,
                       UndecidedError,
                       check_universal, cli, clique_number,
                       family_sum_value, independence_number,
                       pair_guarantee_sweep, pair_sum_value, revalidate,
                       score_sum, write_graph6)
import ramseykit
from ramseykit import engine, graphs, scores, vdw
from ramseykit.engine import MODES, check
from ramseykit.exact import _has_clique, _omega
from ramseykit.graphs import ENUMERATION_CAP, pair_count, pair_table


_VALUES: dict = {}  # values of codes 0, 1, ... scored so far, per instance family


def _value(mode, n, m, j, score, code):
    """Value of one code, from the public value functions only."""
    if mode in ("rprime", "ramsey"):
        g = Graph.from_code(n, code)
        if mode == "rprime":
            return pair_sum_value(g)
        return max(clique_number(g), independence_number(g))
    c = EdgeColoring.from_code(n, m, code)
    if mode == "rprime_m":
        return family_sum_value(c)
    return score_sum(c, ScoreKind(score), j)[0]


def _values(mode, n, m=2, j=1, score="clique"):
    """Values of every code on n vertices in code order; each code is scored
    once per session, and only when a caller reads that far."""
    done = _VALUES.setdefault((mode, n, m) + ((j, score) if mode == "score" else ()), [])
    for code in range(m ** pair_count(n)):
        if code == len(done):
            done.append(_value(mode, n, m, j, score, code))
        yield done[code]


def _full_scan(mode, target, n, m=2, j=1, score="clique", prune=False):
    """(value, witness text, count) of the least failing code, visiting
    every code in order; (target, None, count) when none fails."""
    for code, value in enumerate(_values(mode, n, m, j, score)):
        if value < target:
            if mode in ("rprime", "ramsey"):
                return value, write_graph6(Graph.from_code(n, code)), None
            return value, EdgeColoring.from_code(n, m, code).to_text(), None
    codes = range(m ** pair_count(n))
    if prune:  # one representative per complement pair
        full = (1 << pair_count(n)) - 1
        return target, None, sum(1 for c in codes if c <= full ^ c)
    return target, None, len(codes)


def _as_triple(cert: SearchCertificate):
    return (cert.value, cert.witness_graph6 or cert.witness_coloring,
            cert.scanned_count)


@pytest.mark.parametrize("mode", ["rprime", "ramsey"])
@pytest.mark.parametrize("prune", [False, True])
def test_graph_scan_matches_full_scan(mode, prune):
    for n in range(1, 6):
        for target in range(1, 8):
            cert = check_universal(target, n, mode, prune=prune).certificate
            assert _as_triple(cert) == _full_scan(mode, target, n, prune=prune), (n, target)


@pytest.mark.parametrize("mode", ["rprime_m"])
def test_coloring_scan_matches_full_scan(mode):
    for m, top in ((2, 5), (3, 4), (4, 3)):
        for n in range(1, top + 1):
            for target in range(1, m + 4):
                cert = check_universal(target, n, mode, m=m).certificate
                assert _as_triple(cert) == _full_scan(mode, target, n, m), (m, n, target)


@pytest.mark.parametrize("score", ["clique", "cycle", "path"])
def test_score_scan_matches_full_scan(score):
    for m, top in ((2, 4), (3, 4)):
        for j in range(1, m + 1):
            for n in range(1, top + 1):
                for target in range(1, 7):
                    cert = check("score", target, n, m=m, j=j, score=score).certificate
                    assert _as_triple(cert) == _full_scan("score", target, n, m, j, score), \
                        (m, j, n, target)


def test_extension_matches_full_scan_one_level_deeper():
    """Each scan matches an oracle that scores every code one level deeper
    than the other tests reach."""
    def same(oracle, outcome):
        assert _as_triple(outcome.certificate) == oracle

    for mode in ("rprime", "ramsey"):
        for target in range(4, 8):
            same(_full_scan(mode, target, 6), check_universal(target, 6, mode))
    for score in ("path", "cycle"):
        for j in (1, 2):
            for target in range(3, 8):
                same(_full_scan("score", target, 5, 2, j, score),
                     check("score", target, 5, m=2, j=j, score=score))
    oracle = _full_scan("rprime_m", 6, 5, 3)
    assert EdgeColoring.from_text(oracle[1], 3).code == 3195
    same(oracle, check_universal(6, 5, "rprime_m", m=3))


# Checks whose witness, if any, has a nonzero row for its last vertex, so the
# scan reads every level below the last size in full.
FULL_LEVELS = {
    "rprime-6": ("rprime", 6, 7, 2, 1, "clique", None),
    "ramsey-3": ("ramsey", 3, 7, 2, 1, "clique", None),
    "path-m2-j2-7": ("score", 7, 6, 2, 2, "path", None),
    "cycle-m2-j2-5": ("score", 5, 6, 2, 2, "cycle", None),
    "path-m3-j2-7": ("score", 7, 6, 3, 2, "path", 3 ** 15),
    "cycle-m2-j1-4": ("score", 4, 6, 2, 1, "cycle", None),
    "rprime_m-m3-6": ("rprime_m", 6, 6, 3, 3, "clique", 3 ** 15),
    "clique-m3-j2-4": ("score", 4, 6, 3, 2, "clique", 3 ** 15),
}


def _colors_used(code: int, k: int, m: int) -> Optional[int]:
    """How many colours a code on k vertices uses when its base-m digits,
    read from pair (0, 1) up, use colours in first-use order; else None."""
    used = 0
    for _ in range(pair_count(k)):
        code, d = divmod(code, m)
        if d > used:
            return None
        used = max(used, d + 1)
    return used


def _failing_entries(mode, target, k, m, j, score) -> list:
    """(code, class scores, class rows) of every failing code on k vertices,
    ascending, from the public value functions."""
    entries = []
    for code, value in enumerate(_values(mode, k, m, j, score)):
        if value < target:
            c = EdgeColoring.from_code(k, m, code)
            entries.append((code, bytes(score_sum(c, ScoreKind(score), 1)[1].per_color),
                            [list(c.color_class(d).adj) for d in range(m)]))
    return entries


def _labeled(m, per, words, g) -> tuple[bytes, list]:
    """An entry's class scores and words by colour: its class d holds the
    colour ``_colour_maps(m)[g][d]``."""
    sigma = engine._colour_maps(m)[g]
    by_color, rows = bytearray(m), [0] * m
    for d, color in enumerate(sigma):
        by_color[color], rows[color] = per[d], words[d]
    return bytes(by_color), rows


def _scanned_levels(monkeypatch, case) -> tuple[dict, list]:
    """Run a FULL_LEVELS check; return the normal levels it stores, on
    1..size-1 vertices, and the view on size-1 vertices that the last size
    reads (iterated in full after the check), each entry as (code, class
    scores, class rows)."""
    mode, target, size, m, j, score, budget = FULL_LEVELS[case]
    levels, views = {k: [] for k in range(1, size)}, []
    real = engine._extend

    def spy(parents, k, m, rule, switch, keep):
        normal = keep is engine._first_use(k - 1, m)
        for entry in real(parents, k, m, rule, switch, keep):
            if normal:
                code, per, words, g = entry
                assert g == 0
                levels[k].append((code, bytes(per),
                                  [list(w.to_bytes(k, "little")) for w in words]))
            yield entry

    class Kept(engine._View):
        def __init__(self, *args):
            super().__init__(*args)
            views.append(self)

    monkeypatch.setattr(engine, "_extend", spy)
    monkeypatch.setattr(engine, "_View", Kept)
    cert = check(mode, target, size, m, j, score, budget).certificate
    text = cert.witness_graph6 or cert.witness_coloring
    if text is not None:
        assert MODES[mode].read(text, m).code >= m ** pair_count(size - 1)
    assert [view.k for view in views] == list(range(1, size))
    levels = {k: list(level) for k, level in levels.items()}  # as the check stored them
    view = []
    for code, per, words, g in views[-1]:
        per, words = _labeled(m, per, words, g)
        view.append((code, per, [list(w.to_bytes(size - 1, "little")) for w in words]))
    return levels, view


@pytest.mark.parametrize("case", sorted(FULL_LEVELS))
def test_each_level_is_exactly_the_failing_codes(monkeypatch, case):
    """Every stored level below the last size holds exactly the normal
    failing codes (colours in first-use order), in ascending order, each with
    its class scores and the adjacency rows of its colour classes (carried
    from parent to child as one word per class, byte u being row u, never
    decoded)."""
    mode, target, size, m, j, score, _ = FULL_LEVELS[case]
    levels, _ = _scanned_levels(monkeypatch, case)
    for k, level in levels.items():
        expected = [entry for entry in _failing_entries(mode, target, k, m, j, score)
                    if _colors_used(entry[0], k, m) is not None]
        assert level == expected, (case, k)
    if case == "rprime-6":
        assert [len(level) for level in levels.values()] == [1, 1, 4, 32, 316, 2812]


@pytest.mark.parametrize("case", sorted(FULL_LEVELS))
def test_normal_orbits_count_every_failing_code(monkeypatch, case):
    """A normal code using u colours stands for its m!/(m-u)! colour images,
    and each failing code is the image of exactly one normal failing code:
    over each stored level the orbit sizes sum to the count of failing codes."""
    mode, target, size, m, j, score, _ = FULL_LEVELS[case]
    levels, _ = _scanned_levels(monkeypatch, case)
    for k, level in levels.items():
        orbits = sum(math.perm(m, _colors_used(code, k, m)) for code, _, _ in level)
        assert orbits == sum(v < target for v in _values(mode, k, m, j, score)), (case, k)


@pytest.mark.parametrize("case", sorted(FULL_LEVELS))
def test_the_view_is_the_labeled_level(monkeypatch, case):
    """The last size extends a view of the normal level below it that is
    exactly the failing codes there, ascending, with their class scores and
    class rows."""
    mode, target, size, m, j, score, _ = FULL_LEVELS[case]
    _, view = _scanned_levels(monkeypatch, case)
    assert view == _failing_entries(mode, target, size - 1, m, j, score), case


@pytest.mark.parametrize("case", sorted(FULL_LEVELS))
def test_a_size_passes_exactly_when_no_code_fails(case):
    """A size whose read finds no failing child at high 0 of its view's
    first codes is decided on the normal level below (``engine._fails``):
    for each FULL_LEVELS family, every size up to 6 vertices (m = 2) or 5
    (m = 3) and every target 2..7, the check agrees with the loop over every
    code, on the verdict and on the certificate."""
    mode, _, _, m, j, score, budget = FULL_LEVELS[case]
    for n in range(1, 9 - m):
        for target in range(2, 8):
            cert = check(mode, target, n, m, j, score, budget).certificate
            assert _as_triple(cert) == _full_scan(mode, target, n, m, j, score), (n, target)


@pytest.mark.parametrize("mode, target, m, top, score, most", [
    ("score", 5, 2, 2, "path", 4), ("score", 5, 2, 1, "cycle", 4),
    ("rprime", 5, 2, 2, "clique", 4), ("ramsey", 4, 2, 1, "clique", 4),
    ("score", 4, 3, 2, "clique", 3), ("score", 6, 3, 3, "path", 3),
])
def test_the_size_test_finds_each_parents_normal_failing_children(mode, target, m, top,
                                                                  score, most):
    """``_fails`` on one normal failing parent on v <= ``most`` vertices
    says whether the parent has a normal failing child, at every high that
    keeps first-use order, high 0 included: for path scores with m = 2, j =
    2 and target 5, the parent on 2 vertices with its one pair in colour 0
    (class scores 2 and 1) fails only where the new vertex joins both
    vertices in colour 0 (3 + 1), and passes at every other high (5)."""
    rule, _ = engine._rule(m, top, score, target)
    for v in range(1, most + 1):
        base = m ** pair_count(v)
        values = list(_values(mode, v + 1, m, top, score))
        for code, per, rows in _failing_entries(mode, target, v, m, top, score):
            if _colors_used(code, v, m) is None:
                continue
            entry = (code, per, [int.from_bytes(bytes(row), "little") for row in rows], 0)
            children = [code + high * base for high in range(m ** v)]
            expected = any(values[c] < target for c in children
                           if _colors_used(c, v + 1, m) is not None)
            assert engine._fails([entry], v, m, rule) == expected, (v, code)
    if (score, m, top, target) == ("path", 2, 2, 5):  # code 0's children on 3 vertices
        assert [value < 5 for value in list(_values(mode, 3, m, top, score))[::2]] == [
            True, False, False, False]


# The clique checks of FULL_LEVELS, and a score clique check with m = 3 and
# j = 1, where the class holding colour 0 decides a child's verdict (no
# FULL_LEVELS case: its witness lies at high 0).
SPANNED = {case: FULL_LEVELS[case] for case in FULL_LEVELS if FULL_LEVELS[case][5] == "clique"}
SPANNED["clique-m3-j1-3"] = ("score", 3, 6, 3, 1, "clique", 3 ** 15)


@pytest.mark.parametrize("case", sorted(SPANNED))
def test_clique_views_choose_their_children_at_high_0_by_score_class(monkeypatch, case):
    """On every view a clique check builds, the images' children at high 0
    chosen by score class (``_View.spanned``) are exactly the (code, scores,
    words, colour map) tuples that ``_extend``'s loop over every entry
    yields after the prefix's children.  At m = 3 a colour map sigma can
    differ from its inverse, so the class holding colour 0, sigma^-1(0),
    need not be class sigma[0]."""
    mode, target, size, m, j, score, budget = SPANNED[case]
    views, rules = [], []
    real = engine._extend

    class Kept(engine._View):
        def __init__(self, *args):
            super().__init__(*args)
            views.append(self)

    monkeypatch.setattr(engine, "_View", Kept)
    monkeypatch.setattr(engine, "_extend", lambda parents, k, m, rule, *rest: (
        rules.append(rule) or real(parents, k, m, rule, *rest)))
    check(mode, target, size, m, j, score, budget)
    assert [view.k for view in views] == list(range(1, size))
    entries = lambda found: [(code, bytes(per), list(words), g) for code, per, words, g in found]
    every = [1] * (m + 1)
    for view in views:
        k = view.k + 1
        expected = entries(real(view, k, m, rules[0], engine._TABLE_SWITCH, every))
        prefix = entries(real(view.prefix, k, m, rules[0], engine._TABLE_SWITCH, every))
        spanned = entries(view.spanned(rules[0]))
        assert prefix + spanned == expected, (case, k)
    assert any(view.codes for view in views)  # the selection read images


def test_a_clique_check_reads_no_image_at_high_0_per_entry(monkeypatch):
    """``check("rprime", 6, 7)`` passes no view image through ``_extend``'s
    loop at high 0: its parents there are the root level and the views'
    prefixes (1 + 1 + 1 + 2 + 8 + 18 + 12), not the 6,332 failing codes on
    0..6 vertices that the root and the views hold."""
    visited = []
    real = engine._extend

    def spy(parents, k, m, rule, switch, keep):
        if keep == [1] * (m + 1) and keep is not engine._first_use(k - 1, m):
            assert not isinstance(parents, engine._View)
            parents = (visited.append(entry) or entry for entry in parents)
        return real(parents, k, m, rule, switch, keep)

    monkeypatch.setattr(engine, "_extend", spy)
    assert check("rprime", 6, 7).certificate.witness_graph6 == "F@Tc?"
    assert len(visited) == 43


def test_each_failing_code_is_grown_once_and_none_is_decoded(monkeypatch):
    """Rows are built once per failing code a level stores, from its
    parent's rows: the normal failing codes on 1..6 vertices (1 + 1 + 4 +
    32 + 316 + 2,812), the failing codes at high 0 that each labeled level
    on 1..6 vertices starts with (1 + 1 + 2 + 8 + 18 + 12), and the witness.
    The scan itself decodes no code."""
    grown, decoded = [], []
    real_grow, real_decode = engine._grow, graphs._decode_adj
    monkeypatch.setattr(engine, "_grow", lambda *a: grown.append(a) or real_grow(*a))
    monkeypatch.setattr(graphs, "_decode_adj",
                        lambda *a: decoded.append(a) or real_decode(*a))
    code = next(engine._labeled_scan(7, 2, 2, "clique", 6))
    assert (len(grown), len(decoded)) == (3166 + 42 + 1, 0)
    assert write_graph6(Graph.from_code(7, code)) == "F@Tc?"


def _grown_and_tabled(run) -> tuple[list, int, int]:
    """The class words of every child ``run()`` grows, sorted; its count of
    ``_table`` calls; and how many of those tabled the parents that the
    test of whether a size passes (``_fails``) reads."""
    grown, tables, tested = [], [], []
    real_grow, real_table, real_fails = engine._grow, engine._table, engine._fails

    def grow(*args):
        words = real_grow(*args)
        grown.append(tuple(words))
        return words

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_grow", grow)
        patch.setattr(engine, "_table", lambda *a: tables.append(a) or real_table(*a))
        patch.setattr(engine, "_fails", lambda level, *a: real_fails(
            (tested.append(entry) or entry for entry in level), *a))
        run()
    return sorted(grown), len(tables), len(tested)


def _late_witnesses(name, target, sizes, **kwargs) -> list:
    """The class words, as a sorted tuple, of each size's least failing code
    whose top high is not 0 (the read grows it past the children at high 0,
    which the next size's level keeps)."""
    m = kwargs.get("m", 2)
    words = []
    for n in sizes:
        cert = check(name, target, n, **kwargs).certificate
        code = MODES[name].read(cert.witness_graph6 or cert.witness_coloring, m).code
        if code >= m ** pair_count(n - 1):
            c = EdgeColoring.from_code(n, m, code)
            words.append(tuple(sorted(int.from_bytes(bytes(c.color_class(d).adj), "little")
                                      for d in range(m))))
    return words


def _added(searched: list, checked: list) -> list:
    """What a search grows beyond a check, each as a sorted tuple of words
    (an entry's classes are in the order of its colour map)."""
    extra = Counter(searched)
    extra.subtract(Counter(checked))
    assert all(n >= 0 for n in extra.values())
    return sorted(tuple(sorted(words)) for words in extra.elements())


def test_a_search_grows_each_failing_code_once_across_its_probes():
    """A search keeps its levels from one probe to the next: it grows what
    the passing check on 6 vertices grows, the normal failing codes on 1..5
    vertices (1 + 1 + 4 + 9 + 6) and the failing codes at high 0 that the
    labeled levels on 1..5 vertices start with (1 + 1 + 2), and beyond that
    only the witnesses of sizes 4 and 5, which lie past high 0."""
    checked = _grown_and_tabled(lambda: check("rprime", 5, 6))[0]
    searched = _grown_and_tabled(lambda: engine.search("rprime", 5))[0]
    assert len(checked) == 1 + 1 + 4 + 9 + 6 + 1 + 1 + 2
    late = _late_witnesses("rprime", 5, range(1, 6))
    assert len(late) == 2 and _added(searched, checked) == sorted(late)


def test_a_pair_search_tables_and_grows_as_the_passing_check_does():
    """A cycle search tables each normal parent and grows each normal failing
    child once over all its probes, as the passing check at its threshold, 6,
    does: the normal failing codes on 1..5 vertices and the failing codes at
    high 0 that the labeled levels start with (1 + 1 + 2 + 4).  Both build
    the normal levels on 1..5 vertices from the 29 normal parents on 0..4
    (1 + 1 + 1 + 4 + 22), and both decide that 6 passes by tabling the 30
    normal parents on 5 vertices, none with a failing child.  Beyond that
    the search grows the one witness past high 0 (size 5's), its read at
    size 5 tables 16 parents of its view (past high 1), and the tests at
    sizes 4 and 5 each table one normal parent, which has a failing child."""
    checked = _grown_and_tabled(lambda: check("score", 4, 6, 2, 1, "cycle"))
    searched = _grown_and_tabled(lambda: engine.search("score", 4, m=2, j=1, score="cycle"))
    late = _late_witnesses("score", 4, range(1, 6), m=2, j=1, score="cycle")
    assert len(late) == 1 and _added(searched[0], checked[0]) == late
    assert (len(checked[0]), checked[1:]) == (66, (29 + 30, 30))
    assert searched[1:] == (29 + 30 + 16 + 1 + 1, 30 + 1 + 1)


def test_a_failing_size_on_nine_vertices_is_read_without_storing_it():
    """A read level is stored only once the next size extends it.  So a
    failing check or search on 9 vertices, the most ``ENUMERATION_CAP``
    admits, reads its witness without storing 9-vertex rows, which do not
    fit in the 64-bit class words."""
    cert = check("ramsey", 9, 9, budget=ENUMERATION_CAP).certificate
    assert cert.witness_graph6 == "H_?????"
    with pytest.raises(UndecidedError) as raised:
        engine.search("ramsey", 9, budget=ENUMERATION_CAP)
    assert (raised.value.low, raised.value.lower) == (10, cert)
    cert = check("score", 8, 9, 2, 1, "path", budget=ENUMERATION_CAP).certificate
    assert cert.witness_coloring == "9:bbbbbbbbbbbbbbbaaaaaaaaaaaaaaaaaaaaa"


@pytest.mark.parametrize("m, top, score, target", [
    (2, 2, "clique", 5), (3, 3, "clique", 5), (2, 1, "clique", 3),
    (2, 1, "cycle", 4), (3, 3, "path", 5),
])
def test_one_labeled_scan_yields_every_size_in_turn(m, top, score, target):
    """The scan from size 1 yields the code a scan started at each size
    yields first, then None at the first size where no code fails."""
    codes = list(engine._labeled_scan(1, m, top, score, target))
    assert codes[-1] is None and None not in codes[:-1]
    assert codes == [next(engine._labeled_scan(n, m, top, score, target))
                     for n in range(1, len(codes) + 1)]
    assert list(engine._labeled_scan(3, m, top, score, target)) == codes[2:]


def test_interleaved_iterators_of_a_level_each_yield_every_entry():
    """An iterator of a ``_Level`` that waits while another pulls entries
    from the source, or drains it, still yields every entry in order."""
    entries = [(code, bytes([code, 1]), [code, 2 * code], 0) for code in range(5)]
    level = engine._Level(2, iter(entries))
    first = iter(level)
    assert next(first)[0] == 0
    assert [entry[0] for entry in level] == list(range(5))  # drains the source
    assert [entry[0] for entry in first] == [1, 2, 3, 4]
    level = engine._Level(2, iter(entries))
    a, b = iter(level), iter(level)
    seen = {a: [], b: []}
    for it in (a, b, b, a, b, a, a, b, a, b):
        entry = next(it, None)
        if entry:
            seen[it].append(entry)
    for it in (a, b):
        seen[it] += list(it)
        assert [(c, bytes(p), list(w), g) for c, p, w, g in seen[it]] == [
            (c, p, w, g) for c, p, w, g in entries]


@st.composite
def tabled_parents(draw):
    """A failing parent on v vertices, its class clique numbers from
    ``_omega``, and its failing rule: m = 2 with v <= 7, and m = 3..8 with
    at most 1,024 highs (every m a clique scan builds tables for).  A code
    fails while its j best class scores (j = 1: the largest) sum below a
    target that the children can reach only with up to m + 1 increments."""
    m = draw(st.integers(2, 8))
    v = draw(st.integers(1, max(v for v in range(8) if m ** v <= 1024)))
    coloring = EdgeColoring.from_code(v, m, draw(st.integers(0, m ** pair_count(v) - 1)))
    rows = [list(coloring.color_class(d).adj) for d in range(m)]
    per = bytes(_omega(adj, (1 << v) - 1) for adj in rows)
    j = draw(st.integers(1, m)) if draw(st.booleans()) else 1  # j = 1: the largest
    value = lambda per: sum(sorted(per, reverse=True)[:j])
    target = value(per) + draw(st.integers(1, m + 1))
    return v, m, rows, per, j, target


@settings(max_examples=150)
@given(tabled_parents())
def test_tables_match_the_kernel_at_every_high(case):
    """A failing parent's table gives, for every high, the same class-score
    increments and the same verdict as one ``_has_clique`` per class."""
    v, m, rows, per, j, target = case
    fails = lambda per: sum(sorted(per, reverse=True)[:j]) < target
    failing, levels = engine._table(rows, per, engine._cliques,
                                    lambda per, rises: engine._passing(per, rises, j, target),
                                    engine._within(v, m))
    assert all(len(reach) == 1 for reach in levels)
    gains = [reach[0] for reach in levels]
    assert failing >> m ** v == 0 and all(g >> m ** v == 0 for g in gains)
    for high in range(m ** v):
        nbrs = [0] * m
        for u in range(v):
            nbrs[high // m ** u % m] |= 1 << u
        ups = [int(_has_clique(rows[d], nbrs[d], per[d])) for d in range(m)]
        assert [g >> high & 1 for g in gains] == ups, high
        assert bool(failing >> high & 1) == fails(bytes(map(sum, zip(per, ups)))), high


@st.composite
def pair_tabled_parents(draw):
    """A failing parent on v vertices for a path or cycle scan, its class
    scores from ``score_color_class``, and its cap and failing rule: the j
    best class scores sum below a target, which also caps every score.
    m = 2 with v <= 7, m = 3 with v <= 5."""
    m = draw(st.integers(2, 3))
    v = draw(st.integers(1, 7 if m == 2 else 5))
    coloring = EdgeColoring.from_code(v, m, draw(st.integers(0, m ** pair_count(v) - 1)))
    kind = draw(st.sampled_from([ScoreKind.PATH, ScoreKind.CYCLE]))
    per = bytes(scores.score_color_class(coloring, d, kind) for d in range(m))
    j = draw(st.integers(1, m))
    cap = sum(sorted(per, reverse=True)[:j]) + draw(st.integers(1, 4))
    rows = [list(coloring.color_class(d).adj) for d in range(m)]
    return v, m, rows, per, kind is ScoreKind.CYCLE, j, cap


@settings(max_examples=150)
@given(pair_tabled_parents())
def test_path_and_cycle_tables_match_the_kernel_at_every_high(case):
    """A failing parent's path or cycle table gives every high the same
    class scores, capped at the target, and the same verdict as one
    ``_through`` per class on the new vertex."""
    v, m, rows, per, cycle, j, cap = case
    fails = lambda per: sum(sorted(per, reverse=True)[:j]) < cap
    failing, levels = engine._table(
        rows, per, lambda rows, per, within: [scores._ends(r, s, cap, cycle, lift)
                                              for r, s, lift in zip(rows, per, within)],
        lambda per, rises: engine._passing(per, rises, j, cap), engine._within(v, m))
    assert failing >> m ** v == 0
    for high in range(m ** v):
        nbrs = [0] * m
        for u in range(v):
            nbrs[high // m ** u % m] |= 1 << u
        kernel = [min(max(s, scores._through(rows[d], nbrs[d], cap, cycle)), cap)
                  for d, s in enumerate(per)]
        table = [s + sum(level >> high & 1 for level in levels[d]) for d, s in enumerate(per)]
        assert table == kernel, high
        assert bool(failing >> high & 1) == fails(bytes(kernel)), high


@st.composite
def nested_levels(draw):
    """Parent class scores and, per class, up to 12 nested levels of highs
    (as from a path or cycle table whose scores can rise that far), over m
    <= 4 classes: their score vectors number up to 13^4, past one byte."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 300))
    per = bytes(draw(st.lists(st.integers(0, 20), min_size=m, max_size=m)))
    levels = []
    for _ in range(m):
        reach, highs = [], (1 << n) - 1
        for mask in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12)):
            highs &= mask
            reach.append(highs)
        levels.append(reach)
    return per, levels, n


@settings(max_examples=150)
@given(nested_levels())
def test_ups_adds_the_levels_each_high_reaches(case):
    """A child's class-d score is its parent's plus the number of class-d
    levels holding its high, however many levels and classes there are."""
    per, levels, n = case
    index, children = engine._ups(per, levels, n)
    assert [children[index[high]] for high in range(n)] == [
        bytes(s + sum(level >> high & 1 for level in reach) for s, reach in zip(per, levels))
        for high in range(n)]


def test_a_table_fault_reaches_the_oracle(monkeypatch):
    """Tables that look for (s-1)-cliques where a parent's clique number is
    s make ``check`` disagree with the loop over every code at n <= 6: the
    switch to tables happens within reach of the oracles."""
    real = engine._table
    monkeypatch.setattr(engine, "_table", lambda rows, per, *rest: real(
        rows, bytes(max(s - 1, 0) for s in per), *rest))
    wrong = {(mode, m, target, n)
             for mode, m in (("rprime", 2), ("ramsey", 2), ("rprime_m", 3))
             for n in range(2, 7 - (m > 2)) for target in range(2, 7)
             if _as_triple(check(mode, target, n, m).certificate)
             != _full_scan(mode, target, n, m)}
    assert {mode for mode, *_ in wrong} == {"rprime", "ramsey", "rprime_m"}


def test_a_pair_table_fault_reaches_the_oracle(monkeypatch):
    """Pair tables one vertex long (each pair end set above the parent's
    score one level higher, up to the cap, as from an off-by-one in the most
    vertices on an a-b path or on two arms) make ``check`` disagree with the
    loop over every code at n <= 6, for path and cycle scores with j = 1 and
    2, once tables decide every child from high 0.  (At the scans' own
    switch, high 1, the fault changes no path check with j = 2 within
    n <= 6.)"""
    real = scores._ends

    def long(rows, lo, cap, cycle, lift):
        levels = real(rows, lo, cap, cycle, lift)
        pairs = real(rows, lo, cap, cycle,
                     [h if c.bit_count() == 2 else 0 for c, h in enumerate(lift)])
        levels += [0] * (min(len(pairs) + 1, cap - lo) - len(levels))
        return [h | (pairs[i - 1] if 0 < i <= len(pairs) else 0)
                for i, h in enumerate(levels)]

    monkeypatch.setattr(scores, "_ends", long)
    monkeypatch.setattr(engine, "_PAIR_SWITCH", 0)
    wrong = set()
    for score in ("path", "cycle"):
        for j in (1, 2):
            for n in range(2, 7):
                if (score, j) not in wrong and any(
                        _as_triple(check("score", target, n, 2, j, score).certificate)
                        != _full_scan("score", target, n, 2, j, score)
                        for target in range(3, 8)):
                    wrong.add((score, j))
    assert wrong == {("path", 1), ("path", 2), ("cycle", 1), ("cycle", 2)}


def test_the_last_level_tables_and_grows_only_up_to_its_witness(monkeypatch):
    """rprime_m m=3 target 6 on 5 vertices has its witness (code 3195) at
    high 4, where the read switches to tables: tables are built one view
    parent at a time up to the witness's parent, and only the witness is
    grown there.  Before that, once no child at high 0 of the view's first
    codes fails, the test of whether size 5 passes tables the normal parents
    on 4 vertices up to the first with a failing child, the second.  Below
    it, each normal failing code and each failing code at high 0 (which the
    labeled levels start with) is grown once."""
    base = 3 ** pair_count(4)
    high, low = divmod(3195, base)
    assert high == engine._TABLE_SWITCH
    failing = {k: [c for c, v in enumerate(_values("rprime_m", k, 3)) if v < 6]
               for k in range(1, 5)}
    normal = {k: [c for c in codes if _colors_used(c, k, 3) is not None]
              for k, codes in failing.items()}
    top_0 = {k: [c for c in codes if c < 3 ** pair_count(k - 1)]
             for k, codes in failing.items()}
    events, tested = [], []
    real_table, real_grow, real_fails = engine._table, engine._grow, engine._fails
    monkeypatch.setattr(engine, "_table", lambda rows, *a: events.append(len(rows[0]))
                        or real_table(rows, *a))
    monkeypatch.setattr(engine, "_grow", lambda *a: events.append("grow") or real_grow(*a))

    def fails(level, *args):
        found = real_fails((tested.append(entry[0]) or entry for entry in level), *args)
        events.append("tested")
        return found

    monkeypatch.setattr(engine, "_fails", fails)
    assert next(engine._labeled_scan(5, 3, 3, "clique", 6)) == 3195
    # size 5 is tested on the normal parents on 4 vertices up to the second, which has a
    # failing child
    assert tested == normal[4][:2] and events.count("tested") == 1
    assert events[:events.index("tested")].count(4) == 2
    last = events.index(4, events.index("tested"))  # the read's first table on 4 vertices
    assert events[last:].count(4) == failing[4].index(low) + 1
    assert events[last:].count("grow") == 1
    assert [len(normal[k]) for k in normal] == [1, 1, 4, 9]
    assert [len(top_0[k]) for k in top_0] == [1, 1, 3, 0]
    assert events.count("grow") == 15 + 5 + 1


def test_the_normal_level_the_next_size_extends_is_tabled_from_high_0(monkeypatch):
    """``rprime`` t=6 has its witness on 7 vertices at high 1, below the
    read's table switch (high 4).  A search that reads on builds the normal
    level on 7 vertices with tables from high 0, as every normal level is:
    each of the 2,812 normal parents on 6 vertices is tabled once, and no
    kernel call scores a child of one."""
    scan = engine._labeled_scan(7, 2, 2, "clique", 6)
    assert next(scan) // 2 ** pair_count(6) == 1
    kernel, tabled = [], []
    real_clique, real_table = engine._has_clique, engine._table
    monkeypatch.setattr(engine, "_has_clique", lambda rows, nb, s: (
        len(rows) == 6 and kernel.append(nb)) or real_clique(rows, nb, s))
    monkeypatch.setattr(engine, "_table", lambda rows, *a: (
        len(rows[0]) == 6 and tabled.append(rows)) or real_table(rows, *a))
    assert next(scan) // 2 ** pair_count(7) == 3
    assert (len(kernel), len(tabled)) == (0, 2812)


def test_a_cap_search_pins_its_kernel_calls(monkeypatch):
    """``search("rprime", 6)`` at the cap budget makes 60,986
    ``_has_clique`` calls: each read scores its children below the switch
    with the kernel and is never resumed, each normal level the next size
    extends is tabled from high 0, and the passing size, 9, is decided by
    tables on its normal level below, with no kernel call past high 0."""
    calls = []
    real = engine._has_clique
    monkeypatch.setattr(engine, "_has_clique", lambda *a: calls.append(None) or real(*a))
    assert engine.search("rprime", 6, budget=ENUMERATION_CAP).value == 9
    assert len(calls) == 60986


def test_a_passing_size_tables_each_normal_parent_below_once(monkeypatch):
    """``check("rprime", 6, 9)`` at the cap budget decides that 9 passes on
    the 17,640 normal failing codes on 8 vertices, one table each, not on
    the 35,280 labeled ones they stand for; no other table has a parent on
    8 vertices."""
    tabled = []
    real = engine._table
    monkeypatch.setattr(engine, "_table", lambda rows, *a: (
        len(rows[0]) == 8 and tabled.append(None)) or real(rows, *a))
    assert check("rprime", 6, 9, budget=ENUMERATION_CAP).ok
    assert len(tabled) == 17640


def test_an_undecided_search_stores_no_level_past_its_last_read(monkeypatch):
    """``search("rprime", 6)`` at the default budget reads sizes 1..7 and
    is refused at 8.  Size 7 fails past its view's first codes, so its test
    reads the normal level on 6 vertices up to a parent with a failing
    child; no normal code on 7 vertices is built."""
    normal = Counter()
    real = engine._extend

    def spy(parents, k, m, rule, switch, keep):
        for entry in real(parents, k, m, rule, switch, keep):
            normal[k] += keep is engine._first_use(k - 1, m)
            yield entry

    monkeypatch.setattr(engine, "_extend", spy)
    with pytest.raises(UndecidedError) as raised:
        engine.search("rprime", 6)
    assert (raised.value.low, raised.value.high) == (8, 16)
    assert max(k for k in normal if normal[k]) == 6


@pytest.mark.parametrize("target, n, j, score", [(6, 7, 1, "path"), (5, 6, 1, "cycle")])
def test_an_early_witness_tables_no_parent_of_the_last_two_levels(monkeypatch, target, n,
                                                                  j, score):
    """Path and cycle scans score high 0 with the kernel and table a parent
    on its next visit (``_PAIR_SWITCH``), so a check whose witness is a low
    code (here at high 0) builds no table for the parents on n-2 or n-1
    vertices: the scan reads only the high-0 children there."""
    tabled = set()
    real = engine._table
    monkeypatch.setattr(engine, "_table", lambda rows, *a: tabled.add(len(rows[0]))
                        or real(rows, *a))
    code = next(engine._labeled_scan(n, 2, j, score, target))
    assert code is not None and code < 2 ** pair_count(n - 1)  # high 0
    assert max(tabled) < n - 2


def test_a_full_neighbourhood_fault_reaches_the_oracle(monkeypatch):
    """A full-neighbourhood rule that also fires when one parent vertex is
    missing makes ``check`` disagree with the loop over every code at n <= 6:
    the rule runs within reach of the oracles."""
    monkeypatch.setattr(engine, "_spans",
                        lambda nbrs, v: ((1 << v) - 1 & ~nbrs).bit_count() <= 1)
    wrong = {(mode, m, target, n)
             for mode, m in (("rprime", 2), ("ramsey", 2), ("rprime_m", 3))
             for n in range(2, 7 - (m > 2)) for target in range(2, 7)
             if _as_triple(check(mode, target, n, m).certificate)
             != _full_scan(mode, target, n, m)}
    assert {mode for mode, *_ in wrong} == {"rprime", "ramsey", "rprime_m"}


@settings(max_examples=150)
@given(tabled_parents())
def test_a_full_neighbourhood_raises_every_clique_number(case):
    """The rule and the kernel agree: a new vertex joined to all v parent
    vertices in class d extends each of the class's largest cliques."""
    v, m, rows, per, _, _ = case
    full = (1 << v) - 1
    assert engine._spans(full, v)
    assert all(_has_clique(rows[d], full, per[d]) for d in range(m))


@pytest.mark.parametrize("mode, target, n, m, j, score", [
    ("ramsey", 4, 5, 2, 1, "clique"),
    ("score", 5, 5, 2, 1, "cycle"),
    ("score", 4, 4, 2, 1, "cycle"),
])
def test_least_code_is_not_the_first_parents_first_failing_child(mode, target, n, m, j,
                                                                  score):
    """The least failing parent's first failing child is not the least
    failing code (ramsey target 4 on 5 vertices: parent 1's first failing
    child is 1 + 3 * 2^6 = 193, the least failing code is 7), so a scan
    must try every parent at a ``high`` before any parent at the next."""
    base = m ** pair_count(n - 1)
    parent = next(c for c, v in enumerate(_values(mode, n - 1, m, j, score)) if v < target)
    values = list(_values(mode, n, m, j, score))
    least = next(c for c, v in enumerate(values) if v < target)
    first = next(parent + high * base for high in range(m ** (n - 2))
                 if values[parent + high * base] < target)
    assert least < first
    cert = check(mode, target, n, m, j, score).certificate
    assert _as_triple(cert) == _full_scan(mode, target, n, m, j, score)


@st.composite
def labeled_checks(draw):
    """A labeled mode's check on n = 5 or 6 vertices at m = 2, 4 or 5 at
    m = 3 (smaller sizes are scanned for every target above)."""
    mode = draw(st.sampled_from(["rprime", "ramsey", "rprime_m", "score"]))
    m = 2 if mode in ("rprime", "ramsey") else draw(st.integers(2, 3))
    j = draw(st.integers(1, m)) if mode == "score" else m
    score = draw(st.sampled_from(["clique", "cycle", "path"])) if mode == "score" \
        else "clique"
    return mode, draw(st.integers(1, 9)), draw(st.integers(7 - m, 8 - m)), m, j, score


@settings(max_examples=60)
@given(labeled_checks())
def test_labeled_scan_matches_full_scan(case):
    mode, target, n, m, j, score = case
    cert = check(mode, target, n, m, j, score).certificate
    assert _as_triple(cert) == _full_scan(mode, target, n, m, j, score)


@st.composite
def prefixed(draw):
    """A labeled mode, its parameters and a code on n >= 2 vertices."""
    name = draw(st.sampled_from([name for name in sorted(MODES)
                                 if MODES[name].size_key != "length"]))
    m = 2 if name in ("rprime", "ramsey") else draw(st.integers(2, 4))
    n = draw(st.integers(2, 7 if m == 2 else 5))
    params = {"m": m, "j": draw(st.integers(1, m)),
              "score": draw(st.sampled_from(["clique", "cycle", "path"]))}
    return name, m, n, params, draw(st.integers(0, m ** pair_count(n) - 1))


@settings(max_examples=300)
@given(prefixed())
def test_values_are_hereditary(case):
    """Dropping the last vertex never raises a value: the prefix of a code on
    n - 1 vertices is ``code mod m^pairs(n-1)``.  So a failing code has a
    failing prefix, and extending failing codes misses no failing code."""
    name, m, n, params, code = case
    mode = MODES[name]

    def value(size, c):
        return mode.value(mode.decode(size, m, c), params)

    assert value(n - 1, code % m ** pair_count(n - 1)) <= value(n, code)


def test_score_is_ignored_where_the_mode_does_not_record_it():
    # rprime(5) = 6: a path-score scan would wrongly pass every 4-vertex graph.
    # Nor does ``j`` count there: "ramsey" counts its best class, the others
    # all m classes, whatever j the call passes (the default j=1 included).
    for name, m in (("rprime", 2), ("ramsey", 2), ("rprime_m", 3)):
        for score in ("clique", "cycle", "path"):
            for j in range(1, m + 1):
                assert check(name, 5, 4, m=m, j=j, score=score) == check(name, 5, 4, m=m), \
                    (name, score, j)
    # rprime(5) = 6 sums both classes' clique numbers; ramsey counts the best one
    assert [check(name, 5, 6).ok for name in ("rprime", "ramsey")] == [True, False]


@pytest.mark.parametrize("args, kwargs", [
    (("score", 3), {"j": 5, "budget": 0}),
    (("rprime", 0), {"budget": 0}),
    (("wprime", 3), {"prune": True, "budget": 0}),
    # a bool is no int, though ``True == 1`` would pass a range test
    (("rprime", True), {"budget": 0}),
    (("wprime", 3), {"m": True, "budget": 0}),
    (("score", 3), {"j": True, "budget": 0}),
])
def test_search_validates_before_its_first_probe_is_refused(args, kwargs):
    # Admission lives in ``check``, which validates first: a bad query is an
    # input error even when no probe fits the budget.
    with pytest.raises(ValueError):
        engine.search(*args, **kwargs)


@pytest.mark.parametrize("name, target, kwargs", [
    ("rprime", 5, {}), ("score", 3, {"score": "path", "j": 2}), ("wprime", 4, {}),
])
def test_negative_budget_is_an_input_error(name, target, kwargs):
    # Not "over budget": a negative budget is a bad query, refused by the
    # check itself and passed through by search as it is.
    with pytest.raises(ValueError, match="budget"):
        check(name, target, 1, budget=-1, **kwargs)
    with pytest.raises(ValueError, match="budget"):
        engine.search(name, target, budget=-1, **kwargs)


def test_labeled_scans_start_no_pool(monkeypatch, tmp_path):
    """Threshold scans, CLI ``search`` at any ``--threads`` and the greedy
    guarantee sweep at any ``threads`` run in one process: no call starts a
    process pool."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a scan started a process pool")

    monkeypatch.setattr(ProcessPoolExecutor, "__init__", refuse)
    assert not check_universal(6, 6, "rprime").ok
    assert check("score", 5, 4, m=2, j=2, score="path").ok
    assert cli.main(["search", "rprime", "--n", "5", "--threads", "8",
                     "--cache", str(tmp_path / "r.jsonl"), "--json"]) == 0
    assert pair_guarantee_sweep(5, threads=2) == (1024, None)


def _fresh(probe: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports this package."""
    src = Path(ramseykit.__file__).resolve().parent.parent
    out = subprocess.run([sys.executable, "-I", "-c",
                          "import sys; sys.path.insert(0, sys.argv[1]); " + probe, str(src)],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_import_loads_no_pool_modules():
    # A fresh interpreter that imports the package leaves the process-pool
    # modules unloaded, which keeps every command's cold start short.
    assert _fresh("import ramseykit; print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] in ('multiprocessing', 'concurrent')))") == "[]"


def test_cold_start_loads_only_what_its_query_uses():
    # A bare import loads no submodule; the benchmark's cold-start query
    # loads the graph and clique modules and nothing else of the package,
    # and neither json nor dataclasses.
    loaded = ("print(sorted(m for m in sys.modules if m.startswith('ramseykit.')), "
              "[m for m in ('json', 'dataclasses') if m in sys.modules])")
    assert _fresh("import ramseykit; " + loaded) == "[] []"
    assert _fresh("import ramseykit; from ramseykit import Graph, clique_indep_pair; "
                  "assert clique_indep_pair(Graph.cycle(5)).value == 4; "
                  + loaded) == "['ramseykit.exact', 'ramseykit.graphs'] []"


def test_every_exported_name_resolves_after_a_bare_import():
    # dir() lists the names before any is loaded; each submodule name, then
    # each name of __all__, resolves on first use to its defining module's object.
    assert _fresh("""
import ramseykit
assert set(ramseykit.__all__) <= set(dir(ramseykit))
for name in ("certificates", "engine", "exact", "graphs", "greedy", "scores", "vdw"):
    assert getattr(ramseykit, name) is sys.modules["ramseykit." + name]
for name in ramseykit.__all__[1:]:
    obj = getattr(ramseykit, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
print(ramseykit.__all__[0], len(ramseykit.__all__))
""") == "__version__ 62"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'ramseykit' has no attribute 'nope'$"):
        ramseykit.nope  # noqa: B018


def test_star_import_binds_every_name_in_all():
    # A stale ``__all__`` entry breaks ``import *`` while a plain import passes.
    namespace: dict = {}
    exec("from ramseykit import *", namespace)
    assert set(ramseykit.__all__) <= set(namespace)


def test_registry_rows():
    assert list(MODES) == ["rprime", "ramsey", "rprime_m", "score", "wprime", "vdw"]
    assert MODES["wprime"].count(5, 3) == MODES["vdw"].count(5, 3) == 3**5
    assert [name for name, mode in MODES.items() if mode.top == 1] == ["ramsey", "vdw"]
    assert MODES["score"].count(4, 3) == 3**6
    assert MODES["rprime"].pruned(1, 2) == 1 and MODES["rprime"].pruned(4, 2) == 32
    assert [name for name, mode in MODES.items() if mode.pruned] == ["rprime", "ramsey"]


@pytest.mark.parametrize("name, target, kwargs", [
    ("rprime", 5, {}), ("ramsey", 3, {}), ("rprime_m", 5, {"m": 3}),
    ("score", 4, {"m": 2, "j": 1, "score": "path"}), ("wprime", 5, {"m": 2}),
])
def test_check_parses_no_witness_text_and_decodes_each_witness_once(monkeypatch, name,
                                                                    target, kwargs):
    """A witness stays a code until ``emit`` decodes it and writes its text:
    a search decodes one instance, its witness at the size below its
    threshold, and parses no text."""
    def parse(*args):
        raise AssertionError("check parsed witness text")

    decoded = []
    mode = MODES[name]
    monkeypatch.setattr(engine, "parse_graph6", parse)
    monkeypatch.setattr(EdgeColoring, "from_text", parse)
    monkeypatch.setattr(vdw.IntervalColoring, "from_text", parse)
    monkeypatch.setitem(MODES, name, dataclasses.replace(
        mode, read=parse, decode=lambda *a: decoded.append(a) or mode.decode(*a)))
    result = engine.search(name, target, **kwargs)
    assert result.value > 2
    assert [a[0] for a in decoded] == [result.value - 1]


def test_an_undecided_search_decodes_its_lower_witness_once(monkeypatch):
    """A search refused at a probe emits its last failing size's witness
    once, as the error's ``lower``: ``rprime`` t=6 at the default budget
    fails on 7 vertices and is refused at 8, and ``lower`` is the
    certificate, byte for byte, that ``check`` at 7 emits."""
    decoded = []
    mode = MODES["rprime"]
    monkeypatch.setitem(MODES, "rprime", dataclasses.replace(
        mode, decode=lambda *a: decoded.append(a) or mode.decode(*a)))
    with pytest.raises(UndecidedError) as raised:
        engine.search("rprime", 6)
    assert (raised.value.low, [a[0] for a in decoded]) == (8, [7])
    assert raised.value.lower.to_json() == check("rprime", 6, 7).certificate.to_json()


# --- revalidate on malformed certificates ---------------------------------------


def _witness(params, value, **witness):
    return SearchCertificate("witness", params, value, **witness)


def _exhaustive(params, value, count):
    return SearchCertificate("exhaustive", params, value, scanned_count=count)


def _paley17() -> Graph:
    """The Paley graph on Z_17: ω = α = 3, so an ``rprime`` t=7 witness."""
    squares = {x * x % 17 for x in range(1, 17)}
    return Graph.from_edges(17, [(u, v) for u, v in pair_table(17) if v - u in squares])


def _greenwood_gleason() -> EdgeColoring:
    """The 3-colouring of K16 by the cubic-residue classes of GF(16) (x^4 =
    x + 1): {u, v} has the colour log(u + v) mod 3.  Each class is a
    triangle-free Clebsch graph, so an ``rprime_m`` m=3 t=7 witness."""
    log, x = {}, 1
    for e in range(15):
        log[x] = e
        x = x << 1 ^ (0b10011 if x & 8 else 0)
    return EdgeColoring(16, 3, tuple(log[u ^ v] % 3 for u, v in pair_table(16)))


def _bipartite(score: str, target: int) -> SearchCertificate:
    """A true ``score`` witness on 15 vertices (2^105 colourings, over the
    cap): K_{6,9} against K6 + K9, longest path 13 and longest cycle 12."""
    c = EdgeColoring(15, 2, tuple(int(not u < 6 <= v) for u, v in pair_table(15)))
    return _witness({"mode": "score", "score": score, "j": 1, "m": 2, "target": target,
                     "n_vertices": 15}, target - 1, witness_coloring=c.to_text())


# Witnesses whose sizes count more instances than ENUMERATION_CAP; rescoring
# them takes milliseconds.
ABOVE_THE_CAP = {
    "P17, rprime t=7":
        _witness({"mode": "rprime", "target": 7, "n_vertices": 17}, 6,
                 witness_graph6=write_graph6(_paley17())),
    "Greenwood-Gleason K16, rprime_m m=3 t=7":
        _witness({"mode": "rprime_m", "target": 7, "n_vertices": 16, "m": 3}, 6,
                 witness_coloring=_greenwood_gleason().to_text()),
    "Greenwood-Gleason K16, score clique j=3":
        _witness({"mode": "score", "score": "clique", "j": 3, "m": 3, "target": 7,
                  "n_vertices": 16}, 6, witness_coloring=_greenwood_gleason().to_text()),
    "wprime m=2 at length 41":  # the least failing colouring, AP lengths 4 + 3
        _witness({"mode": "wprime", "target": 8, "length": 41, "m": 2}, 7,
                 witness_coloring="abaabbabaaaabbaabababaabaaababbbaaaabaaaa"),
}


@pytest.mark.parametrize("deep", [False, True])
@pytest.mark.parametrize("case", sorted(ABOVE_THE_CAP))
def test_witnesses_above_the_cap_revalidate(case, deep):
    assert revalidate(ABOVE_THE_CAP[case], deep=deep) is True


MALFORMED = {
    "graph6 witness on rprime_m":
        _witness({"mode": "rprime_m", "target": 3, "n_vertices": 3, "m": 2}, 2,
                 witness_graph6="Bw"),
    "colouring witness on rprime":
        _witness({"mode": "rprime", "target": 5, "n_vertices": 3}, 4,
                 witness_coloring="3:aab"),
    "unknown mode":
        _witness({"mode": "bogus", "target": 5, "n_vertices": 3}, 4, witness_graph6="Bw"),
    "missing mode": _exhaustive({"target": 1, "n_vertices": 1}, 1, 1),
    "missing m":
        _witness({"mode": "rprime_m", "target": 3, "n_vertices": 3}, 2,
                 witness_coloring="3:aab"),
    "missing size": _exhaustive({"mode": "wprime", "target": 1, "m": 2}, 1, 2),
    "unparseable graph6":
        _witness({"mode": "rprime", "target": 5, "n_vertices": 3}, 4, witness_graph6="!!"),
    "bad colour letter":
        _witness({"mode": "rprime_m", "target": 3, "n_vertices": 3, "m": 2}, 2,
                 witness_coloring="3:abz"),
    "bad interval letter":
        _witness({"mode": "wprime", "target": 4, "length": 3, "m": 2}, 3,
                 witness_coloring="abz"),
    "j out of range":
        _witness({"mode": "score", "score": "clique", "j": 5, "m": 2, "target": 3,
                  "n_vertices": 3}, 2, witness_coloring="3:aab"),
    "unknown score, deep": _exhaustive({"mode": "score", "score": "bogus", "j": 1,
                                        "m": 2, "target": 1, "n_vertices": 2}, 1, 2),
    "m on a graph mode":
        _exhaustive({"mode": "rprime", "target": 2, "n_vertices": 2, "m": 2}, 2, 2),
    "stray parameter":
        _exhaustive({"mode": "ramsey", "target": 1, "n_vertices": 2, "x": 0}, 1, 2),
    "pruned false": _exhaustive({"mode": "rprime", "target": 2, "n_vertices": 2,
                                 "pruned": False}, 2, 2),
    "prune on a colouring mode":
        _exhaustive({"mode": "rprime_m", "target": 2, "n_vertices": 2, "m": 2,
                     "pruned": True}, 2, 1),
    # Orbit counts under reversal and colour swap, as intervals once recorded.
    "prune on an interval pass":
        _exhaustive({"mode": "wprime", "target": 3, "length": 3, "m": 2,
                     "pruned": True}, 3, 3),
    "prune on an interval witness":
        _witness({"mode": "wprime", "target": 4, "length": 5, "m": 2, "pruned": True}, 3,
                 witness_coloring="aabaa"),
    "m out of range": _exhaustive({"mode": "wprime", "target": 1, "length": 1, "m": 9},
                                  1, 9),
    "target as text": _exhaustive({"mode": "rprime", "target": "2", "n_vertices": 2},
                                  "2", 2),
    "size as bool": _exhaustive({"mode": "rprime", "target": 1, "n_vertices": True}, 1, 1),
    "zero target": _exhaustive({"mode": "rprime", "target": 0, "n_vertices": 2}, 0, 2),
    "witness with a count":
        SearchCertificate("witness", {"mode": "rprime", "target": 5, "n_vertices": 3}, 4,
                          witness_graph6="Bw", scanned_count=8),
    "witness text not a string":
        _witness({"mode": "rprime", "target": 5, "n_vertices": 3}, 4, witness_graph6=7),
    "count past the cap": _exhaustive({"mode": "rprime", "target": 1, "n_vertices": 65},
                                      1, 2 ** pair_count(65)),
    "parameters not a dict": _exhaustive(["rprime"], 1, 1),
    "removed mode ramsey_m":
        _witness({"mode": "ramsey_m", "m": 2, "n_vertices": 3, "target": 3}, 2,
                 witness_coloring="3:baa"),
    "graph witness of another size":
        _witness({"mode": "rprime", "target": 5, "n_vertices": 6}, 4, witness_graph6="DLo"),
    "colouring witness of another size":
        _witness({"mode": "rprime_m", "target": 5, "n_vertices": 6, "m": 2}, 4,
                 witness_coloring="5:aabbabbbaa"),
    "interval witness of another length":
        _witness({"mode": "wprime", "target": 4, "length": 6, "m": 2}, 3,
                 witness_coloring="aabaa"),
    # Each below differs from a certificate ``check`` emits in one detail only.
    "witness value as a float":
        _witness({"mode": "wprime", "target": 4, "length": 5, "m": 2}, 3.0,
                 witness_coloring="aabaa"),
    "graph6 with its header":
        _witness({"mode": "rprime", "target": 5, "n_vertices": 5}, 4,
                 witness_graph6=">>graph6<<DLo"),
    "graph6 with whitespace":
        _witness({"mode": "rprime", "target": 5, "n_vertices": 5}, 4,
                 witness_graph6=" DLo\n"),
    "interval in b/w letters":
        _witness({"mode": "wprime", "target": 4, "length": 5, "m": 2}, 3,
                 witness_coloring="bbwbb"),
    "interval with a trailing space":
        _witness({"mode": "wprime", "target": 4, "length": 5, "m": 2}, 3,
                 witness_coloring="aabaa "),
    "colouring size with a leading zero":
        _witness({"mode": "rprime_m", "target": 5, "n_vertices": 5, "m": 2}, 4,
                 witness_coloring="05:aabbabbbaa"),
    "colouring size with a plus sign":
        _witness({"mode": "rprime_m", "target": 5, "n_vertices": 5, "m": 2}, 4,
                 witness_coloring="+5:aabbabbbaa"),
    # P17 is the only graph on 17 vertices with ω, α <= 3: any flip raises one.
    "P17 with one edge flipped":
        _witness({"mode": "rprime", "target": 7, "n_vertices": 17}, 6,
                 witness_graph6=write_graph6(Graph.from_code(17, _paley17().code ^ 1))),
}


@pytest.mark.parametrize("deep", [False, True])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_revalidate_rejects_malformed_certificates(case, deep):
    assert revalidate(MALFORMED[case], deep=deep) is False


def test_deep_revalidate_reruns_under_the_certificates_own_count():
    # 2^21 colourings of K7: over the score mode's default budget of 2^20.
    cert = check("score", 8, 7, m=2, j=2, score="path", budget=2**21).certificate
    assert cert.kind == "exhaustive" and cert.scanned_count == 2**21
    assert revalidate(cert) is True
    assert revalidate(cert, deep=True) is True


def test_forged_certificate_past_the_cap_is_rejected_without_a_rerun(monkeypatch):
    def rerun(*args, **kwargs):
        raise AssertionError("revalidate reran a check past the enumeration cap")

    monkeypatch.setattr(engine, "_check", rerun)
    n = 10  # 2^45 labeled graphs, over the 2^40 cap
    forged = _exhaustive({"mode": "rprime", "target": 7, "n_vertices": n}, 7,
                         2 ** pair_count(n))
    assert revalidate(forged) is False
    assert revalidate(forged, deep=True) is False


@pytest.mark.parametrize("cert", [
    _exhaustive({"mode": "wprime", "target": 9, "length": 41, "m": 2}, 9, 2 ** 41),
    # true witnesses, but rescoring a path or cycle on 15 vertices takes minutes
    _bipartite("path", 14),
    _bipartite("cycle", 13),
], ids=["wprime exhaustive", "score path witness", "score cycle witness"])
def test_past_the_cap_only_clique_and_ap_witnesses_are_rescored(monkeypatch, cert):
    def rescore(*args, **kwargs):
        raise AssertionError("revalidate reran or rescored past the enumeration cap")

    monkeypatch.setattr(engine, "_check", rescore)
    monkeypatch.setattr(engine, "emit", rescore)
    assert revalidate(cert) is False
    assert revalidate(cert, deep=True) is False


# --- mutation ---------------------------------------------------------------------


@st.composite
def emitted(draw):
    """A certificate from one small check of any mode."""
    mode = draw(st.sampled_from(sorted(MODES)))
    target = draw(st.integers(1, 7))
    if mode in ("rprime", "ramsey"):
        return check(mode, target, draw(st.integers(1, 5)), prune=draw(st.booleans()))
    if mode in ("wprime", "vdw"):
        return check(mode, target, draw(st.integers(1, 8)), m=draw(st.integers(1, 3)))
    m = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4 if m == 2 else 3))
    if mode == "score":
        return check(mode, target, n, m=m, j=draw(st.integers(1, m)),
                     score=draw(st.sampled_from(["clique", "cycle", "path"])))
    return check(mode, target, n, m=m)


def _mutants(cert: SearchCertificate):
    """Off by one, written as a float, or (where it is 1) as true: the value
    and any scanned count."""
    d = cert.to_json_dict()
    for key in ("value", "scanned_count"):
        x = d[key]
        if x is not None:
            for wrong in (x - 1, x + 1, float(x)) + ((True,) if x == 1 else ()):
                yield SearchCertificate.from_json_dict(dict(d, **{key: wrong}))


@settings(max_examples=150)
@given(emitted())
def test_emitted_certificates_revalidate_and_mutants_do_not(outcome):
    cert = outcome.certificate
    assert revalidate(cert, deep=True)
    for mutant in _mutants(cert):
        assert not revalidate(mutant)
        assert not revalidate(mutant, deep=True)
