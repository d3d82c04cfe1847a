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
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseykit import (EdgeColoring, Graph, SearchCertificate, ScoreKind,
                       check_universal, check_universal_ap_sum,
                       check_universal_score, cli, clique_number,
                       family_sum_value, independence_number,
                       pair_guarantee_sweep, pair_sum_value, revalidate,
                       score_sum, write_graph6)
import ramseykit
from ramseykit import engine, graphs, vdw
from ramseykit.engine import MODES, check
from ramseykit.exact import _has_clique, _omega
from ramseykit.graphs import pair_count, pair_table


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
                    cert = check_universal_score(target, n, score, m=m, j=j).certificate
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
                     check_universal_score(target, 5, score, m=2, j=j))
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
}


@pytest.mark.parametrize("case", sorted(FULL_LEVELS))
def test_each_level_is_exactly_the_failing_codes(monkeypatch, case):
    """Every level below the last size holds exactly the failing codes, in
    ascending order, each with its class scores and the adjacency rows of
    its colour classes (carried from parent to child as one word per class,
    byte u being row u, never decoded)."""
    mode, target, size, m, j, score, budget = FULL_LEVELS[case]
    levels = {k: [] for k in range(1, size)}
    real = engine._extend

    def spy(parents, k, *args):
        for code, per, rows in real(parents, k, *args):
            if k < size:
                levels[k].append((code, bytes(per),
                                  [list(w.to_bytes(k, "little")) for w in rows]))
            yield code, per, rows

    monkeypatch.setattr(engine, "_extend", spy)
    cert = check(mode, target, size, m, j, score, budget).certificate
    text = cert.witness_graph6 or cert.witness_coloring
    if text is not None:
        assert MODES[mode].read(text, m).code >= m ** pair_count(size - 1)
    kind = ScoreKind(score)
    for k, level in levels.items():
        expected = []
        for code, value in enumerate(_values(mode, k, m, j, score)):
            if value < target:
                c = EdgeColoring.from_code(k, m, code)
                expected.append((code, bytes(score_sum(c, kind, 1)[1].per_color),
                                 [list(c.color_class(d).adj) for d in range(m)]))
        assert level == expected, (case, k)
    if case == "rprime-6":
        assert [len(level) for level in levels.values()] == [1, 2, 8, 64, 632, 5624]


def test_each_failing_code_is_grown_once_and_none_is_decoded(monkeypatch):
    """Rows are built once per failing code, from its parent's rows: the
    failing codes on 1..6 vertices (1 + 2 + 8 + 64 + 632 + 5,624) and the
    witness.  The scan itself decodes no code."""
    grown, decoded = [], []
    real_grow, real_decode = engine._grow, graphs._decode_adj
    monkeypatch.setattr(engine, "_grow", lambda *a: grown.append(a) or real_grow(*a))
    monkeypatch.setattr(graphs, "_decode_adj",
                        lambda *a: decoded.append(a) or real_decode(*a))
    code = engine._labeled_scan("rprime", 7, 2, 2, "clique", 6)
    assert (len(grown), len(decoded)) == (6331 + 1, 0)
    assert write_graph6(Graph.from_code(7, code)) == "F@Tc?"


@st.composite
def tabled_parents(draw):
    """A failing parent on v vertices, its class clique numbers from
    ``_omega``, and its failing rule: m = 2 with v <= 7, and m = 3..8 with
    at most 1,024 highs (every m a clique scan builds tables for).  The rule
    is a largest or a j-best-sum class score below a target that the
    children can reach only with up to m + 1 increments."""
    m = draw(st.integers(2, 8))
    v = draw(st.integers(1, max(v for v in range(8) if m ** v <= 1024)))
    coloring = EdgeColoring.from_code(v, m, draw(st.integers(0, m ** pair_count(v) - 1)))
    rows = [list(coloring.color_class(d).adj) for d in range(m)]
    per = bytes(_omega(adj, (1 << v) - 1) for adj in rows)
    j = draw(st.integers(1, m))
    if draw(st.booleans()):
        value = lambda per: max(per)
    else:
        value = lambda per: sum(sorted(per, reverse=True)[:j])
    target = value(per) + draw(st.integers(1, m + 1))
    return v, m, rows, per, lambda per: value(per) < target


@settings(max_examples=150)
@given(tabled_parents())
def test_tables_match_the_kernel_at_every_high(case):
    """A failing parent's table gives, for every high, the same class-score
    increments and the same verdict as one ``_has_clique`` per class."""
    v, m, rows, per, fails = case
    failing, gains = engine._table(rows, per, engine._passing(per, fails),
                                   engine._masks(v, m))
    assert failing >> m ** v == 0 and all(g >> m ** v == 0 for g in gains)
    for high in range(m ** v):
        nbrs = [0] * m
        for u in range(v):
            nbrs[high // m ** u % m] |= 1 << u
        ups = [int(_has_clique(rows[d], nbrs[d], per[d])) for d in range(m)]
        assert [g >> high & 1 for g in gains] == ups, high
        assert bool(failing >> high & 1) == fails(bytes(map(sum, zip(per, ups)))), high


def test_a_table_fault_reaches_the_oracle(monkeypatch):
    """Tables that look for (s-1)-cliques where a parent's clique number is
    s make ``check`` disagree with the loop over every code at n <= 6: the
    switch to tables happens within reach of the oracles."""
    real = engine._table
    monkeypatch.setattr(engine, "_table", lambda rows, per, passing, masks: real(
        rows, bytes(max(s - 1, 0) for s in per), passing, masks))
    wrong = {(mode, m, target, n)
             for mode, m in (("rprime", 2), ("ramsey", 2), ("rprime_m", 3))
             for n in range(2, 7 - (m > 2)) for target in range(2, 7)
             if _as_triple(check(mode, target, n, m).certificate)
             != _full_scan(mode, target, n, m)}
    assert {mode for mode, *_ in wrong} == {"rprime", "ramsey", "rprime_m"}


def test_the_last_level_tables_and_grows_only_up_to_its_witness(monkeypatch):
    """rprime_m m=3 target 6 on 5 vertices has its witness (code 3195) at
    high 4, where the last level switches to tables: tables are built one
    parent at a time up to the witness's parent, and only the witness is
    grown there."""
    base = 3 ** pair_count(4)
    high, low = divmod(3195, base)
    assert high == engine._TABLE_SWITCH[1]
    failing = {k: [c for c, v in enumerate(_values("rprime_m", k, 3)) if v < 6]
               for k in range(1, 5)}
    events = []
    real_table, real_grow = engine._table, engine._grow
    monkeypatch.setattr(engine, "_table", lambda rows, *a: events.append(len(rows[0]))
                        or real_table(rows, *a))
    monkeypatch.setattr(engine, "_grow", lambda *a: events.append("grow") or real_grow(*a))
    assert engine._labeled_scan("rprime_m", 5, 3, 3, "clique", 6) == 3195
    last = events.index(4)  # the last level's first table: parents on 4 vertices
    assert events[last:].count(4) == failing[4].index(low) + 1
    assert events[last:].count("grow") == 1
    assert events.count("grow") == sum(map(len, failing.values())) + 1


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
    v, m, rows, per, _ = case
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
    name = draw(st.sampled_from([name for name in sorted(MODES) if name != "wprime"]))
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
    for name, m in (("rprime", 2), ("ramsey", 2), ("rprime_m", 3)):
        for score in ("cycle", "path"):
            assert check(name, 5, 4, m=m, score=score) == check(name, 5, 4, m=m), \
                (name, score)


@pytest.mark.parametrize("args, kwargs", [
    (("score", 3), {"j": 5, "budget": 0}),
    (("rprime", 0), {"budget": 0}),
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
    assert check_universal_score(5, 4, "path", m=2, j=2).ok
    assert cli.main(["search", "rprime", "--n", "5", "--threads", "8",
                     "--cache", str(tmp_path / "r.jsonl"), "--json"]) == 0
    assert pair_guarantee_sweep(5, threads=2) == (1024, None)


def test_import_loads_no_pool_modules():
    # A fresh interpreter that imports the package leaves the process-pool
    # modules unloaded, which keeps every command's cold start short.
    src = Path(ramseykit.__file__).resolve().parent.parent
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import ramseykit; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, str(src)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_registry_rows():
    assert sorted(MODES) == sorted(["rprime", "ramsey", "rprime_m", "score", "wprime"])
    assert MODES["wprime"].count(5, 3) == 3**5
    assert MODES["score"].count(4, 3) == 3**6
    assert MODES["rprime"].pruned(1, 2) == 1 and MODES["rprime"].pruned(4, 2) == 32


@pytest.mark.parametrize("name, target, kwargs", [
    ("rprime", 5, {}), ("ramsey", 3, {}), ("rprime_m", 5, {"m": 3}),
    ("score", 4, {"m": 2, "j": 1, "score": "path"}), ("wprime", 5, {"m": 2}),
])
def test_check_parses_no_witness_text_and_decodes_each_witness_once(monkeypatch, name,
                                                                    target, kwargs):
    """A witness stays a code until ``emit`` decodes it and writes its text:
    a search decodes one instance per failing size and parses no text."""
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
    assert [a[0] for a in decoded] == list(range(1, result.value))


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

    monkeypatch.setattr(engine, "check", rerun)
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

    monkeypatch.setattr(engine, "check", rescore)
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
    if mode == "wprime":
        m = draw(st.integers(1, 3))
        return check_universal_ap_sum(target, draw(st.integers(1, 8)), m,
                                      prune=draw(st.booleans()))
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
