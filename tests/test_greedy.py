"""Greedy extraction: guarantees, traces, replay, pick rules, sweeps."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import edge_colorings, graphs, random_graph
from ramseykit import (BudgetError, EdgeColoring, Graph, GreedyStep, GreedyTrace, bits,
                       disjoint_guarantee_floor, family_guarantee_floor,
                       family_sum_value, greedy_family, greedy_pair_disjoint,
                       greedy_pair_overlap, labeled_graph_count, mask_of,
                       overlap_guarantee_floor, pair_count, pair_guarantee_sweep,
                       pair_sum_value, pick_highest_degree, pick_lowest,
                       replay_family_trace, replay_pair_trace, seeded_pick,
                       WitnessFamily, WitnessPair)
from ramseykit import greedy
from ramseykit.graphs import (_decode_adj, _mask_is_clique, _mask_is_independent,
                              _upper_code)


def test_disjoint_on_cycle5_frozen_trace():
    g = Graph.cycle(5)
    pair, trace = greedy_pair_disjoint(g)
    assert sorted(bits(pair.a)) == [2, 3]
    assert sorted(bits(pair.b)) == [0]
    assert pair.value == 3
    assert [(s.vertex, s.branch, s.remaining) for s in trace.steps] == [
        (0, "nonneighbor-side", 5),
        (2, "terminal-clique", 2),
        (3, "terminal-clique", 1),
    ]
    assert trace.result == pair


def test_overlap_on_cycle5():
    pair, trace = greedy_pair_overlap(Graph.cycle(5))
    assert sorted(bits(pair.a)) == [0, 4]
    assert sorted(bits(pair.b)) == [1, 4]
    assert pair.value == 4
    assert (pair.a & pair.b).bit_count() == 1
    assert trace.steps[-1].branch == "base-both"


def test_variants_on_complete_and_empty():
    k4 = Graph.complete(4)
    pd, _ = greedy_pair_disjoint(k4)
    assert sorted(bits(pd.a)) == [0, 1, 2] and pd.b == 0
    po, _ = greedy_pair_overlap(k4)
    assert sorted(bits(po.a)) == [0, 1, 2, 3] and sorted(bits(po.b)) == [3]
    assert po.value == 5

    e8 = Graph.empty(8)
    pe, _ = greedy_pair_disjoint(e8)
    assert pe.a == 0 and pe.value == 7


def test_disjoint_needs_two_vertices():
    with pytest.raises(ValueError):
        greedy_pair_disjoint(Graph.empty(1))
    pair, _ = greedy_pair_overlap(Graph.empty(1))
    assert pair.value == 2  # the lone vertex counts on both sides


def test_guarantee_floor_values():
    assert [disjoint_guarantee_floor(n) for n in (2, 3, 4, 7, 8, 64)] \
        == [2, 2, 3, 3, 4, 7]
    assert [overlap_guarantee_floor(n) for n in (1, 2, 4, 64)] == [2, 3, 4, 8]
    assert family_guarantee_floor(1, 3) == 3
    assert family_guarantee_floor(2, 2) == 3
    assert family_guarantee_floor(3, 2) == 3
    assert family_guarantee_floor(4, 2) == 4
    assert family_guarantee_floor(13, 3) == 5
    assert family_guarantee_floor(14, 3) == 6
    with pytest.raises(ValueError):
        disjoint_guarantee_floor(1)
    with pytest.raises(ValueError):
        overlap_guarantee_floor(0)
    with pytest.raises(ValueError):
        family_guarantee_floor(1, 1)


def _assert_pair_contract(g, pair, disjoint: bool):
    assert g.is_clique(pair.a)
    assert g.is_independent(pair.b)
    if disjoint:
        assert pair.a & pair.b == 0
        assert pair.value >= disjoint_guarantee_floor(g.n)
    else:
        assert (pair.a & pair.b).bit_count() <= 1
        assert pair.value >= overlap_guarantee_floor(g.n)


def test_exhaustive_contract_small_graphs():
    for n in range(2, 6):
        for code in range(labeled_graph_count(n)):
            g = Graph.from_code(n, code)
            exact = pair_sum_value(g)
            pd, td = greedy_pair_disjoint(g)
            _assert_pair_contract(g, pd, disjoint=True)
            assert pd.value <= exact
            assert replay_pair_trace(g, td) == pd
            po, to = greedy_pair_overlap(g)
            _assert_pair_contract(g, po, disjoint=False)
            assert po.value <= exact
            assert replay_pair_trace(g, to) == po


def test_random_contract_large_graphs():
    rng = random.Random(1307)
    for _ in range(10_000):
        n = rng.randint(1, 64)
        g = random_graph(rng, n)
        po, _ = greedy_pair_overlap(g)
        _assert_pair_contract(g, po, disjoint=False)
        if n >= 2:
            pd, _ = greedy_pair_disjoint(g)
            _assert_pair_contract(g, pd, disjoint=True)


@given(graphs(min_n=2, max_n=10))
def test_greedy_never_beats_exact(g):
    assert greedy_pair_disjoint(g)[0].value <= pair_sum_value(g)
    assert greedy_pair_overlap(g)[0].value <= pair_sum_value(g)


@given(graphs(min_n=2, max_n=32), st.integers(0, 2**32 - 1))
def test_contracts_hold_for_any_pick_rule(g, seed):
    for pick in (pick_lowest, pick_highest_degree, seeded_pick(seed)):
        pd, td = greedy_pair_disjoint(g, pick=pick)
        _assert_pair_contract(g, pd, disjoint=True)
        assert replay_pair_trace(g, td) == pd
        po, to = greedy_pair_overlap(g, pick=pick)
        _assert_pair_contract(g, po, disjoint=False)
        assert replay_pair_trace(g, to) == po


def test_seeded_pick_is_reproducible():
    g = Graph.from_code(7, 901347)
    first = greedy_pair_overlap(g, pick=seeded_pick(9))
    second = greedy_pair_overlap(g, pick=seeded_pick(9))
    assert first == second


def test_seeded_pick_matches_a_list_reference():
    # The rule returns the k-th lowest remaining vertex for k drawn from the
    # remaining count, so it picks what indexing the listed vertices picks.
    rng = random.Random(20)
    for _ in range(2_000):
        seed = rng.getrandbits(32)
        pick, ref = seeded_pick(seed), random.Random(seed)
        mask = rng.getrandbits(rng.randint(1, 64)) | 1 << rng.randrange(64)
        while mask:
            vs = list(bits(mask))
            v = pick(mask)
            assert v == vs[ref.randrange(len(vs))], (seed, mask)
            mask &= ~(1 << v) & rng.getrandbits(64)


def test_highest_degree_rule_on_star():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    pair, trace = greedy_pair_disjoint(star, pick=pick_highest_degree)
    assert trace.steps[0].vertex == 0
    assert trace.steps[0].branch == "neighbor-side"
    assert sorted(bits(pair.a)) == [0]
    assert sorted(bits(pair.b)) == [1, 2]


def test_family_on_known_coloring():
    c = EdgeColoring(3, 2, (0, 0, 1))
    fam, trace = greedy_family(c)
    assert [sorted(bits(p)) for p in fam.parts] == [[0, 2], [1, 2]]
    assert fam.value == 4
    assert fam.validate(c)
    assert replay_family_trace(c, trace) == fam
    assert trace.steps[-1].branch == "base"


def test_family_exhaustive_small():
    cases = [(n, 2) for n in (1, 2, 3, 4)] + [(n, 3) for n in (1, 2, 3)]
    for n, m in cases:
        for code in range(m ** pair_count(n)):
            c = EdgeColoring.from_code(n, m, code)
            fam, trace = greedy_family(c)
            assert fam.validate(c)
            assert fam.value >= family_guarantee_floor(n, m)
            assert fam.value <= family_sum_value(c)
            assert replay_family_trace(c, trace) == fam


@given(edge_colorings(max_n=6, max_m=4))
def test_family_contract_random(c):
    fam, trace = greedy_family(c)
    assert fam.validate(c)
    assert fam.value >= family_guarantee_floor(c.n, c.m)
    assert replay_family_trace(c, trace) == fam


def test_replay_rejects_wrong_graph():
    c5 = Graph.cycle(5)
    _, trace = greedy_pair_disjoint(c5)
    with pytest.raises(ValueError):
        replay_pair_trace(Graph.complete(5), trace)
    c = EdgeColoring(3, 2, (0, 0, 1))
    _, ftrace = greedy_family(c)
    with pytest.raises(ValueError):
        replay_family_trace(EdgeColoring(4, 2, (0,) * 6), ftrace)

    # Forged traces on the right host: replay reruns the rule, so a step the
    # rule would not take is rejected even where the counts stay consistent.
    first, t1, t2 = trace.steps
    relabelled = [first] + [GreedyStep(s.vertex, "terminal-independent", s.remaining)
                            for s in (t1, t2)]  # would claim B = {0, 2, 3}
    star = Graph.from_edges(6, [(0, 1), (0, 2)])  # vertex 0: 2 neighbours, 3 others
    minority = [GreedyStep(0, "neighbor-side", 6), GreedyStep(1, "terminal-independent", 2),
                GreedyStep(2, "terminal-independent", 1)]
    for g, steps in ((c5, relabelled), (c5, [first]), (star, minority)):
        with pytest.raises(ValueError):
            replay_pair_trace(g, GreedyTrace(tuple(steps), trace.result))
    appended = ftrace.steps + (GreedyStep(0, "base", 1),)
    with pytest.raises(ValueError):
        replay_family_trace(c, GreedyTrace(appended, ftrace.result))

    # The recorded steps are right but the recorded witness is not the rerun's.
    with pytest.raises(ValueError):  # {0..4} is no clique of C5
        replay_pair_trace(c5, GreedyTrace(trace.steps, WitnessPair(0b11111, 0)))
    parts = ftrace.result.parts
    changed = WitnessFamily((parts[0] ^ 1,) + parts[1:])
    with pytest.raises(ValueError):
        replay_family_trace(c, GreedyTrace(ftrace.steps, changed))


def test_trace_serialization_shape():
    g = Graph.cycle(5)
    _, trace = greedy_pair_disjoint(g)
    d = trace.to_json_dict()
    assert d["result"] == {"a": [2, 3], "b": [0]}
    assert d["steps"][0] == {"vertex": 0, "branch": "nonneighbor-side",
                             "remaining": 5}


def test_sweep_counts_and_merging():
    for n in range(2, 6):
        checked, violation = pair_guarantee_sweep(n)
        assert checked == labeled_graph_count(n)
        assert violation is None
    serial = pair_guarantee_sweep(5, threads=1)
    sharded = pair_guarantee_sweep(5, threads=3)
    assert serial == sharded
    with pytest.raises(ValueError):
        pair_guarantee_sweep(1)
    with pytest.raises(BudgetError):
        pair_guarantee_sweep(11)


@pytest.mark.parametrize("floor_name, expected", [
    (None, (268_435_456, None)),
    ("disjoint_guarantee_floor", (12, 11)),
    ("overlap_guarantee_floor", (80, 79)),
])
def test_sweep_at_eight_vertices(monkeypatch, floor_name, expected):
    # Every graph on 8 vertices meets both floors, and a floor raised by one
    # is still caught there, at the least code the per-code scan stops at.
    if floor_name:
        real = getattr(greedy, floor_name)
        monkeypatch.setattr(greedy, floor_name, lambda n: real(n) + 1)
    assert pair_guarantee_sweep(8) == expected
    if floor_name:
        assert _violates(8, expected[1])
        assert not any(_violates(8, c) for c in range(expected[1]))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
           st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))),
       st.booleans(), st.sampled_from([pick_lowest, pick_highest_degree]))
def test_a_suspended_run_resumes_to_the_uninterrupted_one(host, overlap, rule):
    # Decline the k-th pick for every k the run makes, then resume from the
    # state handed back: the steps and the result are the whole run's.
    n, code = host
    adj = _decode_adj(n, code)
    whole = []
    expected = greedy._pair_core(adj, n, rule, whole, overlap)
    k = 0
    while True:
        calls = 0

        def pick(mask, adj=None):
            nonlocal calls
            calls += 1
            return None if calls == k + 1 else rule(mask, adj)

        record = []
        out = greedy._pair_core(adj, n, pick, record, overlap)
        if calls <= k:  # the run made k picks or fewer, so none declined
            assert out == expected and record == whole
            break
        state = out
        assert len(state) == 3 and not state[2] & (state[0] | state[1])
        assert greedy._pair_core(adj, n, rule, record, overlap, state) == expected
        assert record == whole, k
        k += 1


def _violates(n: int, code: int) -> bool:
    """Does either pair variant break its contract on graph ``code``?"""
    adj = _decode_adj(n, code)
    for overlap, floor in ((False, greedy.disjoint_guarantee_floor(n)),
                           (True, greedy.overlap_guarantee_floor(n))):
        a, b = greedy._pair_core(adj, n, pick_lowest, None, overlap)
        if ((a & b).bit_count() > overlap or a.bit_count() + b.bit_count() < floor
                or not _mask_is_clique(adj, a) or not _mask_is_independent(adj, b)):
            return True
    return False


def _sweep_oracle(n: int, start: int, stop: int):
    """Per-code reference for the sweep: decode each code afresh and stop at
    the first violation; returns (codes checked, that code or None)."""
    for checked, code in enumerate(range(start, stop), 1):
        if _violates(n, code):
            return checked, code
    return stop - start, None


@pytest.mark.parametrize("floor_name", [None, "disjoint_guarantee_floor",
                                        "overlap_guarantee_floor"])
def test_sweep_matches_per_code_decoding(monkeypatch, floor_name):
    # No graph violates the real floors, so to reach the least violating
    # code, demand one vertex more than either variant guarantees.  The
    # result is the serial per-code one at every thread count.
    if floor_name:
        real = getattr(greedy, floor_name)
        monkeypatch.setattr(greedy, floor_name, lambda n: real(n) + 1)
    for n in range(2, 7):
        expected = _sweep_oracle(n, 0, labeled_graph_count(n))
        assert (expected[1] is None) == (floor_name is None)
        for threads in (1, 2, 3):
            assert pair_guarantee_sweep(n, threads=threads) == expected, (n, threads)


@pytest.mark.parametrize("side", ["a", "b"])
def test_sweep_catches_a_result_the_rule_did_not_earn(monkeypatch, side):
    # A mutant core adds to A (or B) the top vertex outside both sets; its
    # pairs with later pivots were never read, so only checking a cube on
    # its worst completion finds the graphs where that breaks.  The failing
    # cubes must cover exactly the violating graphs, and the sweep must
    # report the least of them.
    core = greedy._pair_core
    check = greedy._sweep_check

    def mutant(adj, n, pick, record, overlap, start=None):
        out = core(adj, n, pick, record, overlap, start)
        if len(out) == 3:  # suspended: pass its state through
            return out
        a, b = out
        rest = ((1 << n) - 1) & ~(a | b)
        top = 1 << rest.bit_length() - 1 if rest else 0
        return (a | top, b) if side == "a" else (a, b | top)

    failing = set()

    def spy(ones, free, a, b, overlap, floor):
        out = check(ones, free, a, b, overlap, floor)
        if out is True:  # every completion of the free pairs fails
            n = len(ones)
            base, open_ = _upper_code(ones, n), _upper_code(free, n)
            sub = open_
            while True:
                failing.add(base | sub)
                if not sub:
                    break
                sub = (sub - 1) & open_
        return out

    monkeypatch.setattr(greedy, "_pair_core", mutant)
    monkeypatch.setattr(greedy, "_sweep_check", spy)
    for n in range(2, 7):
        failing.clear()
        got = pair_guarantee_sweep(n)
        violating = {c for c in range(labeled_graph_count(n)) if _violates(n, c)}
        assert failing == violating, n
        assert bool(violating) == (n > 2)
        least = min(violating, default=None)
        assert got == ((least + 1, least) if violating else (labeled_graph_count(n), None))


def test_sweep_splits_only_on_pairs_the_rule_reads(monkeypatch):
    # One leaf per overlap run that finishes (none fails at the real floors):
    # 600 cubes cover the 32,768 graphs on 6 vertices, 3,600 the 2,097,152
    # on 7, where the per-code sweep took seconds.  The disjoint variant
    # settles on larger cubes and is not rerun inside them, a pivot's free
    # row splits at once, and the disjoint ending splits on the one pair it
    # reads, so there are fewer runs than rerunning both variants after each
    # single-pair split took (2,207 at n=6), or than splitting the ending on
    # both picks' rows did (728 and 704 leaves, 1,889 runs at n=6).  A run
    # is one _pair_core call, from the root or resumed where its cube split.
    leaves = []
    runs = 0
    core = greedy._pair_core
    check = greedy._sweep_check

    def run_spy(*args):
        nonlocal runs
        runs += 1
        return core(*args)

    def check_spy(ones, free, a, b, overlap, floor):
        out = check(ones, free, a, b, overlap, floor)
        if isinstance(out, bool):  # settled, not split
            leaves.append(overlap)
        return out

    monkeypatch.setattr(greedy, "_pair_core", run_spy)
    monkeypatch.setattr(greedy, "_sweep_check", check_spy)
    assert pair_guarantee_sweep(6) == (32_768, None)
    assert leaves.count(True) == 600
    assert leaves.count(False) == 320
    assert runs <= 1_377
    leaves.clear()
    start = time.perf_counter()
    assert pair_guarantee_sweep(7, threads=2) == (2_097_152, None)
    assert time.perf_counter() - start < 5.0
    assert leaves.count(True) == 3_600
    assert leaves.count(False) == 1_880
