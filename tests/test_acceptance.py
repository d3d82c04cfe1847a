"""Acceptance gate.

One test per advertised claim, each asserting both the value and its time
budget, so `pytest -v tests/test_acceptance.py` prints one pass/fail line
per criterion.
"""

import json
import os
import random
import subprocess
import sys
import time

import ramseykit
from ramseykit import (
    Graph,
    IntervalColoring,
    ap_sum,
    ap_sum_threshold,
    classical_ap_check,
    clique_indep_pair,
    clique_number,
    independence_number,
    multicolor_ramsey_bound,
    pair_guarantee_sweep,
    pair_sum_bruteforce,
    pair_sum_value,
    parse_graph6,
    search_threshold,
    two_color_ramsey_bound,
)


def timed(budget_s: float, fn):
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    assert dt < budget_s, f"took {dt:.3f}s, budget {budget_s}s"
    return out


def test_c01_pair_sum_threshold_at_four_is_three():
    """Every graph on 3 vertices scores >= 4; some graph on 2 does not."""
    r = timed(1.0, lambda: search_threshold("rprime", 4))
    assert r.value == 3 and r.exact


def test_c02_both_thresholds_at_six_with_five_cycle_counterexample():
    """Pair-sum target 5 and triangle target agree at 6 after a full
    32768-graph scan, and the last counterexample is the 5-cycle."""
    def go():
        return search_threshold("rprime", 5), search_threshold("ramsey", 3)

    rp, rt = timed(5.0, go)
    assert rp.value == 6 and rt.value == 6
    for r in (rp, rt):
        assert r.upper.scanned_count == 32768
        g = parse_graph6(r.lower.witness_graph6)
        # 2-regular on 5 vertices forces a single 5-cycle
        assert g.n == 5 and all(g.degree(v) == 2 for v in range(5))
    assert rp.lower.witness_graph6 == "DLo"
    assert pair_sum_value(parse_graph6(rp.lower.witness_graph6)) == 4


def test_c03_five_cycle_pair_statistics():
    """omega = alpha = 2 on the 5-cycle, so the pair scores 4; microseconds
    once bytecode and pair tables are warm."""
    g = Graph.cycle(5)
    clique_indep_pair(g)  # warm: pair table + code paths
    t0 = time.perf_counter()
    pair = clique_indep_pair(g)
    dt = time.perf_counter() - t0
    assert pair.value == 4
    assert clique_number(g) == 2 and independence_number(g) == 2
    assert dt < 0.001, f"took {dt * 1e6:.0f}us, budget 1ms"


def test_c04_three_vertex_census():
    """The four graphs on 3 vertices have max clique sizes 1, 2, 2, 3 and
    all score exactly 4."""
    codes = (0, 1, 3, 7)
    for g in (Graph.cycle(3),):
        clique_number(g)  # warm
    t0 = time.perf_counter()
    sizes = [clique_number(Graph.from_code(3, c)) for c in codes]
    values = [pair_sum_value(Graph.from_code(3, c)) for c in codes]
    dt = time.perf_counter() - t0
    assert sizes == [1, 2, 2, 3]
    assert values == [4, 4, 4, 4]
    assert dt < 0.001, f"took {dt * 1e6:.0f}us, budget 1ms"


def test_c05_family_sum_thresholds_start_one_two_three():
    """For m = 2 and 3 colors, the first three family-sum thresholds are
    1, 2, 3 at targets m, m+1, m+2."""
    def go():
        return {m: [search_threshold("rprime_m", m + k, m=m).value for k in range(3)]
                for m in (2, 3)}

    table = timed(1.0, go)
    assert table == {2: [1, 2, 3], 3: [1, 2, 3]}


def test_c06_interval_sum_thresholds_and_example_coloring():
    """First interval-sum thresholds 1, 2, 3, 6; the coloring bbwbb of
    1..5 scores 2 + 1 = 3."""
    def go():
        return [ap_sum_threshold(2, t).value for t in range(1, 5)]

    assert timed(1.0, go) == [1, 2, 3, 6]
    total, profile = ap_sum(IntervalColoring.from_text("bbwbb", 2))
    assert total == 3 and profile == (2, 1)


def test_c07_closed_form_bounds_coincide_at_two_colors():
    """The multicolor bound at m = 2 reproduces the two-color bound for
    n = 2..10."""
    t0 = time.perf_counter()
    for n in range(2, 11):
        assert multicolor_ramsey_bound(n, 2) == two_color_ramsey_bound(n)
    dt = time.perf_counter() - t0
    assert dt < 0.001, f"took {dt * 1e6:.0f}us, budget 1ms"


def test_c08_inequality_suite():
    """Computed thresholds satisfy the expected chains: doubling of the
    pair-sum thresholds, triangle threshold below pair-sum target 5,
    family-sum recursion for m = 2, 3, and the classical interval number
    sitting at the interval-sum threshold."""
    def go():
        rp = {n: search_threshold("rprime", n).value for n in (2, 3, 4, 5)}
        assert all(rp[n + 1] <= 2 * rp[n] for n in (2, 3, 4))
        assert search_threshold("ramsey", 3).value <= rp[5]
        for m in (2, 3):
            rm = [search_threshold("rprime_m", m + k, m=m).value for k in range(3)]
            assert all(rm[k + 1] <= 2 + m * (rm[k] - 1) for k in (0, 1))
        assert classical_ap_check(2, 3, 9)
        assert not classical_ap_check(2, 3, 8)
        assert 9 <= ap_sum_threshold(2, 5).value

    timed(30.0, go)


def test_c09_greedy_guarantees_hold_on_every_small_graph():
    """Both greedy constructions meet their floors on all labeled graphs
    with 2 to 7 vertices (2 131 018 graphs); ``threads`` is ignored."""
    def go():
        out = {}
        for n in range(2, 8):
            out[n] = pair_guarantee_sweep(n, threads=2)
        return out

    results = timed(60.0, go)
    assert sum(checked for checked, _ in results.values()) == 2_131_018
    assert all(violation is None for _, violation in results.values())


def test_c10_solver_matches_subset_oracle():
    """Branch-and-bound pair values equal the 2^n subset oracle on every
    graph with n <= 5 and on 1000 seeded random graphs with n <= 16."""
    def go():
        for n in range(1, 6):
            for code in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_code(n, code)
                assert pair_sum_value(g) == pair_sum_bruteforce(g)
        rng = random.Random(0)
        for _ in range(1000):
            n = rng.randint(1, 16)
            pc = n * (n - 1) // 2
            g = Graph.from_code(n, rng.getrandbits(pc) if pc else 0)
            assert pair_sum_value(g) == pair_sum_bruteforce(g)

    timed(10.0, go)


def test_c11_cli_certificates_are_thread_count_independent(tmp_path):
    """`search rprime --n 5` emits byte-identical certificates at
    `--threads 1` and `--threads 8`."""
    # The child runs from tmp_path, so hand it the absolute directory of the
    # package this process imported rather than relying on a relative path
    # entry or an installed copy.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ramseykit.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    records = []
    for threads, cache in ((1, "one.jsonl"), (8, "eight.jsonl")):
        proc = subprocess.run(
            [sys.executable, "-m", "ramseykit", "search", "rprime", "--n", "5",
             "--threads", str(threads), "--cache", cache, "--json"],
            cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        records.append(json.loads(proc.stdout))
    one, eight = records
    assert json.dumps(one["certificates"], sort_keys=True) == \
        json.dumps(eight["certificates"], sort_keys=True)
    assert one["value"] == eight["value"] == 6
