"""Exact solvers, certified scans, threshold searches, and bounds."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ascending_cliques, edge_colorings, graphs, lex_min_max_clique, petersen,
                     random_graph)
from ramseykit import (BudgetError, EdgeColoring, Graph, SearchCertificate,
                       UndecidedError, WitnessFamily, WitnessPair, bits,
                       bound_formulas, canonical_json, check_universal,
                       clique_indep_pair, clique_number, family_sum_bound,
                       family_sum_value, independence_number,
                       labeled_graph_count, mask_of, max_clique,
                       max_independent_set, mono_clique_family,
                       multicolor_ramsey_bound, pair_sum_bound,
                       pair_sum_bruteforce, pair_sum_value, parse_graph6,
                       revalidate, search_threshold, two_color_ramsey_bound)
from ramseykit.exact import _has_clique, _omega, _ordered


def test_known_clique_numbers():
    assert clique_number(Graph.complete(5)) == 5
    assert independence_number(Graph.complete(5)) == 1
    assert clique_number(Graph.empty(6)) == 1
    assert independence_number(Graph.empty(6)) == 6
    assert clique_number(Graph.cycle(5)) == 2
    assert independence_number(Graph.cycle(5)) == 2
    assert clique_number(petersen()) == 2
    assert independence_number(petersen()) == 4


def test_pair_sum_known_values():
    assert pair_sum_value(Graph.cycle(5)) == 4
    assert pair_sum_value(petersen()) == 6
    assert pair_sum_value(Graph.complete(1)) == 2
    bipartite = Graph.from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    assert pair_sum_value(bipartite) == 5


def test_lex_min_witness_on_cycle():
    size, mask = max_clique(Graph.cycle(5))
    assert (size, sorted(bits(mask))) == (2, [0, 1])
    size, mask = max_independent_set(Graph.cycle(5))
    assert (size, sorted(bits(mask))) == (2, [0, 2])


def test_lex_min_witness_matches_subset_oracle_exhaustively():
    for n in range(1, 6):
        for code in range(labeled_graph_count(n)):
            g = Graph.from_code(n, code)
            size, expected = lex_min_max_clique(g)
            got_size, got_mask = max_clique(g)
            assert got_size == size
            assert tuple(sorted(bits(got_mask))) == expected


@given(graphs(max_n=8))
def test_clique_number_is_complement_independence(g):
    assert clique_number(g) == independence_number(g.complement())
    assert pair_sum_value(g) == pair_sum_value(g.complement())


@given(graphs(max_n=12))
def test_solver_matches_bruteforce(g):
    assert pair_sum_value(g) == pair_sum_bruteforce(g)


def _oracle_omega(g, vertices=None) -> int:
    return max(map(len, ascending_cliques(g, vertices)), default=0)


@settings(max_examples=400)
@given(graphs(max_n=12), st.integers(0, (1 << 12) - 1))
def test_clique_kernels_match_subset_oracle_on_any_candidate_set(g, cand):
    cand &= g.full_mask
    omega = _oracle_omega(g, bits(cand))
    assert _omega(g.adj, cand) == omega
    for k in range(omega + 3):
        assert _has_clique(g.adj, cand, k) == (k <= omega)


def grotzsch() -> Graph:
    """Mycielskian of C5: triangle-free, chromatic number 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i + 5, j) for i in range(5) for j in ((i + 1) % 5, (i - 1) % 5)]
    edges += [(i + 5, 10) for i in range(5)]
    return Graph.from_edges(11, edges)


def paley(q: int) -> Graph:
    squares = {x * x % q for x in range(1, q)}
    return Graph.from_edges(q, [(u, v) for u in range(q) for v in range(u + 1, q)
                                if (v - u) % q in squares])


@pytest.mark.parametrize("g, omega, alpha", [
    (grotzsch(), 2, 5),
    (petersen(), 2, 4),
    (Graph.from_edges(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                          if u // 3 != v // 3]), 3, 3),  # K_{3,3,3}
    (paley(13), 3, 3),
    (paley(17), 3, 3),
    (paley(37), 4, 4),
    (paley(41), 5, 5),
    (paley(61), 5, 5),
], ids=["grotzsch", "petersen", "k333", "paley13", "paley17", "paley37", "paley41",
        "paley61"])
def test_clique_kernels_where_the_colouring_bound_is_loose(g, omega, alpha):
    for h, want in ((g, omega), (g.complement(), alpha)):
        assert _oracle_omega(h) == want
        assert _omega(h.adj, h.full_mask) == want
        for k in range(want + 3):
            assert _has_clique(h.adj, h.full_mask, k) == (k <= want)
        size, mask = max_clique(h)
        assert size == want
        assert tuple(bits(mask)) == max(ascending_cliques(h), key=len)
    pair = clique_indep_pair(g)
    assert (pair.a.bit_count(), pair.b.bit_count()) == (omega, alpha)
    assert pair.validate(g)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_clique_indep_pair_on_random_64_vertex_graphs(seed):
    g = random_graph(random.Random(seed), 64)
    a, b = (mask_of(max(ascending_cliques(h), key=len)) for h in (g, g.complement()))
    assert clique_indep_pair(g) == WitnessPair(a, b)


def _assert_degree_relabel(g):
    rows, pos = _ordered(g.adj)
    assert sorted(pos) == list(range(g.n))
    h = Graph(g.n, tuple(rows))  # rows in range, loop-free and symmetric
    for u in range(g.n):
        for v in range(g.n):
            assert h.has_edge(pos[u], pos[v]) == g.has_edge(u, v)
    degrees = [row.bit_count() for row in rows]
    assert degrees == sorted(degrees, reverse=True)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 16, 17, 63, 64])  # each frame width and edge
def test_degree_relabel_preserves_adjacency(n):
    for seed in range(3):
        _assert_degree_relabel(random_graph(random.Random(seed), n))
    _assert_degree_relabel(Graph.complete(n))
    _assert_degree_relabel(Graph.empty(n))


@settings(max_examples=200)
@given(graphs(max_n=64))
def test_degree_relabel_preserves_adjacency_on_any_graph(g):
    _assert_degree_relabel(g)


def _lex_least_pair(g) -> WitnessPair:
    return WitnessPair(*(mask_of(max(ascending_cliques(h), key=len))
                         for h in (g, g.complement())))


@pytest.mark.parametrize("parts", [(4, 4, 4, 4, 4), (2, 3, 4, 5, 6)])
def test_witnesses_under_a_scrambled_labelling_with_degree_ties(parts):
    # disjoint cliques and their complement, a complete multipartite graph,
    # under a seeded scrambled labelling: degrees tie within a part, and with
    # parts of unequal size degree order is not index order
    part = [i for i, size in enumerate(parts) for _ in range(size)]
    n = len(part)
    label = list(range(n))
    random.Random(7).shuffle(label)
    g = Graph.from_edges(n, [(label[u], label[v]) for u in range(n) for v in range(u + 1, n)
                             if part[u] == part[v]])
    for h, omega, alpha in ((g, max(parts), len(parts)), (g.complement(), len(parts), max(parts))):
        pair = clique_indep_pair(h)
        assert pair == _lex_least_pair(h)
        assert (pair.a.bit_count(), pair.b.bit_count()) == (omega, alpha)
        assert pair.validate(h)


@given(graphs(max_n=14))
def test_clique_indep_pair_matches_subset_oracle(g):
    assert clique_indep_pair(g) == _lex_least_pair(g)


@given(graphs(max_n=10))
def test_pair_sum_value_counts_the_witness_pair(g):
    # the rprime registry row scores a witness by the value alone
    assert pair_sum_value(g) == clique_indep_pair(g).value


@given(edge_colorings(max_n=7, max_m=3))
def test_family_sum_value_counts_the_witness_family(c):
    # the rprime_m registry row scores a witness by the value alone
    assert family_sum_value(c) == mono_clique_family(c).value


def test_bruteforce_rejects_large_graphs():
    with pytest.raises(ValueError):
        pair_sum_bruteforce(Graph.empty(17))


def test_witness_pair_validate():
    c5 = Graph.cycle(5)
    pair = clique_indep_pair(c5)
    assert pair.validate(c5)
    assert pair.value == 4
    assert not WitnessPair(mask_of([0, 2]), 0).validate(c5)  # not a clique
    assert not WitnessPair(0, mask_of([0, 1])).validate(c5)  # not independent
    assert WitnessPair(0, 0).value == 0
    assert pair.to_json_dict() == {"a": [0, 1], "b": [0, 2]}
    assert pair == WitnessPair(0b11, 0b101) and repr(pair) == "WitnessPair(a=3, b=5)"
    with pytest.raises(AttributeError):
        pair.a = 0
    for a, b in ((1 << 10, 0), (0, 1 << 5), (-1, 0)):  # vertices outside c5
        assert not WitnessPair(a, b).validate(c5)


def test_mono_clique_family_on_known_coloring():
    c = EdgeColoring(3, 2, (0, 0, 1))
    fam = mono_clique_family(c)
    assert fam.validate(c)
    assert fam.value == family_sum_value(c) == 4
    assert [sorted(bits(p)) for p in fam.parts] == [[0, 1], [1, 2]]
    bad = WitnessFamily((mask_of([0, 1]), mask_of([0, 1])))
    assert not bad.validate(c)  # pair {0,1} has colour 0, not colour 1
    assert not WitnessFamily((0,)).validate(c)  # wrong part count
    assert not WitnessFamily((1 << 3, 0)).validate(c)  # vertex outside c


def test_check_universal_pass_and_fail():
    ok = check_universal(4, 3, "rprime")
    assert ok.ok
    cert = ok.certificate
    assert cert.kind == "exhaustive"
    assert cert.scanned_count == 8
    assert cert.value == 4

    fail = check_universal(5, 3, "rprime")
    assert not fail.ok
    cert = fail.certificate
    assert cert.kind == "witness"
    assert cert.witness_graph6 == "B?"  # the empty graph is code 0
    assert cert.value == 4


def test_check_universal_reports_minimum_code_failure():
    # Direct rescan: the witness must be the first failing code.
    outcome = check_universal(5, 4, "rprime")
    assert not outcome.ok
    witness_code = parse_graph6(outcome.certificate.witness_graph6).code
    for code in range(witness_code):
        assert pair_sum_value(Graph.from_code(4, code)) >= 5
    assert pair_sum_value(Graph.from_code(4, witness_code)) < 5


def test_check_universal_prune_agrees():
    base = check_universal(5, 5, "rprime")
    pruned = check_universal(5, 5, "rprime", prune=True)
    assert not pruned.ok
    assert pruned.certificate.witness_graph6 == base.certificate.witness_graph6

    full = check_universal(4, 4, "rprime")
    half = check_universal(4, 4, "rprime", prune=True)
    assert full.ok and half.ok
    assert full.certificate.scanned_count == 64
    assert half.certificate.scanned_count < 64
    assert half.certificate.parameters["pruned"] is True


def test_check_universal_coloring_modes():
    ok = check_universal(3, 2, "rprime_m", m=2)
    assert ok.ok and ok.certificate.scanned_count == 2
    fail = check_universal(4, 2, "rprime_m", m=2)
    assert not fail.ok
    assert fail.certificate.witness_coloring == "2:a"
    assert fail.certificate.value == 3


def test_check_universal_rejects_bad_arguments():
    with pytest.raises(ValueError):
        check_universal(4, 3, "nonsense")
    with pytest.raises(ValueError):
        check_universal(4, 3, "rprime", m=3)
    with pytest.raises(ValueError):
        check_universal(0, 3, "rprime")
    with pytest.raises(ValueError):
        check_universal(3, 3, "rprime_m", m=1)
    with pytest.raises(ValueError):
        check_universal(3, 3, "rprime_m", m=2, prune=True)
    with pytest.raises(ValueError):  # a size that is no int, not a TypeError
        check_universal(4, 3.0, "rprime")
    with pytest.raises(BudgetError):
        check_universal(4, 8, "rprime")
    with pytest.raises(BudgetError):
        check_universal(4, 5, "rprime", budget=100)


def test_search_threshold_small_values():
    assert search_threshold("rprime", 2).value == 1
    assert search_threshold("rprime", 3).value == 2
    assert search_threshold("rprime", 4).value == 3
    assert search_threshold("ramsey", 1).value == 1
    assert search_threshold("ramsey", 2).value == 2
    for m in (2, 3):
        for k, expected in ((0, 1), (1, 2), (2, 3)):
            assert search_threshold("rprime_m", m + k, m=m).value == expected


def test_search_threshold_certificates():
    r = search_threshold("rprime", 4)
    d = r.to_json_dict()
    assert d["exact"] is True and d["bracket"] == [3, 3]
    assert r.lower.parameters["n_vertices"] == 2
    assert r.lower.value == 3
    assert r.upper.parameters["n_vertices"] == 3
    assert r.upper.scanned_count == 8
    trivial = search_threshold("rprime", 2)
    assert trivial.lower is None  # nothing can fail below a threshold of 1


def test_search_threshold_undecided_carries_bracket():
    with pytest.raises(UndecidedError) as e:
        search_threshold("rprime", 7, budget=100)
    err = e.value
    assert err.low == 5  # probes stop before the 1024 graphs on 5 vertices
    assert err.high == pair_sum_bound(7) == 32
    assert err.lower is not None
    assert err.lower.parameters["n_vertices"] == 4


def test_search_threshold_rejects_unknown_kind():
    with pytest.raises(ValueError):
        search_threshold("wprime", 3)
    with pytest.raises(ValueError):  # removed: it only ever answered a bound
        search_threshold("ramsey_m", 3, m=3)


# --- bounds ------------------------------------------------------------------


def test_bound_values():
    assert [two_color_ramsey_bound(n) for n in (2, 3, 4, 5)] == [2, 8, 32, 128]
    assert multicolor_ramsey_bound(2, 2) == 2
    assert multicolor_ramsey_bound(3, 3) == 41
    assert pair_sum_bound(5) == 8
    assert [family_sum_bound(2, k) for k in (0, 1, 2, 3)] == [1, 2, 4, 8]
    assert [family_sum_bound(3, k) for k in (0, 1, 2)] == [1, 2, 5]


def test_bound_consistency_two_colors():
    for n in range(2, 11):
        assert multicolor_ramsey_bound(n, 2) == two_color_ramsey_bound(n)


def test_bound_formulas_bundle():
    b = bound_formulas(4, 2)
    assert (b.clique_or_independent, b.multicolor, b.pair_sum, b.family_sum) \
        == (32, 32, 4, 4)
    assert bound_formulas(2, 3).family_sum is None


def test_bounds_reject_bad_arguments():
    for fn in (two_color_ramsey_bound, pair_sum_bound):
        with pytest.raises(ValueError):
            fn(1)
    with pytest.raises(ValueError):
        multicolor_ramsey_bound(3, 1)
    with pytest.raises(ValueError):
        family_sum_bound(2, -1)


def test_computed_thresholds_respect_bounds():
    for n in (2, 3, 4, 5):
        assert search_threshold("rprime", n).value <= pair_sum_bound(n)
    assert search_threshold("ramsey", 3).value <= two_color_ramsey_bound(3)
    for m in (2, 3):
        for k in (0, 1, 2):
            assert search_threshold("rprime_m", m + k, m=m).value \
                <= family_sum_bound(m, k)


# --- certificates ---------------------------------------------------------------


def test_certificate_json_is_canonical():
    cert = search_threshold("rprime", 4).upper
    text = cert.to_json()
    assert text == canonical_json(json.loads(text))
    assert SearchCertificate.from_json_dict(json.loads(text)) == cert
    assert "wall" not in text


def test_certificate_construction_rules():
    with pytest.raises(ValueError):
        SearchCertificate("nonsense", {}, 1)
    with pytest.raises(ValueError):
        SearchCertificate("witness", {}, 1)  # no instance
    with pytest.raises(ValueError):
        SearchCertificate("witness", {}, 1, witness_graph6="A_",
                          witness_coloring="2:a")
    with pytest.raises(ValueError):
        SearchCertificate("exhaustive", {}, 1, witness_graph6="A_",
                          scanned_count=2)
    with pytest.raises(ValueError):
        SearchCertificate("exhaustive", {}, 1)  # no scanned count


def test_revalidate_fresh_certificates():
    r = search_threshold("rprime", 5)
    assert revalidate(r.lower)
    assert revalidate(r.upper)
    assert revalidate(r.upper, deep=True)
    rm = search_threshold("rprime_m", 4, m=2)
    assert revalidate(rm.lower) and revalidate(rm.upper)


def test_revalidate_rejects_tampering():
    r = search_threshold("rprime", 5)
    lower = r.lower
    wrong_value = SearchCertificate(lower.kind, lower.parameters, lower.value + 1,
                                    witness_graph6=lower.witness_graph6)
    assert not revalidate(wrong_value)
    upper = r.upper
    wrong_count = SearchCertificate(upper.kind, upper.parameters, upper.value,
                                    scanned_count=upper.scanned_count - 1)
    assert not revalidate(wrong_count)
    # A witness that actually meets the target is no counterexample.
    met = SearchCertificate(lower.kind, dict(lower.parameters, target=4), 4,
                            witness_graph6=lower.witness_graph6)
    assert not revalidate(met)


@pytest.mark.parametrize("mode", ["rprime", "ramsey"])
def test_revalidate_checks_pruned_count_in_closed_form(mode):
    # complement pairing leaves 2^(pairs-1) representatives for n >= 2
    for n, count in ((1, 1), (2, 1), (3, 4), (4, 32)):
        cert = check_universal(1, n, mode, prune=True).certificate
        assert cert.scanned_count == count
        assert revalidate(cert)
    cert = check_universal(1, 4, mode, prune=True).certificate
    forged = SearchCertificate(cert.kind, cert.parameters, cert.value,
                               scanned_count=cert.scanned_count + 1)
    assert not revalidate(forged)

