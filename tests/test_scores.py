"""Per-color scoring (clique / cycle / path) and score-sum thresholds."""

import time

import pytest
from hypothesis import given, strategies as st

from ramseykit import (
    EdgeColoring,
    Graph,
    ScoreKind,
    ScoreProfile,
    UndecidedError,
    clique_number,
    family_sum_value,
    check_universal_score,
    score_color_class,
    score_sum,
    search_threshold,
    search_threshold_score,
)
from ramseykit.scores import _through
from helpers import (edge_colorings, graphs, longest_cycle_oracle, longest_path_oracle,
                     petersen)


def as_class_zero(g: Graph) -> EdgeColoring:
    # class 0 of the coloring is exactly g, class 1 its complement
    pairs = [(u, v) for v in range(g.n) for u in range(v)]
    return EdgeColoring(g.n, 2, tuple(0 if g.has_edge(u, v) else 1 for u, v in pairs))


class TestKnownScores:
    def test_cycle_graph_scores(self):
        c = as_class_zero(Graph.cycle(5))
        assert score_color_class(c, 0, ScoreKind.CYCLE) == 5
        assert score_color_class(c, 0, ScoreKind.PATH) == 5
        assert score_color_class(c, 0, ScoreKind.CLIQUE) == 2
        # complement of C5 is C5
        assert score_color_class(c, 1, ScoreKind.CYCLE) == 5

    def test_tree_has_no_cycle(self):
        star = as_class_zero(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        assert score_color_class(star, 0, ScoreKind.CYCLE) == 0
        assert score_color_class(star, 0, ScoreKind.PATH) == 3

    def test_single_vertex_conventions(self):
        one = as_class_zero(Graph.empty(1))
        assert score_color_class(one, 0, ScoreKind.PATH) == 1
        assert score_color_class(one, 0, ScoreKind.CLIQUE) == 1
        assert score_color_class(one, 0, ScoreKind.CYCLE) == 0

    def test_empty_color_class(self):
        c = EdgeColoring(3, 2, (0, 0, 0))
        assert score_color_class(c, 1, ScoreKind.PATH) == 1
        assert score_color_class(c, 1, ScoreKind.CLIQUE) == 1
        assert score_color_class(c, 1, ScoreKind.CYCLE) == 0

    def test_string_kind_accepted(self):
        c = as_class_zero(Graph.complete(3))
        assert score_color_class(c, 0, "path") == 3
        with pytest.raises(ValueError):
            score_color_class(c, 0, "girth")


class TestAgainstPermutationOracles:
    def test_exhaustive_small_graphs(self):
        for n in range(1, 5):
            for code in range(1 << (n * (n - 1) // 2)):
                g = Graph.from_code(n, code)
                c = as_class_zero(g)
                assert score_color_class(c, 0, ScoreKind.PATH) == longest_path_oracle(g)
                assert score_color_class(c, 0, ScoreKind.CYCLE) == longest_cycle_oracle(g)

    @given(st.integers(min_value=0, max_value=(1 << 15) - 1))
    def test_random_six_vertex_graphs(self, code):
        g = Graph.from_code(6, code)
        c = as_class_zero(g)
        assert score_color_class(c, 0, ScoreKind.PATH) == longest_path_oracle(g)
        assert score_color_class(c, 0, ScoreKind.CYCLE) == longest_cycle_oracle(g)

    @given(graphs(min_n=2), st.integers(1, 9))
    def test_through_the_top_vertex_completes_the_score_without_it(self, g, cap):
        """A longest path or cycle of each prefix graph on vertices 0..v
        avoids v or runs through it; ``_through`` is exact below ``cap`` and
        reaches ``cap`` only when the prefix does."""
        rest = g.induced_subgraph(1)
        for v in range(1, g.n):
            prefix = g.induced_subgraph((2 << v) - 1)
            for cycle, oracle in ((False, longest_path_oracle),
                                  (True, longest_cycle_oracle)):
                got = max(oracle(rest), _through(g.adj[:v], g.adj[v], cap, cycle))
                want = oracle(prefix)
                assert got <= want and min(got, cap) == min(want, cap), (cycle, v, g.adj)
            rest = prefix


class TestLongestStopsAtSpanning:
    """Scoring returns once a path or cycle through every vertex is found,
    and otherwise stops once no smaller vertex set can beat the best."""

    @pytest.mark.parametrize("g, path, cycle", [
        (Graph.complete(12), 12, 12),  # 12! paths if every path were walked
        (petersen(), 10, 9),           # not Hamiltonian
    ], ids=["K12", "petersen"])
    def test_scores_within_a_second(self, g, path, cycle):
        c = as_class_zero(g)
        t0 = time.perf_counter()
        assert score_color_class(c, 0, ScoreKind.PATH) == path
        assert score_color_class(c, 0, ScoreKind.CYCLE) == cycle
        assert time.perf_counter() - t0 < 1.0


class TestProfilesAndAggregation:
    def test_score_sum_returns_profile_in_color_order(self):
        # middle colour holds the whole triangle; order is by colour, not size
        c = EdgeColoring(3, 3, (1, 1, 1))
        value, profile = score_sum(c, ScoreKind.CLIQUE, j=3)
        assert profile.per_color == (1, 3, 1)
        assert value == 5

    def test_aggregate_takes_largest_j(self):
        p = ScoreProfile((1, 3, 2))
        assert p.aggregate(1) == 3
        assert p.aggregate(2) == 5
        assert p.aggregate(3) == 6

    def test_aggregate_validates_j(self):
        p = ScoreProfile((1, 3))
        for bad in (0, 3, -1):
            with pytest.raises(ValueError):
                p.aggregate(bad)

    @given(edge_colorings(max_n=5, max_m=3))
    def test_sum_value_matches_profile_aggregate(self, c):
        for kind in ScoreKind:
            for j in range(1, c.m + 1):
                value, profile = score_sum(c, kind, j)
                assert value == profile.aggregate(j)
                assert len(profile.per_color) == c.m

    @given(edge_colorings(max_n=5, max_m=3))
    def test_color_permutation_permutes_profile(self, c):
        perm = tuple(reversed(range(c.m)))
        relabeled = EdgeColoring(c.n, c.m, tuple(perm[x] for x in c.colors))
        for kind in ScoreKind:
            _, p0 = score_sum(c, kind, 1)
            _, p1 = score_sum(relabeled, kind, 1)
            assert sorted(p0.per_color) == sorted(p1.per_color)


class TestCliqueKindMatchesPairSumMachinery:
    @given(edge_colorings(max_n=5, max_m=2))
    def test_profile_entries_are_clique_numbers(self, c):
        _, profile = score_sum(c, ScoreKind.CLIQUE, 1)
        for color in range(c.m):
            assert profile.per_color[color] == clique_number(c.color_class(color))

    @given(edge_colorings(min_n=2, max_n=5, max_m=3))
    def test_j_equals_m_is_family_sum(self, c):
        value, _ = score_sum(c, ScoreKind.CLIQUE, c.m)
        assert value == family_sum_value(c)

    def test_threshold_j_m_matches_family_threshold(self):
        for m, target in ((2, 3), (2, 4), (3, 4)):
            via_score = search_threshold_score(ScoreKind.CLIQUE, m, m, target)
            via_family = search_threshold("rprime_m", target, m=m)
            assert via_score.value == via_family.value

    def test_threshold_j_one_recovers_two_color_ramsey(self):
        # least n with a monochromatic triangle in every 2-coloring
        r = search_threshold_score(ScoreKind.CLIQUE, 2, 1, 3)
        assert r.value == 6
        assert r.to_json_dict()["exact"] is True


class TestFrozenThresholds:
    def test_path_sum_table(self):
        values = [search_threshold_score(ScoreKind.PATH, 2, 2, t).value
                  for t in range(1, 6)]
        assert values == [1, 1, 2, 3, 4]

    def test_cycle_thresholds_need_five_vertices(self):
        # K4 splits into two spanning forests, so no monochromatic cycle there
        r = search_threshold_score(ScoreKind.CYCLE, 2, 2, 2)
        assert r.value == 5
        assert r.lower is not None
        assert r.lower.witness_coloring == "4:babbaa"
        assert search_threshold_score(ScoreKind.CYCLE, 2, 1, 3).value == 5

    def test_path_witness_is_minimum_code(self):
        out = check_universal_score(4, 2, ScoreKind.PATH, m=2, j=2)
        assert not out.ok
        cert = out.certificate
        assert cert.witness_coloring == "2:a"
        assert cert.value == 3
        # every coloring below the reported one satisfies the target
        c = EdgeColoring.from_text(cert.witness_coloring, 2)
        assert c.code == 0


class TestCheckUniversalScore:
    def test_pass_certificate_counts_everything(self):
        out = check_universal_score(4, 3, ScoreKind.PATH, m=2, j=2)
        assert out.ok
        assert out.certificate.scanned_count == 8
        params = out.certificate.parameters
        assert params["score"] == "path"
        assert params["j"] == 2

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            check_universal_score(3, 3, ScoreKind.PATH, m=2, j=3)
        with pytest.raises(ValueError):
            check_universal_score(3, 3, ScoreKind.PATH, m=0)
        with pytest.raises(ValueError):
            check_universal_score(0, 3, ScoreKind.PATH)
        with pytest.raises(ValueError):
            check_universal_score(3, 0, ScoreKind.PATH)

    def test_threshold_budget_exhaustion(self):
        with pytest.raises(UndecidedError) as exc:
            search_threshold_score(ScoreKind.PATH, 2, 1, 40, budget=512)
        assert exc.value.low == 5
        assert exc.value.high is None
        assert exc.value.lower is not None
