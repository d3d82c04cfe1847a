"""Interval colorings, monochromatic progressions, and threshold search."""

import itertools
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from ramseykit import (
    BudgetError,
    IntervalColoring,
    SearchCertificate,
    UndecidedError,
    ap_sum,
    ap_sum_threshold,
    check,
    classical_ap_check,
    longest_mono_ap,
    revalidate,
)
from ramseykit import vdw
from helpers import (interval_colorings, longest_ap_oracle, reference_digit_code,
                     reference_digits, reference_letters, reference_positions)


class TestIntervalColoring:
    def test_text_roundtrip(self):
        c = IntervalColoring(2, (0, 0, 1, 0, 0))
        assert c.to_text() == "aabaa"
        assert IntervalColoring.from_text("aabaa", 2) == c

    def test_black_white_alphabet(self):
        # two-colour strings may spell colours as b/w: b is colour 0
        c = IntervalColoring.from_text("bbwbb", 2)
        assert c.colors == (0, 0, 1, 0, 0)
        assert c.to_text() == "aabaa"

    def test_letter_b_alone_means_color_one(self):
        # without any 'w' the normal a..h table applies
        assert IntervalColoring.from_text("bb", 2).colors == (1, 1)

    def test_rejects_unknown_letters(self):
        with pytest.raises(ValueError):
            IntervalColoring.from_text("abz", 3)
        with pytest.raises(ValueError):
            IntervalColoring.from_text("c", 2)

    def test_code_roundtrip_is_little_endian(self):
        c = IntervalColoring.from_code(2, 4, 5)
        assert c.colors == (1, 0, 1, 0)
        assert c.code == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalColoring(0, (0,))
        with pytest.raises(ValueError):
            IntervalColoring(9, (0,))
        with pytest.raises(ValueError):
            IntervalColoring(2, ())
        with pytest.raises(ValueError):
            IntervalColoring(2, (0, 2))

    @pytest.mark.parametrize("call, message", [
        (lambda: IntervalColoring.from_code(2, 3, 8), "code 8 outside 0..2^3-1"),
        (lambda: IntervalColoring(2, (0, 1)).positions(2), "colour 2 outside 0..1"),
        (lambda: classical_ap_check(0, 3, 5), "vdw takes 1..8 colours, not 0"),
        (lambda: classical_ap_check(9, 3, 5), "vdw takes 1..8 colours, not 9"),
        (lambda: classical_ap_check(True, 3, 9),
         "target and size must be positive ints, m and j ints"),
        (lambda: classical_ap_check(2, 3, 9.0),
         "target and size must be positive ints, m and j ints"),
        (lambda: IntervalColoring(2, (0, 1.0)), "position 2 has colour 1.0 outside 0..1"),
        (lambda: IntervalColoring(2, (0, 1, 2)), "position 3 has colour 2 outside 0..1"),
        (lambda: IntervalColoring(3, (0, -1, 2)), "position 2 has colour -1 outside 0..2"),
        (lambda: IntervalColoring(1, (256, 0, 1.0)), "position 1 has colour 256 outside 0..0"),
        (lambda: classical_ap_check(2, 3, 5, budget=-1), "budget -1 is negative"),
    ], ids=["from_code code=8", "positions of colour m", "classical m=0",
            "classical m=9", "classical m=True", "classical length=9.0", "float colour",
            "colour m", "colour -1", "colour 256", "classical budget=-1"])
    def test_rejects_bad_input_with_a_message(self, call, message):
        with pytest.raises(ValueError) as e:
            call()
        assert type(e.value) is ValueError
        assert str(e.value) == message

    def test_positions_bitmask(self):
        c = IntervalColoring.from_text("bbwbb", 2)
        # bit i stands for the integer i + 1
        assert c.positions(0) == 0b11011
        assert c.positions(1) == 0b00100

    @given(interval_colorings(max_m=8, max_len=64))
    @example(IntervalColoring(1, (0,)))
    @example(IntervalColoring(1, (0,) * 64))
    @example(IntervalColoring(8, tuple(range(8)) * 8))
    def test_code_text_roundtrips(self, c):
        # the digit codec against one step per digit
        code = reference_digit_code(c.colors, c.m)
        assert c.code == code
        assert IntervalColoring.from_code(c.m, c.length, code).colors == \
            reference_digits(code, c.m, c.length)
        assert c.to_text() == reference_letters(c.colors)
        for color in range(c.m):
            assert c.positions(color) == reference_positions(c.colors, color)
        assert IntervalColoring.from_code(c.m, c.length, c.code) == c
        assert IntervalColoring.from_text(c.to_text(), c.m) == c


class TestLongestProgression:
    def test_black_white_example(self):
        c = IntervalColoring.from_text("bbwbb", 2)
        assert longest_mono_ap(c, 0) == 2
        assert longest_mono_ap(c, 1) == 1
        assert ap_sum(c) == (3, (2, 1))

    def test_uniform_coloring(self):
        c = IntervalColoring(2, (0,) * 7)
        assert longest_mono_ap(c, 0) == 7
        assert longest_mono_ap(c, 1) == 0

    def test_spread_progression_found(self):
        # 1, 4, 7 with step 3 in colour 1
        c = IntervalColoring.from_text("baabaab", 2)
        assert longest_mono_ap(c, 1) == 3

    @given(interval_colorings(max_m=4, max_len=24))
    def test_matches_index_set_oracle(self, c):
        for color in range(c.m):
            positions = {i + 1 for i, d in enumerate(c.colors) if d == color}
            assert longest_mono_ap(c, color) == longest_ap_oracle(positions)

    def test_bulk_random_agreement(self):
        rng = random.Random(20260814)
        for _ in range(10_000):
            m = rng.randint(1, 4)
            length = rng.randint(1, 24)
            c = IntervalColoring(m, tuple(rng.randrange(m) for _ in range(length)))
            total, per_color = ap_sum(c)
            assert total == sum(per_color)
            for color in range(m):
                positions = {i + 1 for i, d in enumerate(c.colors) if d == color}
                assert per_color[color] == longest_ap_oracle(positions)
        # dense and all-one masks, where the bound on each difference cuts in
        for length in range(1, 201):
            dense = IntervalColoring(2, tuple(int(rng.random() < 0.1) for _ in range(length)))
            for c in (dense, IntervalColoring(1, (0,) * length)):
                for color in range(c.m):
                    positions = {i + 1 for i, d in enumerate(c.colors) if d == color}
                    assert longest_mono_ap(c, color) == longest_ap_oracle(positions)

    @given(interval_colorings(max_m=3, max_len=16))
    def test_reversal_preserves_sums(self, c):
        rev = IntervalColoring(c.m, c.colors[::-1])
        assert ap_sum(rev) == ap_sum(c)

    @given(interval_colorings(min_m=2, max_m=3, max_len=12))
    def test_color_swap_permutes_profile(self, c):
        perm = tuple(reversed(range(c.m)))
        swapped = IntervalColoring(c.m, tuple(perm[d] for d in c.colors))
        total, profile = ap_sum(c)
        total2, profile2 = ap_sum(swapped)
        assert total2 == total
        assert profile2 == tuple(reversed(profile))


class TestPairSumThresholds:
    def test_two_color_table(self):
        values = [ap_sum_threshold(2, t).value for t in range(1, 6)]
        assert values == [1, 2, 3, 6, 9]

    def test_three_color_values(self):
        assert ap_sum_threshold(3, 3).value == 3
        assert ap_sum_threshold(3, 4).value == 6

    def test_certificates_at_target_four(self):
        r = ap_sum_threshold(2, 4)
        d = r.to_json_dict()
        assert r.value == 6 and d["exact"] is True and d["bracket"] == [6, 6]
        assert r.lower.witness_coloring == "aabaa"
        assert r.lower.value == 3
        assert r.upper.scanned_count == 64
        assert revalidate(r.lower) and revalidate(r.upper)

    def test_certificates_at_target_five(self):
        r = ap_sum_threshold(2, 5)
        assert r.lower.witness_coloring == "bbaabbaa"
        assert ap_sum(IntervalColoring.from_text("bbaabbaa", 2))[0] == 4

    def test_check_reports_minimum_code_witness(self):
        out = check("wprime", 4, 5, m=2)
        assert not out.ok
        cert = out.certificate
        assert cert.witness_coloring == "aabaa"
        # nothing with a smaller code fails the target
        for code in range(IntervalColoring.from_text("aabaa", 2).code):
            c = IntervalColoring.from_code(2, 5, code)
            assert ap_sum(c)[0] >= 4

    def test_budget_exhaustion(self):
        with pytest.raises(UndecidedError) as exc:
            ap_sum_threshold(2, 50, budget=256)
        assert exc.value.low == 9
        assert exc.value.high is None
        assert exc.value.lower is not None

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ap_sum_threshold(0, 3)
        with pytest.raises(ValueError):
            ap_sum_threshold(9, 3)
        with pytest.raises(ValueError):
            ap_sum_threshold(2, 0)
        with pytest.raises(ValueError):
            check("wprime", 3, 0, m=2)


def _profiles(m, length):
    """AP profiles of every m-colouring of 1..length, in code order."""
    out = []
    for digits in itertools.product(range(m), repeat=length):
        # product varies the last digit fastest; position 1 is least significant
        out.append(ap_sum(IntervalColoring(m, digits[::-1]))[1])
    return out


def _ap_sum_oracle(target, length, m, profiles):
    params = {"mode": "wprime", "target": target, "length": length, "m": m}
    for code, profile in enumerate(profiles):
        if sum(profile) < target:
            text = IntervalColoring.from_code(m, length, code).to_text()
            return SearchCertificate("witness", params, sum(profile),
                                     witness_coloring=text)
    return SearchCertificate("exhaustive", params, target,
                             scanned_count=m**length)


class TestPrefixSearchAgainstEnumeration:
    CASES = [(1, 10), (2, 10), (3, 6), (4, 5)]

    @pytest.mark.parametrize("m, max_length", CASES)
    def test_ap_sum_certificates_match_enumeration(self, m, max_length):
        for length in range(1, max_length + 1):
            profiles = _profiles(m, length)
            for target in range(1, m * 6 + 2):
                got = check("wprime", target, length, m=m)
                want = _ap_sum_oracle(target, length, m, profiles)
                assert got.certificate.to_json() == want.to_json()
                assert got.ok == (want.kind == "exhaustive")

    @pytest.mark.parametrize("m, max_length", CASES)
    def test_classical_matches_enumeration(self, m, max_length):
        for length in range(1, max_length + 1):
            profiles = _profiles(m, length)
            for n in range(1, length + 2):
                want = all(max(profile) >= n for profile in profiles)
                assert classical_ap_check(m, n, length) is want

    def test_one_color_runs_past_the_recursion_limit(self):
        # m = 1 admits any length within the budget; the search is iterative
        assert check("wprime", 1100, 1100, m=1).ok

    @pytest.mark.parametrize("m, max_length", [(3, 6), (4, 5)])
    def test_colors_are_placed_in_first_use_order(self, monkeypatch, m, max_length):
        """The DFS never tries colour c before colours 0..c-1 are placed, and
        its least failing colourings still match enumeration: AP sums, and
        the single-colour predicate, whose witnesses need a third colour."""
        real = vdw._longest_ap_mask

        def spy(mask, length):
            frame = sys._getframe(1)
            if frame.f_code is vdw._least_failing.__code__:
                used = {d for d, _ in frame.f_locals["stack"]}
                assert used == set(range(len(used))) and frame.f_locals["c"] <= len(used)
            return real(mask, length)

        monkeypatch.setattr(vdw, "_longest_ap_mask", spy)
        third = 0
        for length in range(1, max_length + 1):
            profiles = _profiles(m, length)
            for target in range(1, m * 6 + 2):
                want = _ap_sum_oracle(target, length, m, profiles)
                assert check("wprime", target, length, m=m).certificate.to_json() \
                    == want.to_json()
            for n in range(2, length + 1):
                want = next((code for code, profile in enumerate(profiles)
                             if max(profile) < n), None)
                assert next(vdw._least_failing(length, m, 1, "clique", n)) == want
                third += want is not None and max(IntervalColoring.from_code(
                    m, length, want).colors) >= 2
        assert third

    @pytest.mark.parametrize("m, target, single", [(1, 5, False), (2, 5, False),
                                                   (3, 6, False), (2, 4, True),
                                                   (4, 2, True)])
    def test_one_dfs_yields_every_length_in_turn(self, m, target, single):
        """The scan from length 1 yields the code a scan started at each
        length yields first, then None at the first length where none fails:
        for the best colour alone (top 1) or for all m colours."""
        top = 1 if single else m
        codes = list(vdw._least_failing(1, m, top, "clique", target))
        assert codes[-1] is None and None not in codes[:-1]
        assert codes == [next(vdw._least_failing(length, m, top, "clique", target))
                         for length in range(1, len(codes) + 1)]
        assert list(vdw._least_failing(3, m, top, "clique", target)) == codes[2:]

    def test_a_search_scores_as_the_passing_check_does(self, monkeypatch):
        """One DFS serves every probe of a search: ``ap_sum_threshold(2, 6)``
        tries the colours that the passing check at length 18 tries, plus one
        score per colour of its one witness, at length 17 (``engine.emit``)."""
        calls = []
        real = vdw._longest_ap_mask
        monkeypatch.setattr(vdw, "_longest_ap_mask",
                            lambda *a: calls.append(a) or real(*a))
        assert check("wprime", 6, 18, m=2).ok
        checked = len(calls)
        calls.clear()
        assert ap_sum_threshold(2, 6).value == 18
        assert len(calls) == checked + 2


class TestClassicalCheck:
    def test_two_colors_three_terms(self):
        # 9 integers force a monochromatic 3-term progression; 8 do not
        assert classical_ap_check(2, 3, 9) is True
        assert classical_ap_check(2, 3, 8) is False

    def test_two_terms_is_pigeonhole(self):
        assert classical_ap_check(2, 2, 2) is False
        assert classical_ap_check(2, 2, 3) is True
        assert classical_ap_check(3, 2, 3) is False
        assert classical_ap_check(3, 2, 4) is True

    def test_one_color(self):
        assert classical_ap_check(1, 3, 3) is True
        assert classical_ap_check(1, 3, 2) is False

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            classical_ap_check(2, 3, 40)

    def test_w_2_4_is_35(self):
        # Chvatal (1970): every 2-colouring of 1..35 has a monochromatic
        # 4-term progression, and some 2-colouring of 1..34 has none.
        assert classical_ap_check(2, 4, 35, budget=1 << 35) is True
        assert classical_ap_check(2, 4, 34, budget=1 << 34) is False

    def test_a_witness_with_a_monochromatic_progression_is_rejected(self):
        # "aaabbbaa" holds 1, 2, 3 in colour a: its longest AP reaches 3
        cert = check("vdw", 3, 8, m=2).certificate
        assert cert.witness_coloring == "bbaabbaa" and revalidate(cert, deep=True)
        forged = SearchCertificate.from_json_dict(
            dict(cert.to_json_dict(), witness_coloring="aaabbbaa"))
        assert not revalidate(forged)
        assert not revalidate(forged, deep=True)

    def test_a_relabelled_pass_stands_shallow_but_not_deep(self):
        """Every 2-colouring of 1..3 has AP lengths summing to 3, but not a
        3-term AP in one colour.  The exhaustive certificate's bytes, mode
        aside, are the same for both rows, so only a rerun tells them apart."""
        d = check("wprime", 3, 3, 2).certificate.to_json_dict()
        relabelled = SearchCertificate.from_json_dict(
            dict(d, parameters=dict(d["parameters"], mode="vdw")))
        assert revalidate(relabelled)
        assert not revalidate(relabelled, deep=True)
