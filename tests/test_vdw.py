"""Interval colorings, monochromatic progressions, and threshold search."""

import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from ramseykit import (
    BudgetError,
    IntervalColoring,
    SearchCertificate,
    UndecidedError,
    ap_sum,
    ap_sum_threshold,
    check_universal_ap_sum,
    classical_ap_check,
    longest_mono_ap,
    revalidate,
)
from ramseykit.vdw import orbit_count
from helpers import (interval_colorings, longest_ap_oracle, orbit_count_oracle,
                     reference_digit_code, reference_digits, reference_letters,
                     reference_positions)


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
        (lambda: classical_ap_check(0, 3, 5), "colour count 0 outside 1..8"),
        (lambda: classical_ap_check(9, 3, 5), "colour count 9 outside 1..8"),
        (lambda: IntervalColoring(2, (0, 1.0)), "position 2 has colour 1.0 outside 0..1"),
        (lambda: classical_ap_check(2, 3, 5, budget=-1), "budget -1 is negative"),
    ], ids=["from_code code=8", "positions of colour m", "classical m=0",
            "classical m=9", "float colour", "classical budget=-1"])
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
        out = check_universal_ap_sum(4, 5, 2)
        assert not out.ok
        cert = out.certificate
        assert cert.witness_coloring == "aabaa"
        # nothing with a smaller code fails the target
        for code in range(IntervalColoring.from_text("aabaa", 2).code):
            c = IntervalColoring.from_code(2, 5, code)
            assert ap_sum(c)[0] >= 4

    def test_pruned_scan_same_witness_fewer_colorings(self):
        plain = check_universal_ap_sum(4, 5, 2)
        pruned = check_universal_ap_sum(4, 5, 2, prune=True)
        assert pruned.certificate.witness_coloring == plain.certificate.witness_coloring
        assert pruned.certificate.parameters["pruned"] is True

    def test_pruned_pass_counts_representatives_only(self):
        plain = check_universal_ap_sum(3, 3, 2)
        pruned = check_universal_ap_sum(3, 3, 2, prune=True)
        assert plain.ok and pruned.ok
        assert plain.certificate.scanned_count == 8
        assert pruned.certificate.scanned_count < 8
        assert revalidate(pruned.certificate, deep=True)

    def test_pruned_threshold_identical(self):
        assert ap_sum_threshold(2, 4, prune=True).value == 6

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
            check_universal_ap_sum(3, 0, 2)


def _profiles(m, length):
    """AP profiles of every m-colouring of 1..length, in code order."""
    out = []
    for digits in itertools.product(range(m), repeat=length):
        # product varies the last digit fastest; position 1 is least significant
        out.append(ap_sum(IntervalColoring(m, digits[::-1]))[1])
    return out


def _orbits(m, length):
    """Colourings up to reversal and colour permutation, by listing them."""
    keys = set()
    for digits in itertools.product(range(m), repeat=length):
        keys.add(min(tuple(perm[d] for d in seq)
                     for perm in itertools.permutations(range(m))
                     for seq in (digits, digits[::-1])))
    return len(keys)


def _ap_sum_oracle(target, length, m, prune, profiles, orbits):
    params = {"mode": "wprime", "target": target, "length": length, "m": m}
    if prune:
        params["pruned"] = True
    for code, profile in enumerate(profiles):
        if sum(profile) < target:
            text = IntervalColoring.from_code(m, length, code).to_text()
            return SearchCertificate("witness", params, sum(profile),
                                     witness_coloring=text)
    return SearchCertificate("exhaustive", params, target,
                             scanned_count=orbits if prune else m**length)


class TestPrefixSearchAgainstEnumeration:
    CASES = [(1, 10), (2, 10), (3, 6), (4, 5)]

    @pytest.mark.parametrize("m, max_length", CASES)
    def test_ap_sum_certificates_match_enumeration(self, m, max_length):
        for length in range(1, max_length + 1):
            profiles = _profiles(m, length)
            orbits = _orbits(m, length)
            for target in range(1, m * 6 + 2):
                for prune in (False, True):
                    got = check_universal_ap_sum(target, length, m, prune=prune)
                    want = _ap_sum_oracle(target, length, m, prune,
                                          profiles, orbits)
                    assert got.certificate.to_json() == want.to_json()
                    assert got.ok == (want.kind == "exhaustive")

    @pytest.mark.parametrize("m, max_length", CASES)
    def test_classical_matches_enumeration(self, m, max_length):
        for length in range(1, max_length + 1):
            profiles = _profiles(m, length)
            for n in range(1, length + 2):
                want = all(max(profile) >= n for profile in profiles)
                assert classical_ap_check(m, n, length) is want

    def test_pruned_count_is_checked_in_closed_form(self):
        cert = check_universal_ap_sum(3, 5, 3, prune=True).certificate
        assert cert.scanned_count == _orbits(3, 5)
        assert revalidate(cert)
        for forged in (
                SearchCertificate(cert.kind, cert.parameters, cert.value,
                                  scanned_count=cert.scanned_count + 1),
                SearchCertificate(cert.kind, cert.parameters, cert.value + 1,
                                  scanned_count=cert.scanned_count)):
            assert not revalidate(forged)

    def test_orbit_count_matches_permutation_sum(self):
        for m in range(1, 8):
            for length in range(1, 13):
                assert orbit_count(m, length) == orbit_count_oracle(m, length)

    def test_one_color_runs_past_the_recursion_limit(self):
        # m = 1 admits any length within the budget; the search is iterative
        assert check_universal_ap_sum(1100, 1100, 1).ok


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
