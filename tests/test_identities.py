"""Thresholds the scan decides, against identities proved without it.

Each identity rests on a pigeonhole argument over colour classes, not on
enumeration, so it is an oracle independent of the engine:

* ``rprime`` and ``rprime_m``: an m-colouring of K_n whose class clique
  numbers sum below t has class clique numbers a_i with a_1 + ... + a_m <=
  t - 1, so it avoids a K_{a_i + 1} in every colour i.  Hence the threshold
  is the largest Ramsey number R(a_1 + 1, ..., a_m + 1) over the splits
  a_1 + ... + a_m = t - 1 (a_i >= 0), where ``rprime`` is m = 2.
* ``ramsey``: the least n with a t-clique or a t-independent set, R(t, t).
* ``score`` path at m = 2, j = 1: a monochromatic path on t vertices, whose
  threshold is R(P_t, P_t) = t + floor(t / 2) - 1 for t >= 2 (L. Gerencsér
  and A. Gyárfás, "On Ramsey-type problems", Ann. Univ. Sci. Budapest.
  Eötvös Sect. Math. 10 (1967) 167-170).
* ``wprime``: by the same split, an m-colouring of [n] whose colours'
  longest APs sum below t avoids an (a_i + 1)-term AP in every colour i,
  so the threshold is the largest van der Waerden number w(a_1 + 1, ...,
  a_m + 1) over the splits a_1 + ... + a_m = t - 1.  The rows pinned here
  are w(4, 4) = 35 (m = 2, t = 7) and w(3, 4) = 18 (m = 3, t = 6), from
  V. Chvátal, "Some unknown van der Waerden numbers", Combinatorial
  Structures and their Applications (1970) 31-33.  The other splits are
  smaller: w(3, 5) = 22 (Chvátal 1970), w(2, 3, 3) = 14 (T. C. Brown,
  "Some new van der Waerden numbers", Notices AMS 21 (1974) A-432).  A
  colour with a_i = 1 holds at most one integer, and trying each position
  for it gives w(2, 5) = 10, w(2, 6) = 11 and w(2, 2, 4) = 11; a colour
  with a_i = 0 is unused.
* ``vdw``: the classical van der Waerden number W(m, k), the least length
  at which every m-colouring has a k-term AP in one colour.  One colour
  holds every AP, so W(1, k) = k; a 2-term AP is any two integers of one
  colour, so W(m, 2) = m + 1 by pigeonhole; and W(2, 3) = 9, W(2, 4) = 35
  (Chvátal 1970, above).

The Ramsey numbers come from S. P. Radziszowski, "Small Ramsey Numbers",
Electron. J. Combin., Dynamic Survey DS1: R(3, 3) = 6 and R(3, 4) = 9
(Greenwood and Gleason 1955), and the trivial R(2, k) = k.

A row that decides a cell only above the default budgets carries a wall
budget of about three times its time on a 2-core CPython 3.11 host.

The ``score`` rows at the end are regression rows, not identities: path
m = 2, j = 2 is t - 1, cycle m = 2, j = 2 is t + 1 and cycle m = 2, j = 1
is t + 2 on every cell decided so far, but no reference proves these fits.
They pin what the scan decides today and are no independent oracle.
"""

import time
from itertools import product

import pytest

from ramseykit import engine
from ramseykit.graphs import ENUMERATION_CAP

KNOWN = {(3, 3): 6, (3, 4): 9}


def ramsey_number(*sizes: int) -> int:
    """R(sizes) from the table: 1 when some size is 1 (one vertex is a K_1 in
    every colour); a size 2 is dropped, since a colouring with no edge of
    that colour is a colouring in the others (R(2, k) = k, R(2, 2, 3) = 3,
    R(2, 3, 3) = 6); a single size k is k itself."""
    sizes = sorted(sizes)
    if sizes[0] == 1:
        return 1
    if sizes[0] == 2 and len(sizes) > 1:
        return ramsey_number(*sizes[1:])
    return sizes[0] if len(sizes) == 1 else KNOWN[tuple(sizes)]


def clique_sum_identity(t: int, m: int) -> int:
    """max over a_1 + ... + a_m = t - 1, a_i >= 0, of R(a_1 + 1, ..., a_m + 1)."""
    return max(ramsey_number(*(a + 1 for a in split))
               for split in product(range(t), repeat=m) if sum(split) == t - 1)


def path_ramsey_identity(t: int) -> int:
    """R(P_t, P_t) = t + floor(t / 2) - 1 (Gerencsér and Gyárfás 1967)."""
    return t + t // 2 - 1


def test_known_numbers():
    assert [ramsey_number(2, k) for k in range(1, 6)] == [1, 2, 3, 4, 5]
    assert ramsey_number(3, 3) == 6 and ramsey_number(4, 3) == 9
    assert ramsey_number(2, 2, 3) == 3 and ramsey_number(3, 2, 3) == 6
    assert ramsey_number(1, 4, 4) == 1


@pytest.mark.parametrize("t", range(1, 6))
def test_rprime_is_the_largest_ramsey_number_over_splits(t):
    assert engine.search("rprime", t).value == clique_sum_identity(t, 2)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("t", range(1, 6))
def test_rprime_m_is_the_largest_ramsey_number_over_splits(t, m):
    assert engine.search("rprime_m", t, m=m).value == clique_sum_identity(t, m)


@pytest.mark.parametrize("t", range(1, 4))
def test_ramsey_is_the_diagonal_ramsey_number(t):
    assert engine.search("ramsey", t).value == ramsey_number(t, t)


@pytest.mark.parametrize("t", range(2, 6))
def test_score_path_is_the_path_ramsey_number(t):
    value = engine.search("score", t, m=2, j=1, score="path").value
    assert value == path_ramsey_identity(t)


def test_rprime_6_is_r_3_4_at_the_enumeration_cap():
    """``rprime`` t = 6 is R(3, 4) = 9: a witness on 8 vertices and all
    2^36 graphs on 9 accounted for, past the default graph budget (2.5 s on
    the host above)."""
    start = time.perf_counter()
    value = engine.search("rprime", 6, budget=ENUMERATION_CAP).value
    assert value == clique_sum_identity(6, 2) == ramsey_number(3, 4) == 9
    assert time.perf_counter() - start < 7.5


def test_score_path_6_is_the_path_ramsey_number_at_the_enumeration_cap():
    """``score`` path m=2 j=1 t=6 is R(P_6, P_6) = 8: a witness on 7
    vertices and all 2^28 colourings on 8 accounted for, past the default
    colouring budget (0.4 s on the host above)."""
    start = time.perf_counter()
    value = engine.search("score", 6, m=2, j=1, score="path", budget=ENUMERATION_CAP).value
    assert value == path_ramsey_identity(6) == 8
    assert time.perf_counter() - start < 1.5


@pytest.mark.parametrize("m, t, w, seconds", [
    (2, 7, 35, 0.25),  # w(4, 4); 0.06 s on the host above
    (3, 6, 18, 0.1),   # w(3, 4); 5 ms, so 3x would sit inside timer noise
])
def test_wprime_is_the_largest_van_der_waerden_number_over_splits(m, t, w, seconds):
    """``wprime`` at the enumeration cap: the least length at which every
    m-colouring's colours have longest APs summing to t or more."""
    start = time.perf_counter()
    assert engine.search("wprime", t, m=m, budget=ENUMERATION_CAP).value == w
    assert time.perf_counter() - start < seconds


@pytest.mark.parametrize("k", range(1, 6))
def test_vdw_in_one_colour_is_the_length_of_the_progression(k):
    assert engine.search("vdw", k, m=1).value == k


@pytest.mark.parametrize("m", range(1, 5))
def test_vdw_for_two_terms_is_pigeonhole(m):
    assert engine.search("vdw", 2, m=m).value == m + 1


def test_vdw_2_3_is_9():
    assert engine.search("vdw", 3, m=2).value == 9


def test_vdw_2_4_is_35_at_the_enumeration_cap():
    """W(2, 4) = 35: a witness at length 34 and all 2^35 colourings at 35
    accounted for, past the default interval budget (0.04 s on the host
    above)."""
    start = time.perf_counter()
    assert engine.search("vdw", 4, m=2, budget=ENUMERATION_CAP).value == 35
    assert time.perf_counter() - start < 0.25


# --- regression rows, not identities -----------------------------------------


@pytest.mark.parametrize("t", range(3, 8))
def test_score_path_in_two_classes_regression_row(t):
    assert engine.search("score", t, m=2, j=2, score="path").value == t - 1


@pytest.mark.parametrize("j, t, value, budget, seconds", [
    (2, 5, 6, None, None),
    (2, 6, 7, ENUMERATION_CAP, 0.25),  # 0.04-0.07 s on the host above
    (2, 7, 8, ENUMERATION_CAP, 1.5),   # 0.32-0.54 s
    (1, 3, 5, None, None),
    (1, 4, 6, None, None),
    (1, 5, 7, ENUMERATION_CAP, 0.5),   # 0.12-0.17 s
])
def test_score_cycle_regression_row(j, t, value, budget, seconds):
    """Cycle m=2 is t + 1 with j = 2 classes and t + 2 with j = 1; the rows
    past t = 5 (j = 2) and t = 4 (j = 1) need the enumeration cap."""
    start = time.perf_counter()
    kwargs = {} if budget is None else {"budget": budget}
    assert engine.search("score", t, m=2, j=j, score="cycle", **kwargs).value == value
    assert seconds is None or time.perf_counter() - start < seconds
