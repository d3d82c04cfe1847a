"""Thresholds the scan decides, against identities proved without it.

Each identity rests on a pigeonhole argument over colour classes, not on
enumeration, so it is an oracle independent of the engine:

* ``rprime`` and ``rprime_m``: an m-colouring of K_n whose class clique
  numbers sum below t has class clique numbers a_i with a_1 + ... + a_m <=
  t - 1, so it avoids a K_{a_i + 1} in every colour i.  Hence the threshold
  is the largest Ramsey number R(a_1 + 1, ..., a_m + 1) over the splits
  a_1 + ... + a_m = t - 1 (a_i >= 0), where ``rprime`` is m = 2.
* ``ramsey`` is R(t, t), and ``score`` clique with j = 1 is R(t, ..., t)
  over the m colours.
* ``score`` path at m = 2, j = 1 is R(P_t, P_t) = t + floor(t / 2) - 1 for
  t >= 2 (L. Gerencsér and A. Gyárfás, "On Ramsey-type problems", Ann.
  Univ. Sci. Budapest. Eötvös Sect. Math. 10 (1967) 167-170).
* ``vdw`` is the van der Waerden number W(m, k): W(1, k) = k, since one
  colour holds every AP, and W(m, 2) = m + 1 by pigeonhole.  ``wprime`` is,
  by the same split, the largest w(a_1 + 1, ..., a_m + 1).  Both kinds' rows
  cite V. Chvátal, "Some unknown van der Waerden numbers", Combinatorial
  Structures and their Applications (1970) 31-33.

The Ramsey numbers are from S. P. Radziszowski, "Small Ramsey Numbers",
Electron. J. Combin., Dynamic Survey DS1 (R(3, 3), R(3, 4), R(4, 4) and
R(3, 3, 3): Greenwood and Gleason 1955), and the trivial R(2, k) = k.

The cells, with budgets, citations and wall budgets, are the rows of
``ramseykit.cli.CELLS``.  Rows cited as "regression", like the path m = 2,
j = 2 fit t - 1 below, pin what the scan decides today and are no
independent oracle.  Cycle m = 2, j = 1 is t + 2 for t = 3..6 but not at
t = 7: a K6 in one colour and the rest of K9 in the other has no
monochromatic cycle on 7 vertices.
"""

import time
from itertools import product

import pytest

from ramseykit import cli, engine
from ramseykit.cli import CAP, CELLS

KNOWN = {(3, 3): 6, (3, 4): 9, (4, 4): 18, (3, 3, 3): 17}


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


@pytest.mark.parametrize("k", range(1, 6))
def test_vdw_in_one_colour_is_the_length_of_the_progression(k):
    assert engine.search("vdw", k, m=1).value == k


@pytest.mark.parametrize("m", range(1, 5))
def test_vdw_for_two_terms_is_pigeonhole(m):
    assert engine.search("vdw", 2, m=m).value == m + 1


@pytest.mark.parametrize("t", range(3, 8))
def test_score_path_in_two_classes_regression_row(t):
    assert engine.search("score", t, m=2, j=2, score="path").value == t - 1


# --- the table of cells --------------------------------------------------------


# The threshold a cell's cited identity gives it, by (citation, kind).
IDENTITIES = {
    ("DS1", "rprime"): lambda c: clique_sum_identity(c.target, 2),
    ("DS1", "rprime_m"): lambda c: clique_sum_identity(c.target, c.keys["m"]),
    ("DS1", "ramsey"): lambda c: ramsey_number(c.target, c.target),
    ("DS1", "score"): lambda c: ramsey_number(*[c.target] * c.keys["m"]),
    ("Gerencsér-Gyárfás 1967", "score"): lambda c: path_ramsey_identity(c.target),
}
# How a cell's n stands to its threshold, by verdict.
AGREES = {"value": int.__eq__, "pass": int.__ge__, "fail": int.__lt__, "low": int.__le__}


def _cell_id(c) -> str:
    return "-".join(map(str, [c.kind, *c.keys.values(), f"t{c.target}", c.verdict, c.n]))


@pytest.mark.parametrize("cell", CELLS, ids=_cell_id)
def test_cell(cell):
    """The cited identity holds the row, and the engine finds it within its
    wall budget: the search value, or the check's verdict at size n.  A cap
    row with no wall budget is too slow for tier-1; tools/frontier.py runs it."""
    identity = IDENTITIES.get((cell.cite, cell.kind))
    assert identity is None or AGREES[cell.verdict](cell.n, identity(cell))
    if cell.budget is not None and cell.wall is None:
        return
    start = time.perf_counter()
    kind, target, keys, budget = cell.kind, cell.target, cell.keys, cell.budget
    if cell.verdict == "value":
        assert engine.search(kind, target, budget=budget, **keys).value == cell.n
    else:
        outcome = engine.check(kind, target, cell.n, budget=budget, **keys)
        assert outcome.ok == (cell.verdict == "pass")
    assert cell.wall is None or time.perf_counter() - start < cell.wall


def test_every_cell_is_a_valid_query():
    """A row that names no mode, a parameter the mode does not take, or no
    claim ``verify`` runs fails here rather than in CI."""
    claims = {name for name, _, _ in cli.CLAIMS}
    for c in CELLS:
        mode = engine.MODES[c.kind]
        assert set(c.keys) == set(mode.keys), c
        mode.params(c.target, c.n, c.keys.get("m", 2), c.keys.get("j", 1),
                    c.keys.get("score", "clique"), False)
        assert c.verdict in AGREES and c.budget in (None, CAP) and c.claim in claims | {None}
        assert c.claim is None or c.verdict == "value", c
    assert len({_cell_id(c) for c in CELLS}) == len(CELLS)
