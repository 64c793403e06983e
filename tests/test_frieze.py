from itertools import product

import pytest
from hypothesis import given

from friezelotus.contfrac import Rational, continuant, hj_expand
from friezelotus.frieze import (MAX_FRIEZE_ENTRIES, complete_quiddity,
                                frieze_from_quiddity, frieze_of_triangulation,
                                triangulation_of_frieze)
from friezelotus.polygon import (enumerate_triangulations, polygon_from_quiddity,
                                 polygon_of_cf, quiddity_of)

from conftest import coprime_pairs, outcome, quiddities

RUNNING_QUIDDITY = (1, 2, 2, 3, 2, 1, 3, 4)

# the full fundamental domain of the width-5 frieze with the quiddity above
RUNNING_DOMAIN = {
    (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1, (6, 7): 1, (0, 7): 1,
    (0, 2): 2, (1, 3): 2, (2, 4): 3, (3, 5): 2, (4, 6): 1, (5, 7): 3, (0, 6): 4, (1, 7): 1,
    (0, 3): 3, (1, 4): 5, (2, 5): 5, (3, 6): 1, (4, 7): 2, (0, 5): 11, (1, 6): 3, (2, 7): 1,
    (0, 4): 7, (1, 5): 8, (2, 6): 2, (3, 7): 1,
}


def test_running_frieze_fundamental_domain():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    assert len(f.entries) == 28
    assert f.entries == RUNNING_DOMAIN


def test_running_frieze_n_q_entries():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    assert f.entry(0, 5) == 11
    assert f.entry(1, 5) == 8


def test_entry_normalisation():
    f = frieze_from_quiddity(RUNNING_QUIDDITY)
    assert f.entry(3, 3) == 0
    assert f.entry(3, 3 + f.m) == 0
    assert f.entry(-2, 0) == f.entry(6, 8) == f.entry(0, 6)
    for (i, j), v in RUNNING_DOMAIN.items():
        assert f.entry(i + f.m, j + f.m) == v
        assert f.entry(j, i + f.m) == v  # glide


def test_width_zero_frieze():
    f = frieze_from_quiddity((1, 1, 1))
    assert f.entries == {(0, 1): 1, (1, 2): 1, (0, 2): 1}


def test_fountain_frieze_rows():
    f = frieze_from_quiddity((6, 1, 2, 2, 2, 2, 2, 1))
    assert max(f.entries.values()) == 6
    # cyclic content of the printed rows
    assert [f.entry(i, i + 2) for i in range(f.m)] == [1, 2, 2, 2, 2, 2, 1, 6]
    assert [f.entry(i, i + 3) for i in range(f.m)] == [1, 3, 3, 3, 3, 1, 5, 5]
    assert [f.entry(i, i + 4) for i in range(f.m)] == [1, 4, 4, 4, 1, 4, 4, 4]


def test_rejects_non_quiddity_with_diamond_diagnostic():
    with pytest.raises(ValueError, match="diamond"):
        frieze_from_quiddity((2, 2, 2, 2))
    with pytest.raises(ValueError, match="not positive"):
        frieze_from_quiddity((1, 0, 1))
    with pytest.raises(ValueError):
        frieze_from_quiddity((1, 1))
    with pytest.raises(ValueError, match="diamond"):
        frieze_from_quiddity((1,) * 3162)  # 4 997 541 entries, under the ceiling
    with pytest.raises(ValueError) as info:
        frieze_from_quiddity((1,) * 3163)
    assert str(info.value) == ("the frieze of a 3163-gon has 5000703 entries, "
                               f"over the limit of {MAX_FRIEZE_ENTRIES}")


def test_diamond_rule_exhaustive():
    # diamonds whose four corners stay inside rows 0..m have tops in
    # rows 0..m-2
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            f = frieze_of_triangulation(t)
            for i in range(m):
                for d in range(0, m - 1):
                    j = i + d
                    assert (f.entry(i - 1, j) * f.entry(i, j + 1)
                            - f.entry(i, j) * f.entry(i - 1, j + 1)) == 1


def test_entries_are_continuants():
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            f = frieze_of_triangulation(t)
            q = f.quiddity
            for i in range(m):
                for j in range(i + 1, i + m + 1):
                    assert f.entry(i, j) == continuant([q[t % m] for t in range(i + 1, j)])


def test_ones_are_exactly_edges_and_diagonals():
    for m in range(4, 9):
        for t in enumerate_triangulations(m):
            f = frieze_of_triangulation(t)
            ones = {(i, j) for (i, j), v in f.entries.items()
                    if v == 1 and 2 <= j - i <= m - 2}
            expected = {(a - 1, b - 1) for a, b in t.diagonals}
            assert ones == expected


def test_bijection_with_triangulations():
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            assert triangulation_of_frieze(frieze_of_triangulation(t)) == t


def test_n_q_in_frieze_for_all_small_fractions():
    for n, q in coprime_pairs(60):
        terms = hj_expand(Rational(n, q))
        f = frieze_of_triangulation(polygon_of_cf(terms))
        r = len(terms)
        assert f.entry(0, r + 1) == n
        assert f.entry(1, r + 1) == q


def test_complete_quiddity_running():
    assert complete_quiddity((2, 2, 3, 2, 1, 3)) == (2, 2, 3, 2, 1, 3, 4, 1)


def test_complete_quiddity_trivial_and_fan():
    assert complete_quiddity((1,)) == (1, 1, 1)
    assert complete_quiddity((6, 1, 2, 2, 2, 2)) == (6, 1, 2, 2, 2, 2, 2, 1)


def test_complete_quiddity_recovers_every_small_frieze():
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            q = quiddity_of(t)
            assert complete_quiddity(q[:m - 2]) == q


def test_complete_quiddity_past_the_frieze_ceiling():
    q = quiddity_of(polygon_of_cf(hj_expand(Rational(3201, 3200))))
    assert len(q) * (len(q) - 1) // 2 > MAX_FRIEZE_ENTRIES
    assert complete_quiddity(q[:-2]) == q


def test_complete_quiddity_rejects_unextendable_prefix():
    with pytest.raises(ValueError):
        complete_quiddity((1, 1, 5, 1))


def diamond_rule_frieze(q):
    """Reference builder: the full m x m row table by the diamond rule
    value(i,j) = (value(i,j-1)*value(i+1,j) - 1) / value(i+1,j-1), with the
    divisibility test and the messages of ``frieze_from_quiddity``."""
    q = tuple(q)
    m = len(q)
    if m < 3:
        raise ValueError("quiddity needs length >= 3")
    for t, a in enumerate(q):
        if a < 1:
            raise ValueError(f"quiddity entry {a} at position {t} is not positive")
    bad = "not a frieze quiddity: the diamond rule at ({},{}) produces {}"
    rows = [[0] * m, [1] * m, [q[(i + 1) % m] for i in range(m)]]
    for d in range(3, m):
        row = []
        for i in range(m):
            num = rows[d - 1][i] * rows[d - 1][(i + 1) % m] - 1
            den = rows[d - 2][(i + 1) % m]
            if num % den != 0:
                raise ValueError(bad.format(i, i + d, "a non-integral entry"))
            val = num // den
            if d <= m - 2 and val < 1:
                raise ValueError(bad.format(i, i + d, f"the non-positive entry {val}"))
            row.append(val)
        rows.append(row)
    for i, val in enumerate(rows[m - 1] if m > 3 else rows[2]):
        if val != 1:
            raise ValueError(bad.format(i, i + m - 1, f"closing value {val} instead of 1"))
    return {(i, i + d): rows[d][i] for d in range(1, m) for i in range(m - d)}


def assert_same_as_diamond_rule(q):
    got = outcome(frieze_from_quiddity, q)
    assert (got if isinstance(got, str) else got.entries) == outcome(diamond_rule_frieze, q)


def test_continuant_rows_match_diamond_rule_exhaustive():
    for m in range(3, 8):
        for q in product(range(5), repeat=m):
            assert_same_as_diamond_rule(q)


@given(quiddities())
def test_continuant_rows_match_diamond_rule(q):
    assert_same_as_diamond_rule(q)


def accepts(build, q) -> bool:
    return not isinstance(outcome(build, q), str)


def test_frieze_and_ear_cut_accept_the_same_quiddities_exhaustive():
    # Conway-Coxeter: frieze quiddities are the quiddities of triangulations
    for m in range(3, 8):
        for q in product(range(1, 5), repeat=m):
            assert accepts(frieze_from_quiddity, q) == accepts(polygon_from_quiddity, q)


@given(quiddities())
def test_frieze_and_ear_cut_accept_the_same_quiddities(q):
    if min(q) >= 1:
        assert accepts(frieze_from_quiddity, q) == accepts(polygon_from_quiddity, q)
