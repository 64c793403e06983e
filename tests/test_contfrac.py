from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from friezelotus.contfrac import (MAX_VERTICES, Rational, continuant,
                                  hj_evaluate, hj_expand, kidoh_dual,
                                  stern_brocot_runs)
from friezelotus.polygon import polygon_of_cf, quiddity_of

from conftest import coprime_pairs, tridiagonal_determinant


def test_rational_reduces():
    assert Rational(22, 16) == Rational(11, 8)
    assert str(Rational(22, 16)) == "11/8"


def test_rational_rejects_den_zero_and_negative():
    with pytest.raises(ValueError):
        Rational(1, 0)
    with pytest.raises(ValueError):
        Rational(-1, 2)


def test_infinity_sentinel():
    assert Rational.infinity().is_infinite
    assert Rational.parse("inf").is_infinite
    with pytest.raises(TypeError):  # slopes compare for equality only
        Rational(1, 2) < Rational.infinity()


def test_expand_known_values():
    assert hj_expand(Rational(11, 8)) == (2, 2, 3, 2)
    assert hj_expand(Rational(11, 3)) == (4, 3)
    assert hj_expand(Rational(6, 5)) == (2, 2, 2, 2, 2)
    assert hj_expand(Rational(5, 1)) == (5,)


def test_expand_at_most_one_leading_one():
    assert hj_expand(Rational(1, 1)) == (1,)
    assert hj_expand(Rational(2, 3)) == (1, 3)
    assert hj_expand(Rational(1, 2)) == (1, 2)


def test_expand_rejects_zero_and_infinity():
    with pytest.raises(ValueError):
        hj_expand(Rational(0, 1))
    with pytest.raises(ValueError):
        hj_expand(Rational.infinity())


def test_evaluate_known_values():
    assert hj_evaluate((2, 2, 3, 2)) == Rational(11, 8)
    assert hj_evaluate((7,)) == Rational(7, 1)
    assert hj_evaluate((4, 3)) == Rational(11, 3)


def test_evaluate_rejects_bad_terms():
    for terms in ((), (2, 1, 2), (0, 2), (1, 1)):
        with pytest.raises(ValueError):
            hj_evaluate(terms)


def test_continuant_small_cases():
    assert continuant([]) == 1
    assert continuant([7]) == 7
    assert continuant([3, 4]) == 11
    assert continuant([1, 1, 1]) == -1


@given(st.lists(st.integers(min_value=-5, max_value=9), max_size=12))
def test_continuant_matches_determinant_and_is_symmetric(values):
    det = tridiagonal_determinant(values)
    assert continuant(values) == det
    assert continuant(list(reversed(values))) == det


def test_roundtrip_all_reduced_fractions_up_to_200():
    for n, q in coprime_pairs(200):
        x = Rational(n, q)
        terms = hj_expand(x)
        assert all(b >= 2 for b in terms)  # n > q here
        back = hj_evaluate(terms)
        assert back == x
        assert gcd(back.num, back.den) == 1


def test_kidoh_running_example():
    kd = kidoh_dual(Rational(11, 8))
    assert kd.c == (2, 2)
    assert kd.d == (1, 1)
    assert kd.dual == (4, 3)
    assert len(kd.c) == 2


def test_kidoh_fan_example():
    kd = kidoh_dual(Rational(6, 1))
    assert kd.c == (1,)
    assert kd.d == (5,)
    assert kd.dual == (2, 2, 2, 2, 2)


def test_kidoh_dual_of_3_2_matches_expand_oracle():
    assert kidoh_dual(Rational(3, 2)).dual == hj_expand(Rational(3, 1))


def test_kidoh_rejects_q_at_least_n():
    with pytest.raises(ValueError):
        kidoh_dual(Rational(3, 5))
    with pytest.raises(ValueError):
        kidoh_dual(Rational(1, 1))


def test_kidoh_dual_is_an_involution_in_value():
    for n, q in coprime_pairs(60):
        dual = kidoh_dual(Rational(n, q)).dual
        assert hj_evaluate(dual) == Rational(n, n - q)


def test_kidoh_quiddity_matches_polygon_recount():
    # two routes to the quiddity: the duality block formula feeding
    # polygon construction, versus recounting triangles of the result
    for n, q in coprime_pairs(60):
        terms = hj_expand(Rational(n, q))
        kd = kidoh_dual(Rational(n, q))
        expected = (1,) + terms + (1,) + tuple(reversed(kd.dual))
        assert quiddity_of(polygon_of_cf(terms)) == expected


def test_kidoh_sizes():
    kd = kidoh_dual(Rational(11, 8))
    assert sum(kd.c) + sum(kd.d) + 2 == 8
    assert len(kd.dual) == 2
    kd = kidoh_dual(Rational(6, 1))
    assert sum(kd.c) + sum(kd.d) + 2 == 8
    assert len(kd.dual) == 5


@given(st.integers(1, 9), st.lists(st.integers(2, 9), max_size=11))
def test_evaluate_random_expansions_by_fractions(first, rest):
    terms = (first, *rest)
    value = Fraction(terms[-1])
    for b in reversed(terms[:-1]):
        value = b - 1 / value
    x = hj_evaluate(terms)
    assert x.num >= 1 and x.den >= 1
    assert Fraction(x.num, x.den) == value
    assert hj_expand(x) == terms


def test_roundtrip_below_one():
    for q, n in coprime_pairs(30):  # n < q here
        x = Rational(n, q)
        terms = hj_expand(x)
        assert terms[0] == 1 and all(b >= 2 for b in terms[1:])
        assert hj_evaluate(terms) == x


def test_stern_brocot_runs():
    assert stern_brocot_runs(Rational(11, 8)) == [1, 2, 1, 2]
    assert stern_brocot_runs(Rational(2, 3)) == [0, 1, 1, 1]
    assert stern_brocot_runs(Rational(1, 1)) == [0, 1]
    assert stern_brocot_runs(Rational(6, 1)) == [5, 1]


def test_polygon_size_ceiling():
    # the slope k/1 has k petals and a (k+2)-gon
    assert stern_brocot_runs(Rational(MAX_VERTICES - 2)) == [MAX_VERTICES - 3, 1]
    for x in (Rational(MAX_VERTICES - 1), Rational(1, MAX_VERTICES - 1),
              Rational(2 ** 200 + 1, 2 ** 199 + 3)):
        with pytest.raises(ValueError, match=f"over the limit of {MAX_VERTICES}$"):
            hj_expand(x)
    with pytest.raises(ValueError, match="over the limit"):
        kidoh_dual(Rational(2 ** 200 + 1, 2 ** 199 + 3))
