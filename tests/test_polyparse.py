import sys

import pytest
from hypothesis import given, strategies as st

from friezelotus.polyparse import (MAX_NESTING, ParseError, Poly2, _edge_coefficients,
                                   compact_edges, parse_poly)


def written(p: Poly2) -> str:
    """A nonzero polynomial in the module grammar, one signed term at a time."""
    return " + ".join(f"({c})*x^{i}*y^{j}" for (i, j), c in p.terms.items())


def test_parse_two_terms():
    assert parse_poly("x^3 - y^2").terms == {(3, 0): 1, (0, 2): -1}
    assert parse_poly("x^11 - y^8").terms == {(11, 0): 1, (0, 8): -1}


def test_parse_product_expansion():
    # (x^2+y)(x+y^2) = x^3 + x^2 y^2 + x y + y^3
    assert parse_poly("(x^2+y)*(x+y^2)").terms == {
        (3, 0): 1, (2, 2): 1, (1, 1): 1, (0, 3): 1}


def test_parse_implicit_star_and_coefficients():
    assert parse_poly("3x y^2").terms == {(1, 2): 3}
    assert parse_poly("2*x^2*y - y").terms == {(2, 1): 2, (0, 1): -1}
    assert parse_poly("-x + 5").terms == {(1, 0): -1, (0, 0): 5}


def test_a_leading_sign_and_juxtaposed_factors():
    assert parse_poly("+x").terms == {(1, 0): 1}
    assert parse_poly("2 3").terms == {(0, 0): 6}
    assert parse_poly("-(x^3-y^2)").terms == {(0, 2): 1, (3, 0): -1}
    # one sign per term, and a '*' needs a factor after it
    for text, pos in (("--x", 1), ("-", 1), ("x*", 2), ("x**y", 2)):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert str(err.value) == f"expected a number, 'x', 'y' or '(' at position {pos}"


def test_like_terms_combine_and_cancel():
    assert parse_poly("x + x").terms == {(1, 0): 2}
    assert parse_poly("x - x").terms == {}


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x^3 - ")
    assert err.value.pos == 6
    with pytest.raises(ParseError) as err:
        parse_poly("x^")
    assert err.value.pos == 2
    with pytest.raises(ParseError) as err:
        parse_poly("(x+y")
    assert err.value.pos == 4
    with pytest.raises(ParseError) as err:
        parse_poly("x + z")
    assert err.value.pos == 4
    # "²" is a digit to str.isdigit but no integer to int()
    for text, pos in (("x²", 1), ("x^²", 2)):
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.pos == pos


def test_integers_past_the_digit_limit_are_parse_errors():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert parse_poly("9" * 4300 + "x") == Poly2({(1, 0): int("9" * 4300)})
        for text, pos in (("9" * 4301 + "x - y", 0), ("x^" + "9" * 4301 + " - y", 2),
                          ("x - y^" + "1" * 5000, 6)):
            with pytest.raises(ParseError) as err:
                parse_poly(text)
            assert str(err.value) == f"integer longer than 4300 digits at position {pos}"
    finally:
        sys.set_int_max_str_digits(old)


def test_nesting_ceiling():
    # the ceiling counts open parentheses, not groups side by side
    deep = "(" * MAX_NESTING + "x-y" + ")" * MAX_NESTING
    assert parse_poly(deep) == parse_poly("x-y")
    assert parse_poly(f"{deep}*{deep}") == parse_poly("(x-y)*(x-y)")
    with pytest.raises(ParseError) as err:
        parse_poly("(" + deep + ")")
    assert str(err.value) == f"parentheses nested deeper than {MAX_NESTING} at position {MAX_NESTING}"


def test_print_parse_roundtrip_examples():
    for text in ("x^3 - y^2", "x^2y^2 + xy + 1", "2x - 3y + 7"):
        p = parse_poly(text)
        assert parse_poly(written(p)) == p


@st.composite
def polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=6))
    terms = {}
    for _ in range(n_terms):
        e = (draw(st.integers(0, 9)), draw(st.integers(0, 9)))
        c = draw(st.integers(-9, 9).filter(lambda v: v != 0))
        terms[e] = c
    return Poly2(terms)


@given(polys())
def test_print_parse_roundtrip(p):
    if p.is_zero:
        return
    assert parse_poly(written(p)) == p


@given(polys(), polys())
def test_product_of_parses_is_parse_of_product(a, b):
    if a.is_zero or b.is_zero:
        return
    text = f"({written(a)}) * ({written(b)})"
    assert parse_poly(text) == a * b


def test_compact_edges_single_edge():
    assert compact_edges({(3, 0), (0, 2)}) == [((0, 2), (3, 0))]


def test_compact_edges_absorbs_collinear_points():
    assert compact_edges({(4, 0), (2, 1), (0, 2)}) == [((0, 2), (4, 0))]


def test_compact_edges_chain():
    edges = compact_edges({(6, 0), (4, 1), (1, 3), (0, 4)})
    assert edges == [((0, 4), (1, 3)), ((1, 3), (4, 1)), ((4, 1), (6, 0))]


def test_compact_edges_monomial_and_dominated_points():
    assert compact_edges({(2, 0)}) == []
    assert compact_edges({(2, 0), (3, 1), (2, 5)}) == []


def compact_edges_by_pairwise_filter(support: set) -> list:
    """Reference hull: keep the points no other point dominates, comparing
    every pair, then build the staircase hull over them."""
    minimal = sorted(p for p in support
                     if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in support))
    hull = [minimal[0]]
    for p in minimal[1:]:
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
                                  - (hull[-1][1] - hull[-2][1]) * (p[0] - hull[-2][0])) <= 0:
            hull.pop()
        hull.append(p)
    return list(zip(hull, hull[1:]))


@given(st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=40))
def test_compact_edges_sweep_matches_the_pairwise_filter(support):
    assert compact_edges(support) == compact_edges_by_pairwise_filter(support)


def test_restrict_to_edge_cusp():
    f = parse_poly("x^3 - y^2")
    assert compact_edges(f.support()) == [((0, 2), (3, 0))]
    assert _edge_coefficients(f, ((0, 2), (3, 0))) == (-1, 1)


def test_restrict_to_edge_degenerate_quintic():
    f = parse_poly("(y^2 - x^3)")
    g = f * f * f * f * f - parse_poly("x^14 y")
    (edge,) = compact_edges(g.support())
    assert edge == ((0, 10), (15, 0))
    coeffs = _edge_coefficients(g, edge)
    # (t - 1)^5 pattern up to overall orientation
    assert sorted(map(abs, coeffs)) == [1, 1, 5, 5, 10, 10]


def test_poly2_refuses_zero_coefficients_and_negative_exponents():
    with pytest.raises(ValueError, match="^zero coefficients must not be stored$"):
        Poly2({(1, 0): 1, (0, 1): 0})
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        Poly2({(1, -1): 1})


def test_poly_arithmetic():
    x = Poly2({(1, 0): 1})
    y = Poly2({(0, 1): 1})
    assert (x + y) * (x - y) == Poly2({(2, 0): 1, (0, 2): -1})
    assert x * x - y == parse_poly("x^2 - y")


def test_parse_zero_literals():
    assert parse_poly("0").is_zero
    assert parse_poly("x + 0").terms == {(1, 0): 1}
    assert parse_poly("0*x + y").terms == {(0, 1): 1}
