import sys

import pytest

from friezelotus.contfrac import Rational
from friezelotus.lotus import (BASE_PETAL, Lotus, lateral_boundary,
                               lotus_of_polygon, lotus_of_slope, lotus_of_slopes,
                               polygon_of_lotus)
from friezelotus.frieze import frieze_of_triangulation
from friezelotus.polygon import enumerate_triangulations, quiddity_of
from friezelotus.polyparse import parse_poly
from friezelotus.resolution import (PlaneCurve, ResolutionGraph, catalan,
                                    count_resolution_graphs, curve_of_lotus,
                                    graph_of_lotus, is_newton_nondegenerate,
                                    lotus_of_poly, newton_fan,
                                    partial_resolutions)

from conftest import catalan_by_recurrence, coprime_pairs


def test_graph_of_cusp_lotus():
    g = graph_of_lotus(lotus_of_slope(Rational(3, 2)))
    assert g.weights == (-3, -1, -2)
    assert g.arrows == frozenset({1})


def test_graph_of_running_lotus():
    g = graph_of_lotus(lotus_of_slope(Rational(11, 8)))
    assert g.weights == (-4, -3, -1, -2, -3, -2)
    assert g.arrows == frozenset({2})


def test_graph_of_marked_base_petal():
    g = graph_of_lotus(lotus_of_slope(Rational(1, 1)))
    assert g.weights == (-1,)
    assert g.arrows == frozenset({0})


def test_graph_rejects_segment():
    with pytest.raises(ValueError):
        graph_of_lotus(lotus_of_slope(Rational(0)))


def test_graph_validation():
    with pytest.raises(ValueError):
        ResolutionGraph((0, -2))
    with pytest.raises(ValueError):
        ResolutionGraph((-1, -2), frozenset({5}))


def test_curve_of_lotus_examples():
    assert curve_of_lotus(lotus_of_slope(Rational(3, 2))).factors == ((3, 2),)
    assert curve_of_lotus(lotus_of_slope(Rational(11, 8))).factors == ((11, 8),)
    assert curve_of_lotus(Lotus(frozenset({BASE_PETAL}))).factors == ((1, 1),)


def test_plane_curve_validation_and_str():
    with pytest.raises(ValueError):
        PlaneCurve(((2, 4),))  # not coprime
    with pytest.raises(ValueError):
        PlaneCurve(((2, 1), (4, 2)))  # same slope twice
    assert str(PlaneCurve(((3, 2),))) == "x^3 - y^2"
    assert str(PlaneCurve(((2, 1), (1, 2)))) == "(x^2 - y)(x - y^2)"


def test_newton_fan_examples():
    assert newton_fan({(3, 0), (0, 2)}) == {Rational(3, 2)}
    assert newton_fan({(6, 0), (4, 1), (1, 3), (0, 4)}) == {
        Rational(3, 2), Rational(2, 1), Rational(1, 1)}
    assert newton_fan({(1, 0), (0, 1)}) == {Rational(1, 1)}


def test_newton_fan_rejects_empty():
    with pytest.raises(ValueError):
        newton_fan(set())


def test_lotus_of_poly_matches_slope_lotus():
    assert lotus_of_poly(parse_poly("x^3-y^2")) == lotus_of_slope(Rational(3, 2))
    g = lotus_of_poly(parse_poly("x^6+x^4y+xy^3+y^4"))
    assert g == lotus_of_slopes([Rational(3, 2), Rational(2, 1), Rational(1, 1)])


def test_nondegeneracy_examples():
    assert is_newton_nondegenerate(parse_poly("x^3 - y^2"))
    assert is_newton_nondegenerate(parse_poly("x^2"))  # no compact edge
    f = parse_poly("(y^2 - x^3)")
    quintic = f * f * f * f * f - parse_poly("x^14 y")
    assert not is_newton_nondegenerate(quintic)


def test_binomial_products_are_nondegenerate():
    for factors in (((3, 2),), ((2, 1), (1, 2)), ((5, 2), (3, 1), (1, 1))):
        assert is_newton_nondegenerate(PlaneCurve(factors).polynomial())


def test_degenerate_square_factor():
    f = parse_poly("(x^2 - y)*(x^2 - y)")
    assert not is_newton_nondegenerate(f)


def test_count_formula_small():
    assert count_resolution_graphs(1) == 1
    assert count_resolution_graphs(3) == 3
    assert count_resolution_graphs(6) == 66
    with pytest.raises(ValueError):
        count_resolution_graphs(0)


def test_catalan_against_recurrence():
    for n in range(0, 12):
        assert catalan(n) == catalan_by_recurrence(n)


def chain_classes(n: int) -> int:
    """Distinct interior weight chains of (n+2)-gon triangulations, up to
    reversal."""
    chains = set()
    for t in enumerate_triangulations(n + 2):
        chain = quiddity_of(t)[1:-1]
        chains.add(min(chain, tuple(reversed(chain))))
    return len(chains)


def test_count_matches_enumeration_oracle_where_no_palindromes_interfere():
    # the closed form adds back the palindromic chains, so it matches the
    # enumeration at odd n, where palindromes exist, as well as at even n
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        assert chain_classes(n) == count_resolution_graphs(n)


def test_enumeration_class_count_follows_burnside():
    # classes = (C_n + fixed)/2; the reversal-fixed chains are counted by a
    # smaller Catalan number for odd n and vanish for even n, so halving C_n
    # and rounding up would undercount at odd n >= 5 (21 instead of 22 at
    # n = 5)
    for n in range(1, 9):
        fixed = catalan((n - 1) // 2) if n % 2 == 1 else 0
        assert chain_classes(n) == (catalan(n) + fixed) // 2
    assert chain_classes(5) == 22
    assert count_resolution_graphs(5) == chain_classes(5) == 22


def test_partials_running_example():
    pairs = partial_resolutions(lotus_of_slope(Rational(11, 8)))
    got = [g.weights for _, g in pairs]
    assert got == [(-4, -3, -1, -2, -3, -2), (-4, -2, -1, -3, -2),
                   (-4, -1, -2, -2), (-3, -1, -2), (-2, -1), (-1,)]
    # all six stages, one per chain prefix
    assert [len(sub.petals) for sub, _ in pairs] == [6, 5, 4, 3, 2, 1]


def test_partials_base_and_cusp():
    assert [g.weights for _, g in partial_resolutions(Lotus(frozenset({BASE_PETAL})))] \
        == [(-1,)]
    assert [g.weights for _, g in partial_resolutions(lotus_of_slope(Rational(3, 2)))] \
        == [(-3, -1, -2), (-2, -1), (-1,)]


def test_partials_are_sublotuses_with_frieze_entries():
    full = lotus_of_slope(Rational(11, 8))
    from friezelotus.lotus import polygon_of_lotus
    poly, _ = polygon_of_lotus(full)
    values = set(frieze_of_triangulation(poly).entries.values())
    for sub, g in partial_resolutions(full):
        assert sub.petals <= full.petals
        assert all(-w in values for w in g.weights)


def test_deep_lotus_needs_no_deep_stack():
    # a 301-petal chain: neither the triangle walk nor the downset
    # enumeration may recurse once per petal
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    lotus = lotus_of_slope(Rational(301, 300))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        q = quiddity_of(polygon_of_lotus(lotus)[0])
        pairs = partial_resolutions(lotus)
    finally:
        sys.setrecursionlimit(limit)
    assert len(q) == 303
    assert len(pairs) == 301


def test_partials_of_branching_lotus():
    # base petal with both children: the four downsets containing the base
    l = lotus_of_slopes([Rational(2, 1), Rational(1, 2)]).unmarked()
    pairs = partial_resolutions(l)
    assert len(pairs) == 4
    assert sorted(len(sub.petals) for sub, _ in pairs) == [1, 2, 2, 3]
    assert {g.weights for _, g in pairs} == {
        (-1,), (-1, -2), (-1, -3, -1), (-2, -1)}


def test_roundtrip_curve_fan_lotus():
    for n, q in coprime_pairs(30):
        l = lotus_of_slope(Rational(n, q))
        curve = curve_of_lotus(l)
        slopes = newton_fan(curve.polynomial().support())
        assert lotus_of_slopes(slopes).petals == l.petals


def test_graph_weights_match_quiddity_interior():
    # boundary runs (1,0) -> (0,1) while quiddity runs from the vertex at
    # (0,1), so the chains match after reversal
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            l = lotus_of_polygon(t, 0)
            g = graph_of_lotus(l)
            interior = quiddity_of(t)[1:-1]
            assert tuple(-w for w in reversed(g.weights)) == interior


def test_weight_sum_counts_incidences():
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            l = lotus_of_polygon(t, 0)
            g = graph_of_lotus(l)
            q = quiddity_of(t)
            assert sum(-w for w in g.weights) + q[0] + q[-1] == 3 * (m - 2)


def test_boundary_vertex_count():
    for n, q in coprime_pairs(20):
        l = lotus_of_slope(Rational(n, q))
        assert len(lateral_boundary(l).vertices) == len(l.petals) + 2
