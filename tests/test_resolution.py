import random
import sys
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

import friezelotus.polyparse as polyparse_module
import friezelotus.resolution as resolution_module
from friezelotus.contfrac import Rational
from friezelotus.lotus import (BASE_PETAL, E1, E2, Lotus, lateral_boundary,
                               lotus_of_polygon, lotus_of_slope, lotus_of_slopes,
                               petal_counts, pinching_points, polygon_of_lotus)
from friezelotus.frieze import frieze_from_quiddity
from friezelotus.polygon import quiddity_of
from friezelotus.polyparse import compact_edges, parse_poly
from friezelotus.resolution import (PlaneCurve, ResolutionGraph, _squarefree, catalan,
                                    count_resolution_graphs, curve_of_lotus,
                                    graph_of_lotus, is_newton_nondegenerate,
                                    lotus_of_poly, newton_fan,
                                    partial_resolutions)

from conftest import (catalan_by_recurrence, coprime_pairs, enumerate_triangulations,
                      incidence_counts)


def random_products(count: int, most: int, seed: int) -> list[Lotus]:
    """Lotuses of ``count`` random products of 1-4 slopes n/q, n, q <= most."""
    rng = random.Random(seed)
    return [lotus_of_slopes({Rational(rng.randint(1, most), rng.randint(1, most))
                             for _ in range(rng.randint(1, 4))})
            for _ in range(count)]


def fibonacci_lotuses() -> list[Lotus]:
    """Slopes F(k+1)/F(k) and F(k)/F(k+1) of about 200 petals, with
    coordinates of 42 or 43 digits."""
    fib = [1, 1]
    while len(fib) < 203:
        fib.append(fib[-1] + fib[-2])
    return [lotus_of_slope(Rational(a, b)) for k in (199, 200, 201)
            for a, b in ((fib[k + 1], fib[k]), (fib[k], fib[k + 1]))]


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


def test_curve_of_the_segment_is_the_empty_product():
    # x - y has the one-petal lotus marked at (1,1); the polynomial 1 has
    # no Newton edge, so its lotus is the unmarked segment
    segment = Lotus(frozenset())
    assert curve_of_lotus(segment) == PlaneCurve(())
    assert lotus_of_poly(PlaneCurve(()).polynomial()) == segment
    with pytest.raises(ValueError, match="^the zero polynomial has no lotus$"):
        lotus_of_poly(parse_poly("0"))
    assert lotus_of_poly(parse_poly("x - y")) == Lotus(frozenset({BASE_PETAL}),
                                                       frozenset({(1, 1)}))


def test_plane_curve_validation_and_str():
    with pytest.raises(ValueError) as refusal:
        PlaneCurve(((2, 4),))
    assert str(refusal.value) == "factor exponents must be coprime positives, got (2, 4)"
    with pytest.raises(ValueError, match="^factor exponents must be coprime"):
        PlaneCurve(((2, 1), (4, 2)))  # the same slope, but not coprime
    with pytest.raises(ValueError, match="^factor slopes must be pairwise distinct$"):
        PlaneCurve(((2, 1), (1, 2), (2, 1)))
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


def test_newton_edges_are_held_to_the_vertex_ceiling(monkeypatch):
    # (x^2-y^2)(x^4-y^2) has the edges (0,4)-(2,2) and (2,2)-(6,0), each of
    # lattice length 2; the ceiling bounds their sum
    f = parse_poly("(x^2-y^2)*(x^4-y^2)")
    monkeypatch.setattr(resolution_module, "MAX_VERTICES", 4)
    assert is_newton_nondegenerate(f)
    monkeypatch.setattr(resolution_module, "MAX_VERTICES", 3)
    for g, length in ((f, 4), (parse_poly("x^4-y^4"), 4)):
        with pytest.raises(ValueError, match=f"lattice length {length}, over the limit of 3"):
            is_newton_nondegenerate(g)
    assert is_newton_nondegenerate(parse_poly("x^3-y^3"))


def test_nondegeneracy_builds_the_hull_once(monkeypatch):
    calls = []

    def counted(support):
        calls.append(support)
        return compact_edges(support)

    monkeypatch.setattr(resolution_module, "compact_edges", counted)
    monkeypatch.setattr(polyparse_module, "compact_edges", counted)
    f = PlaneCurve(((5, 2), (3, 1), (1, 1))).polynomial()
    assert is_newton_nondegenerate(f)
    assert len(calls) == 1 and len(compact_edges(f.support())) == 3


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
    values = set(frieze_from_quiddity(quiddity_of(poly)).entries.values())
    for sub, g in partial_resolutions(full):
        assert sub.petals <= full.petals
        assert all(-w in values for w in g.weights)


def test_every_partial_weight_is_a_frieze_entry():
    # for consecutive boundary points a, b, c of any stage, the weight at b
    # is minus the entry of the full frieze at the labels of a and c
    rng = random.Random(13)
    for _ in range(200):
        l = lotus_of_slopes({Rational(rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(rng.randint(1, 3))})
        poly, verts = polygon_of_lotus(l)
        f = frieze_from_quiddity(quiddity_of(poly))
        index = {pt: t for t, pt in enumerate(verts)}  # label - 1
        for sub, g in partial_resolutions(l):
            chain = lateral_boundary(sub)
            assert g.weights == tuple(-f.entry(index[a], index[c])
                                      for a, c in zip(chain, chain[2:]))


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
    l = Lotus(lotus_of_slopes([Rational(2, 1), Rational(1, 2)]).petals)
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


def test_pinching_points_come_in_increasing_slope():
    for l in random_products(300, 12, seed=14):
        points = pinching_points(l)
        # the slope of (x, y) is y/x, compared by cross multiplication
        assert all(a[1] * b[0] < b[1] * a[0] for a, b in zip(points, points[1:]))


def test_curve_factors_by_decreasing_slope():
    # the order the factors were once sorted into: d/c descending
    by_slope = cmp_to_key(lambda f, g: g[0] * f[1] - f[0] * g[1])
    for l in random_products(300, 12, seed=15) + [Lotus(frozenset({BASE_PETAL}))]:
        points = [pt for pt, c in incidence_counts(l).items() if c == 1 and pt not in (E1, E2)]
        want = sorted(((d, c) for c, d in points), key=by_slope)
        assert curve_of_lotus(l).factors == tuple(want)


def check_weights_read_off_boundary(l: Lotus) -> None:
    """Weights read off boundary neighbours against petal incidences counted
    one petal at a time, and against the polygon's quiddity."""
    chain = lateral_boundary(l)
    counts = incidence_counts(l)
    g = graph_of_lotus(l)
    assert g.weights == tuple(-counts[pt] for pt in chain[1:-1])
    interior = quiddity_of(polygon_of_lotus(l)[0])[1:-1]
    assert tuple(-w for w in reversed(g.weights)) == interior
    assert pinching_points(l) == tuple(pt for pt in chain[1:-1] if counts[pt] == 1)
    assert set(chain) == {E1, E2}.union(*((p.u, p.v, p.apex) for p in l.petals))


def test_graph_weights_match_quiddity_interior():
    # boundary runs (1,0) -> (0,1) while quiddity runs from the vertex at
    # (0,1), so the chains match after reversal
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            l = lotus_of_polygon(t, 0)
            g = graph_of_lotus(l)
            interior = quiddity_of(t)[1:-1]
            assert tuple(-w for w in reversed(g.weights)) == interior
            check_weights_read_off_boundary(l)
    products = random_products(80, 40, seed=9)
    assert max(len(l.petals) + 2 for l in products) >= 50
    for l in products + fibonacci_lotuses():
        check_weights_read_off_boundary(l)


def partials_by_parent_map(l: Lotus) -> list:
    """Reference enumeration: a parent -> children map built through
    ``Petal.parent``, children taken in sorted order, and weights from the
    incidence-count oracle."""
    children = {p: [] for p in l.petals}
    for p in l.petals:
        parent = p.parent()
        if parent is not None:
            children[parent].append(p)
    downsets = {}
    for root in sorted(l.petals, key=lambda p: -sum(p.apex)):
        sets = [frozenset({root})]
        for ch in sorted(children[root]):
            part = [frozenset()] + downsets.pop(ch)
            sets = [s | extra for s in sets for extra in part]
        downsets[root] = sets
    out = []
    for petals in downsets[BASE_PETAL]:
        sub = Lotus(petals)
        counts = incidence_counts(sub)
        weights = tuple(-counts[pt] for pt in lateral_boundary(sub)[1:-1])
        out.append((sub, ResolutionGraph(weights)))
    out.sort(key=lambda pair: (-len(pair[0].petals), pair[1].weights))
    return out


def test_partials_match_the_parent_map_enumeration():
    # products of 1-4 slopes, and of 0 or infinity with 1-3 slopes
    rng = random.Random(13)
    with_axes = [lotus_of_slopes([rng.choice((Rational(0), Rational.infinity()))]
                                 + [Rational(rng.randint(1, 9), rng.randint(1, 9))
                                    for _ in range(rng.randint(1, 3))])
                 for _ in range(40)]
    lotuses = (random_products(40, 9, seed=7) + [lotus_of_slope(Rational(11, 8))]
               + with_axes)
    assert max(len(partials_by_parent_map(l)) for l in lotuses) >= 100
    for l in lotuses:
        assert partial_resolutions(l) == partials_by_parent_map(Lotus(l.petals))
    # a 1001-petal chain: its stages are its prefixes
    l = lotus_of_slope(Rational(1001, 1000))
    pairs = partial_resolutions(l)
    assert [len(sub.petals) for sub, _ in pairs] == list(range(1001, 0, -1))
    for sub, g in pairs[::50]:
        assert sub.petals <= l.petals and g == graph_of_lotus(Lotus(sub.petals))


def test_partials_grow_weights_by_blowing_up(monkeypatch):
    # no stage reads its weights off its boundary or re-checks them
    def refused(*args):
        raise AssertionError("partial_resolutions re-derived a stage")

    product = lotus_of_slopes([Rational(11, 8), Rational(2, 5), Rational(7, 3)])
    stages = len(partials_by_parent_map(product))
    monkeypatch.setattr(resolution_module, "petal_counts", refused)
    monkeypatch.setattr(ResolutionGraph, "__new__", refused)
    assert len(partial_resolutions(lotus_of_slope(Rational(1001, 1000)))) == 1001
    assert len(partial_resolutions(product)) == stages == 84


def test_blown_up_weights_are_the_boundary_weights():
    # every stage, not a sample: the weights grown by blow-ups are the ones
    # read off the stage's own boundary
    lotuses = random_products(40, 12, seed=16) + [lotus_of_slope(Rational(1001, 1000))]
    for l in lotuses:
        for sub, g in partial_resolutions(l):
            assert g.weights == tuple(-c for c in petal_counts(lateral_boundary(sub)))


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
        assert len(lateral_boundary(l)) == len(l.petals) + 2


def squarefree_over_q(coeffs):
    """gcd(g, g') by Euclid over the rationals; g is square-free iff it is
    constant."""
    def trim(a):
        a = list(a)
        while a and a[-1] == 0:
            a.pop()
        return a

    a = trim(Fraction(c) for c in coeffs)
    b = trim(Fraction(k * c) for k, c in enumerate(coeffs))[1:]
    while b:
        r = list(a)
        while len(r) >= len(b):
            factor = r[-1] / b[-1]
            shift = len(r) - len(b)
            for k in range(len(b)):
                r[shift + k] -= factor * b[k]
            r = trim(r)
        a, b = b, r
    return len(a) <= 1


small_factors = st.lists(st.integers(-3, 3), min_size=2, max_size=3).filter(lambda f: f[-1])


@given(st.lists(small_factors, min_size=1, max_size=4), st.booleans())
def test_integer_squarefree_matches_rational_gcd(factors, square_first):
    if square_first:
        factors = [factors[0]] + factors
    coeffs = [1]
    for f in factors:
        prod = [0] * (len(coeffs) + len(f) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        coeffs = prod
    assert _squarefree(coeffs) == squarefree_over_q(coeffs)
    if square_first:
        assert not _squarefree(coeffs)


def test_long_edge_restriction_takes_linear_steps():
    # t^N - 1 is square-free; its gcd chain ends with a division by a
    # constant, which must not rescale all N coefficients at each step
    assert is_newton_nondegenerate(parse_poly("x^100000 - y^100000"))
    assert not _squarefree([1, 2, 1] + [0] * 100000)
