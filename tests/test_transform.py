import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from friezelotus.contfrac import Rational
from friezelotus.frieze import frieze_from_quiddity
from friezelotus.lotus import (lotus_of_polygon, lotus_of_slope, lotus_of_slopes,
                               polygon_of_lotus)
from friezelotus.polygon import enumerate_triangulations, flip_quadrilateral, quiddity_of
from friezelotus.polyparse import parse_poly
from friezelotus.resolution import (curve_of_lotus, graph_of_lotus, lotus_of_poly,
                                    partial_resolutions)
from friezelotus.transform import (base_side_petals, mutate_lotus, quad_type,
                                   reduce, reduction_chain)

from conftest import (coprime_pairs, make_polygon, petal_of_triangle, random_triangulation,
                      subpolygon, triangles_of)


def test_reduce_square_leaves_triangle():
    p = make_polygon(4, [(1, 3)])
    r = reduce(p, (1, 3))
    assert r.polygon.m == 3 and r.dropped.m == 3
    assert r.quiddity == (1, 1, 1)


def test_reduce_running_five_chain():
    # cutting the running 8-gon at the diagonal bounding its last triangle
    l = lotus_of_slope(Rational(11, 8))
    poly, verts = polygon_of_lotus(l)
    assert quiddity_of(poly) == (2, 2, 3, 2, 1, 3, 4, 1)
    r = reduce(poly, (4, 6))
    assert r.quiddity == (2, 2, 3, 1, 2, 4, 1)
    assert r.quiddity[1:-1] == (2, 3, 1, 2, 4)
    assert r.polygon.m == 7 and r.dropped.m == 3


def test_reduce_vertex_counts_add_up():
    for m in range(4, 9):
        for t in enumerate_triangulations(m):
            for d in sorted(t.diagonals):
                r = reduce(t, d)
                assert r.polygon.m + r.dropped.m == m + 2


def test_reduce_rejects_non_diagonal():
    p = make_polygon(4, [(1, 3)])
    with pytest.raises(ValueError):
        reduce(p, (2, 4))


def check_reduce_against_relabelling(t):
    """Both pieces of every cut against relabelling through a lookup table."""
    for i, j in sorted(t.diagonals):
        r = reduce(t, (i, j))
        assert r.polygon == subpolygon(t, [*range(1, i + 1), *range(j, t.m + 1)], (i, j))
        assert r.dropped == subpolygon(t, [*range(i, j + 1)], (i, j))


def test_reduce_matches_relabelling_reference():
    for m in range(4, 10):
        for t in enumerate_triangulations(m):
            check_reduce_against_relabelling(t)


@given(st.integers(4, 40), st.randoms(use_true_random=False))
def test_reduce_matches_relabelling_reference_on_random_triangulations(m, rng):
    check_reduce_against_relabelling(random_triangulation(m, rng))


def check_reduce_formula(t):
    """The paper's closed formula for the kept piece's quiddity, in the
    frieze entries of the whole polygon, against the recount of ``reduce``."""
    q = quiddity_of(t)
    f = frieze_from_quiddity(q)
    m = len(q)
    for i, j in sorted(t.diagonals):
        if j < m:
            expected = q[:i - 1] + (f.entry(i - 2, j - 1), f.entry(i - 1, j)) + q[j:]
        else:
            expected = q[:i - 1] + (f.entry(i - 2, m - 1), f.entry(0, i - 1))
        assert reduce(t, (i, j)).quiddity == expected


def test_reduce_formula_matches_recount_oracle():
    for m in range(4, 10):
        for t in enumerate_triangulations(m):
            check_reduce_formula(t)


@given(st.integers(4, 40), st.randoms(use_true_random=False))
def test_reduce_formula_matches_recount_on_random_triangulations(m, rng):
    check_reduce_formula(random_triangulation(m, rng))


def test_reduce_ear_cut_decrements_neighbours():
    # cutting off the ear at vertex i turns (.., a_{i-1}, 1, a_{i+1}, ..)
    # into (.., a_{i-1} - 1, a_{i+1} - 1, ..)
    for m in range(5, 9):
        for t in enumerate_triangulations(m):
            q = quiddity_of(t)
            for i in range(2, m):  # ear strictly inside 2..m-1
                if q[i - 1] == 1 and (i - 1, i + 1) in t.diagonals:
                    r = reduce(t, (i - 1, i + 1))
                    expected = (q[:i - 2] + (q[i - 2] - 1, q[i] - 1) + q[i + 1:])
                    assert r.quiddity == expected


def test_both_pieces_generate_positive_friezes():
    for m in range(4, 9):
        for t in enumerate_triangulations(m):
            for d in sorted(t.diagonals):
                r = reduce(t, d)
                frieze_from_quiddity(quiddity_of(r.polygon))
                frieze_from_quiddity(quiddity_of(r.dropped))


def test_reduction_chain_running():
    chain = reduction_chain(lotus_of_slope(Rational(11, 8)))
    assert [r.quiddity[1:-1] for r in chain] == [
        (2, 3, 1, 2, 4), (2, 2, 1, 4), (2, 1, 3), (1, 2), (1,)]


def cut_and_stage_quiddities(l) -> tuple[Counter, Counter]:
    """Quiddities of the reduction chain's kept pieces, and of the proper
    stages' own polygons; every stage's graph is checked on the way."""
    stages = Counter()
    for sub, g in partial_resolutions(l):
        assert g == graph_of_lotus(sub)
        if len(sub.petals) < len(l.petals):
            stages[quiddity_of(polygon_of_lotus(sub)[0])] += 1
    return Counter(r.quiddity for r in reduction_chain(l)), stages


def test_reduction_chain_matches_proper_partials():
    # two independent paths: each cut's quiddity is counted off the kept
    # piece's diagonals, each stage's off its own petals.  A single slope's
    # proper stages are its chain prefixes, one per diagonal; a product also
    # has stages that drop more than one subtree, which no single cut keeps.
    singles = [Rational(a, b) for n, q in coprime_pairs(39) for a, b in ((n, q), (q, n))]
    assert len(singles) == 946
    for value in singles:
        cuts, stages = cut_and_stage_quiddities(lotus_of_slope(value))
        assert cuts == stages
    rng = random.Random(11)
    strict = 0
    for _ in range(300):
        l = lotus_of_slopes({Rational(rng.randint(1, 12), rng.randint(1, 12))
                             for _ in range(rng.randint(2, 3))})
        cuts, stages = cut_and_stage_quiddities(l)
        assert cuts <= stages
        strict += cuts != stages
    assert strict > 150


def test_reduction_chain_base_petal_is_empty():
    from friezelotus.lotus import BASE_PETAL, Lotus
    assert reduction_chain(Lotus(frozenset({BASE_PETAL}))) == []


def test_reduction_chain_cusp():
    chain = reduction_chain(lotus_of_slope(Rational(3, 2)))
    assert [r.quiddity[1:-1] for r in chain] == [(1, 2), (1,)]


PENTAGON_SEQUENCE = [
    ((3, 5), ((3, 1),)),           # x^3 - y
    ((1, 3), ((3, 2),)),           # x^3 - y^2
    ((1, 4), ((2, 3),)),           # x^2 - y^3
    ((2, 4), ((1, 3),)),           # x - y^3
    ((2, 5), ((2, 1), (1, 2))),    # back to (x^2 - y)(x - y^2)
]


def test_pentagon_mutation_cycle():
    start = lotus_of_poly(parse_poly("(x^2+y)*(x+y^2)")).unmarked()
    assert curve_of_lotus(start).factors == ((2, 1), (1, 2))
    cur = start
    for diagonal, factors in PENTAGON_SEQUENCE:
        cur = mutate_lotus(cur, diagonal)
        assert curve_of_lotus(cur).factors == factors
    assert cur == start


def test_pentagon_double_mutation_is_identity_each_step():
    from friezelotus.polygon import flip, flip_quadrilateral
    cur = lotus_of_poly(parse_poly("(x^2+y)*(x+y^2)")).unmarked()
    for diagonal, _ in PENTAGON_SEQUENCE:
        poly, _ = polygon_of_lotus(cur)
        _, _, k1, k2 = flip_quadrilateral(poly, diagonal)
        new_diag = (min(k1, k2), max(k1, k2))
        once = mutate_lotus(cur, diagonal)
        assert mutate_lotus(once, new_diag) == cur
        cur = once


def test_mutation_involution_exhaustive():
    from friezelotus.lotus import lotus_of_polygon
    from friezelotus.polygon import flip_quadrilateral
    for m in range(4, 8):
        for t in enumerate_triangulations(m):
            l = lotus_of_polygon(t, 0)
            poly, _ = polygon_of_lotus(l)
            for d in sorted(poly.diagonals):
                _, _, k1, k2 = flip_quadrilateral(poly, d)
                new_diag = (min(k1, k2), max(k1, k2))
                mutated = mutate_lotus(l, d)
                assert mutate_lotus(mutated, new_diag).petals == l.petals


def test_mutation_quiddity_changes_by_one():
    rng = random.Random(11)
    for _ in range(20):
        t = random_triangulation(10, rng)
        from friezelotus.lotus import lotus_of_polygon
        l = lotus_of_polygon(t, 0)
        poly, _ = polygon_of_lotus(l)
        d = sorted(poly.diagonals)[rng.randrange(len(poly.diagonals))]
        from friezelotus.polygon import flip_quadrilateral
        i, j, k1, k2 = flip_quadrilateral(poly, d)
        before = quiddity_of(poly)
        after_poly, _ = polygon_of_lotus(mutate_lotus(l, d))
        after = quiddity_of(after_poly)
        deltas = {v: after[v - 1] - before[v - 1] for v in range(1, 11)
                  if after[v - 1] != before[v - 1]}
        assert deltas == {i: -1, j: -1, k1: 1, k2: 1}


def test_mutation_rejects_absent_diagonal():
    l = lotus_of_slope(Rational(3, 2)).unmarked()
    with pytest.raises(ValueError):
        mutate_lotus(l, (1, 3) if (1, 3) not in polygon_of_lotus(l)[0].diagonals
                     else (2, 5))


def test_alpha_part_is_preserved():
    from friezelotus.lotus import lotus_of_polygon
    from friezelotus.polygon import flip_quadrilateral
    for m in range(4, 8):
        for t in enumerate_triangulations(m):
            l = lotus_of_polygon(t, 0)
            poly, _ = polygon_of_lotus(l)
            for d in sorted(poly.diagonals):
                _, _, k1, k2 = flip_quadrilateral(poly, d)
                new_diag = (min(k1, k2), max(k1, k2))
                before = base_side_petals(l, d)
                mutated = mutate_lotus(l, d)
                after = base_side_petals(mutated, new_diag)
                assert before == after
                assert before <= mutated.petals


def test_type_toggles_under_mutation():
    from friezelotus.lotus import lotus_of_polygon
    from friezelotus.polygon import flip_quadrilateral
    for m in range(4, 8):
        for t in enumerate_triangulations(m):
            l = lotus_of_polygon(t, 0)
            poly, _ = polygon_of_lotus(l)
            for d in sorted(poly.diagonals):
                _, _, k1, k2 = flip_quadrilateral(poly, d)
                new_diag = (min(k1, k2), max(k1, k2))
                mutated = mutate_lotus(l, d)
                assert quad_type(mutated, new_diag) != quad_type(l, d)


def test_quad_type_matches_drawn_convention():
    # the cusp-style quadrilateral (1,0),(0,1),(1,1),(2,1) with its base
    # triangle ordered (a, c, b) clockwise is type 1
    p1 = lotus_of_poly(parse_poly("(x^2+y)*(x+y^2)")).unmarked()
    assert quad_type(p1, (3, 5)) == 1
    assert quad_type(p1, (1, 3)) == 2


def quad_type_by_lattice(l, d):
    """The drawn definition: find the base-side triangle {a, b, c} by the
    point sum b = a + c, then read the orientation of (a, c, b) off the
    sign of a cross product."""
    poly, verts = polygon_of_lotus(l)
    i, j, k1, k2 = flip_quadrilateral(poly, d)
    pi, pj = verts[i - 1], verts[j - 1]
    for apex_label in (k1, k2):
        c = verts[apex_label - 1]
        for a, b in ((pi, pj), (pj, pi)):
            if (a[0] + c[0], a[1] + c[1]) == b:
                cross = (c[0] - a[0]) * (b[1] - a[1]) - (c[1] - a[1]) * (b[0] - a[0])
                return 1 if cross < 0 else 2
    raise ValueError(f"diagonal {d} does not bound a petal pair")


def base_side_petals_by_regions(l, d):
    """The petals outside the quadrilateral of ``d`` and outside the three
    regions cut off by its sides other than the one facing [1, m], each
    found as a petal by the lattice search."""
    poly, verts = polygon_of_lotus(l)
    i, j, k1, k2 = flip_quadrilateral(poly, d)
    quad = sorted((i, j, k1, k2))
    sides = [(min(quad[t], quad[(t + 1) % 4]), max(quad[t], quad[(t + 1) % 4]))
             for t in range(4)]
    far_sides = [(lo, hi) for lo, hi in sides if (lo, hi) != (1, poly.m)]
    petals = set()
    for tri in triangles_of(poly):
        if i in tri and j in tri:
            continue
        if not any(all(lo <= v <= hi for v in tri) for lo, hi in far_sides):
            petals.add(petal_of_triangle([verts[v - 1] for v in tri]))
    return frozenset(petals)


def test_label_rules_match_the_lattice_definitions():
    # quad_type and base_side_petals read off labels, against their
    # lattice definitions: every diagonal of every triangulation up to
    # m = 9 and of random ones up to m = 40
    rng = random.Random(8)
    polygons = [t for m in range(4, 10) for t in enumerate_triangulations(m)]
    polygons += [random_triangulation(m, rng) for m in range(10, 41)]
    for t in polygons:
        l = lotus_of_polygon(t, 0)
        for d in sorted(t.diagonals):
            assert quad_type(l, d) == quad_type_by_lattice(l, d)
            assert base_side_petals(l, d) == base_side_petals_by_regions(l, d)
