import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from friezelotus.contfrac import Rational
from friezelotus.frieze import frieze_from_quiddity
from friezelotus.lotus import (Lotus, check_lotus, check_petal, lateral_boundary,
                               lotus_of_polygon, lotus_of_slope, lotus_of_slopes, polygon_of_lotus)
from friezelotus.polygon import quiddity_of
from friezelotus.polyparse import parse_poly
from friezelotus.resolution import (curve_of_lotus, graph_of_lotus, lotus_of_poly,
                                    partial_resolutions)
from friezelotus.transform import (base_side_petals, mutate_lotus, quad_type,
                                   reduce, reduction_chain)

from conftest import (coprime_pairs, enumerate_triangulations, flip_quadrilateral, make_polygon,
                      mutate_by_reembedding, outcome, petal_of_triangle, random_triangulation,
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
    start = Lotus(lotus_of_poly(parse_poly("(x^2+y)*(x+y^2)")).petals)
    assert curve_of_lotus(start).factors == ((2, 1), (1, 2))
    cur = start
    for diagonal, factors in PENTAGON_SEQUENCE:
        cur = mutate_lotus(cur, diagonal)
        assert curve_of_lotus(cur).factors == factors
    assert cur == start


def test_pentagon_double_mutation_is_identity_each_step():
    cur = Lotus(lotus_of_poly(parse_poly("(x^2+y)*(x+y^2)")).petals)
    for diagonal, _ in PENTAGON_SEQUENCE:
        poly, _ = polygon_of_lotus(cur)
        _, _, k1, k2 = flip_quadrilateral(poly, diagonal)
        new_diag = (min(k1, k2), max(k1, k2))
        once = mutate_lotus(cur, diagonal)
        assert mutate_lotus(once, new_diag) == cur
        cur = once


def test_mutation_involution_exhaustive():
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
        l = lotus_of_polygon(t, 0)
        poly, _ = polygon_of_lotus(l)
        d = sorted(poly.diagonals)[rng.randrange(len(poly.diagonals))]
        i, j, k1, k2 = flip_quadrilateral(poly, d)
        before = quiddity_of(poly)
        after_poly, _ = polygon_of_lotus(mutate_lotus(l, d))
        after = quiddity_of(after_poly)
        deltas = {v: after[v - 1] - before[v - 1] for v in range(1, 11)
                  if after[v - 1] != before[v - 1]}
        assert deltas == {i: -1, j: -1, k1: 1, k2: 1}


def assert_mutations_match_the_oracle(l, diagonals):
    # the local rewrite against flipping the lotus polygon and embedding it
    # afresh; the result also passes the gates of a lotus from outside
    for d in diagonals:
        mutated = mutate_lotus(l, d)
        assert mutated == mutate_by_reembedding(l, d)
        assert check_lotus(mutated.petals, mutated.marks) == mutated
        assert all(check_petal(p.u, p.v) == p for p in mutated.petals)


def test_mutation_matches_the_oracle_exhaustive():
    for m in range(4, 10):
        for t in enumerate_triangulations(m):
            assert_mutations_match_the_oracle(lotus_of_polygon(t, 0), sorted(t.diagonals))


# up to 4 slopes of at most 9 petals each: polygons of up to 38 vertices
small_slopes = st.builds(Rational, st.integers(1, 9), st.integers(1, 9))


@given(st.lists(small_slopes, min_size=1, max_size=4))
def test_mutation_matches_the_oracle_on_slope_products(slopes):
    l = lotus_of_slopes(slopes)
    assert_mutations_match_the_oracle(l, sorted(polygon_of_lotus(l)[0].diagonals))


def fibonacci_ratio(k: int, inverted: bool) -> Rational:
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return Rational(a, b) if inverted else Rational(b, a)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200), st.booleans(), st.lists(st.integers(0, 10**6), min_size=1,
                                                       max_size=4))
def test_mutation_matches_the_oracle_on_fibonacci_ratios(k, inverted, picks):
    # zigzag lotuses whose coordinates grow like the Fibonacci numbers
    l = lotus_of_slope(fibonacci_ratio(k, inverted))
    diagonals = sorted(polygon_of_lotus(l)[0].diagonals)
    assert_mutations_match_the_oracle(l, [diagonals[x % len(diagonals)] for x in picks])


def test_mutation_reads_the_kept_boundary_as_a_fresh_walk():
    # a lotus born with its boundary index, from its slopes, and the same
    # lotus reading its index off a fresh walk mutate, or refuse, alike at
    # every chord with labels from 0 to m + 1
    rng = random.Random(26)
    pairs = coprime_pairs(30)
    cases = [[Rational(11, 8), Rational(2, 5)], [fibonacci_ratio(30, False)],
             [fibonacci_ratio(25, True)], [fibonacci_ratio(12, False), Rational(1, 4)]]
    cases += [[Rational(*rng.choice(pairs)[::rng.choice((1, -1))]) for _ in range(rng.randint(2, 4))]
              for _ in range(8)]
    for slopes in cases:
        l = lotus_of_slopes(slopes)
        fresh = Lotus(l.petals, l.marks)
        m = len(lateral_boundary(l))
        for chord in ((i, j) for i in range(m + 2) for j in range(i, m + 2)):
            assert (outcome(lambda c: mutate_lotus(l, c), chord)
                    == outcome(lambda c: mutate_lotus(fresh, c), chord))
        assert all(mutate_lotus(l, d) == mutate_by_reembedding(l, d)
                   for d in sorted(polygon_of_lotus(l)[0].diagonals))


def test_a_cut_counts_its_quiddity_off_the_parent():
    # reduce takes t off at each end of the cut instead of recounting, and
    # the chain reads the parent quiddity once; both give the quiddity of
    # the kept piece, and the chain is reduce at every diagonal
    rng = random.Random(26)
    for m in [4, 5, 6, 9, 14, 30] * 4:
        p = random_triangulation(m, rng)
        for d in p.diagonals:
            r = reduce(p, d[::-1])
            assert r.quiddity == quiddity_of(r.polygon)
            assert r.polygon.m + r.dropped.m == m + 2
        l = lotus_of_polygon(p, 0)
        chain = reduction_chain(l)
        poly, _ = polygon_of_lotus(l)
        assert len(chain) == m - 3 and set(chain) == {reduce(poly, d) for d in poly.diagonals}


def test_mutation_refusals_keep_their_text():
    l = lotus_of_slopes([Rational(11, 8), Rational(2, 5)])
    poly, _ = polygon_of_lotus(l)
    m = poly.m
    d = min(poly.diagonals)
    absent = next((i, j) for i in range(1, m) for j in range(i + 2, m + 1)
                  if (i, j) not in poly.diagonals and (i, j) != (1, m))
    cases = {(1, m): (1, m), (0, 3): (0, 3), (2, m + 1): (2, m + 1), (m + 1, 2): (2, m + 1),
             absent: absent, absent[::-1]: absent, (3, 3): (3, 3), (-1, 2): (-1, 2)}
    for chord, named in cases.items():
        for f in (mutate_lotus, quad_type, base_side_petals):
            with pytest.raises(ValueError) as refusal:
                f(l, chord)
            assert str(refusal.value) == f"{named} is not a diagonal of the triangulation"
    # a diagonal is one chord in either order
    assert mutate_lotus(l, d[::-1]) == mutate_lotus(l, d)
    # every chord with labels from 0 to m + 1 is mutated or refused as the
    # oracle does it
    for chord in product(range(m + 2), repeat=2):
        assert (outcome(lambda c: mutate_lotus(l, c), chord)
                == outcome(lambda c: mutate_by_reembedding(l, c), chord))


def test_the_segment_lotus_is_refused_with_one_text():
    calls = [polygon_of_lotus, *(lambda l, f=f: f(l, (1, 3))
                                 for f in (mutate_lotus, quad_type, base_side_petals))]
    for call in calls:
        with pytest.raises(ValueError, match="^the segment lotus has no polygon$"):
            call(Lotus(frozenset()))


def test_mutation_rejects_absent_diagonal():
    l = Lotus(lotus_of_slope(Rational(3, 2)).petals)
    with pytest.raises(ValueError):
        mutate_lotus(l, (1, 3) if (1, 3) not in polygon_of_lotus(l)[0].diagonals
                     else (2, 5))


def test_alpha_part_is_preserved():
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
    p1 = Lotus(lotus_of_poly(parse_poly("(x^2+y)*(x+y^2)")).petals)
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


class UnreversedBoundary(tuple):
    """A kept lateral boundary that refuses to be read backwards whole."""

    def __getitem__(self, key):
        if isinstance(key, slice) and (key.step or 1) < 0:
            raise AssertionError("the whole lateral boundary was reversed")
        return tuple.__getitem__(self, key)


def test_a_chord_is_read_without_reversing_the_boundary():
    # the two points of a chord are read by index from the end of the kept
    # boundary, so a quadrilateral costs O(1) once the boundary is walked
    t = random_triangulation(40, random.Random(25))
    l = lotus_of_polygon(t, 0)
    diagonals = sorted(t.diagonals)
    expected = [(quad_type_by_lattice(l, d), mutate_by_reembedding(l, d),
                 base_side_petals_by_regions(l, d)) for d in diagonals]
    guarded = Lotus(l.petals)
    guarded._boundary = UnreversedBoundary(lateral_boundary(guarded))
    for d, (kind, mutated, base_side) in zip(diagonals, expected):
        assert quad_type(guarded, d) == kind
        assert mutate_lotus(guarded, d) == mutated
        assert base_side_petals(guarded, d) == base_side
