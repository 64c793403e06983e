import random
import time
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from friezelotus.contfrac import Rational, hj_evaluate, hj_expand, kidoh_dual
from friezelotus.lotus import lotus_of_polygon, lotus_of_slopes, polygon_of_lotus
from friezelotus.polygon import (TriangulatedPolygon, polygon_from_quiddity, polygon_of_cf,
                                 quiddity_of)
from friezelotus.transform import reduce

from conftest import (catalan_by_recurrence, diagonals_cross, enumerate_triangulations, flip,
                      make_polygon, outcome, quiddities, random_triangulation, triangles_of)


def test_validation_rejects_bad_polygons():
    with pytest.raises(ValueError, match="^a polygon needs at least 3 vertices$"):
        TriangulatedPolygon(2, frozenset())
    with pytest.raises(ValueError):
        make_polygon(5, [(1, 2), (1, 3)])  # (1,2) is an edge
    with pytest.raises(ValueError):
        make_polygon(5, [(1, 3)])  # not maximal
    with pytest.raises(ValueError):
        make_polygon(6, [(1, 3), (2, 4), (2, 6)])  # (1,3) x (2,4)


def inner_diagonals(m):
    return [(i, j) for i in range(1, m + 1) for j in range(i + 2, m + 1) if (i, j) != (1, m)]


def assert_sweep_matches_pairwise_crossing(m, diagonals):
    # the sweep accepts exactly the pairwise noncrossing sets, which the
    # reference walk then cuts into m-2 triangles, and names a crossing pair
    crossing = {f"diagonals {a} and {b} cross; not a triangulation"
                for a in diagonals for b in diagonals if diagonals_cross(a, b, m)}
    result = outcome(lambda ds: TriangulatedPolygon(m, ds), diagonals)
    if crossing:
        assert result in crossing
    else:
        assert result.diagonals == diagonals
        assert len(triangles_of(result)) == m - 2


def test_sweep_matches_pairwise_crossing_exhaustive():
    for m in range(3, 9):
        for diagonals in combinations(inner_diagonals(m), m - 3):
            assert_sweep_matches_pairwise_crossing(m, frozenset(diagonals))


@st.composite
def diagonal_sets(draw):
    """m-3 inner diagonals of an m-gon, 4 <= m <= 40: a random triangulation
    with up to three diagonals moved, or a uniform random set."""
    m = draw(st.integers(4, 40))
    inner = inner_diagonals(m)
    if draw(st.booleans()):
        return m, frozenset(draw(st.lists(st.sampled_from(inner), min_size=m - 3,
                                          max_size=m - 3, unique=True)))
    diagonals = set(random_triangulation(m, draw(st.randoms(use_true_random=False))).diagonals)
    for _ in range(draw(st.integers(0, 3))):
        diagonals.remove(draw(st.sampled_from(sorted(diagonals))))
        diagonals.add(draw(st.sampled_from([d for d in inner if d not in diagonals])))
    return m, frozenset(diagonals)


@given(diagonal_sets())
def test_sweep_matches_pairwise_crossing(case):
    assert_sweep_matches_pairwise_crossing(*case)


def test_value_semantics_are_those_of_the_pair():
    t = make_polygon(5, [(1, 3), (1, 4)])
    assert repr(t) == f"TriangulatedPolygon(m=5, diagonals={t.diagonals!r})"
    assert hash(t) == hash((5, t.diagonals))
    assert t == make_polygon(5, [(1, 4), (1, 3)]) and t != make_polygon(5, [(1, 3), (3, 5)])


def test_diagonals_cross_cases():
    assert diagonals_cross((1, 3), (2, 4), 5)
    assert not diagonals_cross((1, 3), (3, 5), 5)  # shared endpoint
    assert not diagonals_cross((1, 4), (2, 3), 6)  # nested


def test_quiddity_triangle():
    assert quiddity_of(make_polygon(3, [])) == (1, 1, 1)


def test_quiddity_fan():
    fan = make_polygon(8, [(1, k) for k in range(3, 8)])
    assert quiddity_of(fan) == (6, 1, 2, 2, 2, 2, 2, 1)


def test_polygon_of_cf_running_example():
    p = polygon_of_cf((2, 2, 3, 2))
    assert p.m == 8
    assert quiddity_of(p) == (1, 2, 2, 3, 2, 1, 3, 4)


def test_polygon_of_cf_fan():
    p = polygon_of_cf((6,))
    assert p.m == 8
    assert quiddity_of(p) == (1, 6, 1, 2, 2, 2, 2, 2)
    # a fan: five diagonals at one apex
    apexes = {}
    for i, j in p.diagonals:
        for v in (i, j):
            apexes[v] = apexes.get(v, 0) + 1
    assert max(apexes.values()) == 5


def test_polygon_of_cf_3_2_from_enumeration():
    p = polygon_of_cf((2, 2))
    assert quiddity_of(p) == (1, 2, 2, 1, 3)
    assert any(quiddity_of(t) == (1, 2, 2, 1, 3) for t in enumerate_triangulations(5))


def test_polygon_of_cf_rejects_values_at_most_one():
    for terms, value in (((1, 3), "2/3"), ((1,), "1/1")):
        with pytest.raises(ValueError) as err:
            polygon_of_cf(terms)
        assert str(err.value) == f"duality needs n > q, got {value}"


def test_flip_pentagon():
    p = make_polygon(5, [(1, 3), (1, 4)])
    q = flip(p, (1, 3))
    assert q.diagonals == frozenset({(2, 4), (1, 4)})


def test_flip_rejects_non_diagonal():
    p = make_polygon(5, [(1, 3), (1, 4)])
    with pytest.raises(ValueError):
        flip(p, (2, 5))


def test_flip_graph_of_pentagon_is_a_5_cycle():
    tris = enumerate_triangulations(5)
    neighbors = {t.diagonals: {flip(t, d).diagonals for d in t.diagonals} for t in tris}
    assert all(len(n) == 2 for n in neighbors.values())
    # connected 2-regular graph on 5 vertices = the 5-cycle
    seen, stack = set(), [tris[0].diagonals]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(neighbors[cur])
    assert len(seen) == 5


def test_flip_involution_exhaustive():
    for m in range(4, 10):
        for t in enumerate_triangulations(m):
            for d in t.diagonals:
                flipped = flip(t, d)
                new = next(iter(flipped.diagonals - t.diagonals))
                assert flip(flipped, new) == t


def test_flip_quiddity_changes_by_one():
    rng = random.Random(7)
    for _ in range(25):
        t = random_triangulation(12, rng)
        q_before = quiddity_of(t)
        d = sorted(t.diagonals)[rng.randrange(len(t.diagonals))]
        flipped = flip(t, d)
        new = next(iter(flipped.diagonals - t.diagonals))
        q_after = quiddity_of(flipped)
        deltas = {v: q_after[v - 1] - q_before[v - 1] for v in range(1, 13)
                  if q_after[v - 1] != q_before[v - 1]}
        assert deltas == {d[0]: -1, d[1]: -1, new[0]: 1, new[1]: 1}


def test_enumerate_counts_match_catalan():
    for m in range(3, 9):
        tris = enumerate_triangulations(m)
        assert len(tris) == catalan_by_recurrence(m - 2)
        assert len({t.diagonals for t in tris}) == len(tris)


def test_quiddity_sum_and_ears():
    for m in range(3, 11):
        for t in enumerate_triangulations(m):
            q = quiddity_of(t)
            assert sum(q) == 3 * (m - 2)
            assert sum(1 for a in q if a == 1) >= 2


def expansions(total):
    """All expansions with every term >= 2 and sum(b_i) - r = total: one
    term c + 1 per part c of a composition of total."""
    for cuts in product((False, True), repeat=total - 1):
        parts = [1]
        for cut in cuts:
            if cut:
                parts.append(1)
            else:
                parts[-1] += 1
        yield tuple(c + 1 for c in parts)


def test_two_eared_triangulations_are_exactly_the_cf_images():
    for m in range(4, 10):
        images = {polygon_of_cf(e).diagonals for e in expansions(m - 3)}
        two_eared_at_v1 = {t.diagonals for t in enumerate_triangulations(m)
                           if quiddity_of(t).count(1) == 2 and quiddity_of(t)[0] == 1}
        assert images == two_eared_at_v1


def test_polygon_from_quiddity_roundtrip():
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            assert polygon_from_quiddity(quiddity_of(t)) == t


def test_polygon_from_quiddity_rejects_garbage():
    for bad in ((2, 2, 2), (1, 1), (1, 2, 1, 2, 1)):
        with pytest.raises(ValueError):
            polygon_from_quiddity(bad)


def test_triangles_of_counts():
    # the reference walk finds m-2 triangles, and the triangles at each
    # vertex are the quiddity read off the diagonals
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            triangles = triangles_of(t)
            assert len(triangles) == m - 2
            counts = [0] * m
            for tri in triangles:
                for v in tri:
                    counts[v - 1] += 1
            assert tuple(counts) == quiddity_of(t)


def smallest_label_ear_cut(q):
    """Reference ear cut: always the live ear of smallest label, found by
    sorting the live vertices, with the messages of ``polygon_from_quiddity``."""
    m = len(q)
    if m < 3:
        raise ValueError("quiddity needs length >= 3")
    for t, a in enumerate(q):
        if a < 1:
            raise ValueError(f"quiddity entry {a} at position {t} is not positive")
    values = {t + 1: q[t] for t in range(m)}
    nxt = {t + 1: ((t + 1) % m) + 1 for t in range(m)}
    prv = {v: k for k, v in nxt.items()}
    diagonals = set()
    while len(values) > 3:
        ear = next((v for v in sorted(values) if values[v] == 1), None)
        if ear is None:
            raise ValueError("not the quiddity of a triangulated polygon (no ear)")
        a, b = prv[ear], nxt[ear]
        diagonals.add((min(a, b), max(a, b)))
        values[a] -= 1
        values[b] -= 1
        if values[a] < 1 or values[b] < 1:
            raise ValueError("not the quiddity of a triangulated polygon")
        del values[ear]
        nxt[a], prv[b] = b, a
    if any(v != 1 for v in values.values()):
        raise ValueError("not the quiddity of a triangulated polygon")
    return TriangulatedPolygon(m, frozenset(diagonals))


def assert_same_as_smallest_label_ear_cut(q):
    assert outcome(polygon_from_quiddity, q) == outcome(smallest_label_ear_cut, q)


def test_worklist_ear_cut_matches_smallest_label_exhaustive():
    for m in range(3, 8):
        for q in product(range(5), repeat=m):
            assert_same_as_smallest_label_ear_cut(q)


@given(quiddities())
def test_worklist_ear_cut_matches_smallest_label(q):
    assert_same_as_smallest_label_ear_cut(q)


def test_stack_sweep_matches_smallest_label_on_rotations_and_single_changes():
    # each rotation leaves other ears to be cut round the base edge [1, m],
    # from either end of the stack; changing one entry by 1, of it or of it
    # with every ear raised to 2, brings both refusal texts of the cut
    cases = set()
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            q = quiddity_of(t)
            for r in range(m):
                for base in (q[r:] + q[:r], tuple(a + (a == 1) for a in q[r:] + q[:r])):
                    cases.add(base)
                    cases.update(base[:s] + (base[s] + delta,) + base[s + 1:]
                                 for s in range(m) for delta in (-1, 1))
    texts = set()
    for q in cases:
        assert_same_as_smallest_label_ear_cut(q)
        texts.add(outcome(polygon_from_quiddity, q))
    assert {"not the quiddity of a triangulated polygon",
            "not the quiddity of a triangulated polygon (no ear)"} <= texts


def test_ear_cut_is_linear_on_every_input():
    # every ear of these is cut at one end of the stack, round the base
    # edge; a list operation of O(m) per cut would take minutes here
    m = 400_000
    start = time.perf_counter()
    for q in ((1,) + (2,) * (m - 2) + (m - 3,), (m - 3,) + (2,) * (m - 2) + (1,)):
        with pytest.raises(ValueError, match="^not the quiddity of a triangulated polygon$"):
            polygon_from_quiddity(q)
    assert time.perf_counter() - start < 5


@given(st.integers(3, 40), st.randoms(use_true_random=False))
def test_unchecked_constructions_give_valid_triangulations(m, rng):
    # the public constructor re-checks what the package's own builders skip
    t = random_triangulation(m, rng)
    slopes = [Rational(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 4))]
    built = [polygon_from_quiddity(quiddity_of(t)), polygon_of_lotus(lotus_of_polygon(t, 0))[0],
             polygon_of_lotus(lotus_of_slopes(slopes))[0]]
    for d in t.diagonals:
        built += reduce(t, d)[::2]
    for p in built:
        assert TriangulatedPolygon(p.m, p.diagonals) == p


def cf_by_ear_cut(terms):
    """``polygon_of_cf`` by its definition: the ear cut of the quiddity
    (1, terms, 1, dual terms reversed), the dual read off the value."""
    dual = kidoh_dual(hj_evaluate(terms)).dual
    return polygon_from_quiddity((1, *terms, 1, *reversed(dual)))


def test_polygon_of_cf_reads_the_run_tree_as_the_ear_cut_does():
    fib = [1, 1]
    while len(fib) < 60:
        fib.append(fib[-1] + fib[-2])
    values = [(n, q) for n in range(2, 80) for q in range(1, n) if gcd(n, q) == 1]
    values += [(fib[k + 1], fib[k]) for k in range(1, 59)] + [(fib[k + 2], fib[k]) for k in range(1, 58)]
    for n, q in values:
        terms = hj_expand(Rational(n, q))
        assert polygon_of_cf(terms) == cf_by_ear_cut(terms)
        assert polygon_of_cf(list(terms)) == cf_by_ear_cut(terms)
    # every refusal keeps its text, in the order the value's checks give it
    for terms in [(), (1,), (0, 3), (3, 1), (2, 2), (5, 1, 3), (1, 3), (2, 0), (1, 2, 2),
                  (10 ** 6,), (999_999,), (2,) * 999_998, (3,) + (2,) * 999_997]:
        assert outcome(polygon_of_cf, terms) == outcome(cf_by_ear_cut, terms)
