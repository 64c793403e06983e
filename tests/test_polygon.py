import random

import pytest

from friezelotus.polygon import (TriangulatedPolygon, diagonals_cross,
                                 enumerate_triangulations, flip, make_polygon,
                                 polygon_from_quiddity, polygon_of_cf,
                                 quiddity_of)

from conftest import catalan_by_recurrence, random_triangulation


def test_validation_rejects_bad_polygons():
    with pytest.raises(ValueError):
        make_polygon(5, [(1, 2), (1, 3)])  # (1,2) is an edge
    with pytest.raises(ValueError):
        make_polygon(5, [(1, 3)])  # not maximal
    with pytest.raises(ValueError):
        make_polygon(6, [(1, 3), (2, 4), (2, 6)])  # (1,3) x (2,4)


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
    with pytest.raises(ValueError):
        polygon_of_cf((1, 3))  # value 2/3


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


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_triangulations(2)
    with pytest.raises(ValueError):
        enumerate_triangulations(17)


def test_quiddity_sum_and_ears():
    for m in range(3, 11):
        for t in enumerate_triangulations(m):
            q = quiddity_of(t)
            assert sum(q) == 3 * (m - 2)
            assert sum(1 for a in q if a == 1) >= 2


def test_two_eared_triangulations_are_exactly_the_cf_images():
    from friezelotus.contfrac import all_expansions
    for m in range(4, 10):
        images = {polygon_of_cf(e).diagonals for e in all_expansions(m - 3)}
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
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            assert len(t.triangles) == m - 2
