import copy
import pickle
import random
import tracemalloc
from itertools import product
from math import gcd

import pytest

from friezelotus.contfrac import Rational, hj_expand, kidoh_dual
from friezelotus.lotus import (BASE_PETAL, E1, E2, Lotus, Petal, _lotus,
                               embed_polygon,
                               lateral_boundary, lotus_of_polygon,
                               lotus_of_slope, lotus_of_slopes,
                               pinching_points, polygon_of_lotus)
from friezelotus.frieze import frieze_from_quiddity
from friezelotus.polygon import quiddity_of

from conftest import (coprime_pairs, enumerate_triangulations, outcome, petal_of_triangle,
                      random_triangulation, triangles_of)


def petal(u, v):
    return Petal(tuple(u), tuple(v))


LOTUS_11_8_PETALS = frozenset({
    petal((1, 0), (0, 1)),
    petal((1, 1), (0, 1)),
    petal((1, 1), (1, 2)),
    petal((1, 1), (2, 3)),
    petal((3, 4), (2, 3)),
    petal((3, 4), (5, 7)),
})


def test_petal_validation():
    with pytest.raises(ValueError):
        Petal((0, 1), (1, 0))  # det = -1
    with pytest.raises(ValueError):
        Petal((2, 0), (1, 1))  # det = 2
    with pytest.raises(ValueError):
        Petal((0, 0), (0, 1))
    Petal((1, 1), (1, 2))
    Petal((2, 1), (1, 1))


def test_petal_parent_chain():
    p = petal((3, 4), (5, 7))
    chain = [p]
    while (parent := chain[-1].parent()) is not None:
        chain.append(parent)
    assert chain[-1] == BASE_PETAL
    assert len(chain) == 6


def test_lotus_requires_parent_closure():
    with pytest.raises(ValueError):
        Lotus(frozenset({BASE_PETAL, petal((1, 1), (1, 2))}))


def test_petal_sets_without_the_base_fail_parent_closure():
    # every other petal's parent chain ends at the base petal, so a nonempty
    # set without it has a petal whose parent is missing
    rng = random.Random(15)
    for _ in range(300):
        slopes = [Rational(rng.randint(1, 40), rng.randint(1, 40))
                  for _ in range(rng.randint(1, 4))]
        rest = sorted(lotus_of_slopes(slopes).petals - {BASE_PETAL})
        if not rest:
            continue
        for petals in (rest, rng.sample(rest, rng.randint(1, len(rest)))):
            with pytest.raises(ValueError, match="^petal set is not parent-closed: "):
                Lotus(frozenset(petals))


def test_lotus_of_slope_3_2():
    l = lotus_of_slope(Rational(3, 2))
    assert l.petals == frozenset({petal((1, 0), (0, 1)), petal((1, 1), (0, 1)),
                                  petal((1, 1), (1, 2))})
    assert l.marks == frozenset({(2, 3)})


def test_lotus_of_slope_1_1():
    l = lotus_of_slope(Rational(1, 1))
    assert l.petals == frozenset({BASE_PETAL})
    assert l.marks == frozenset({(1, 1)})


def test_lotus_of_slope_11_8():
    l = lotus_of_slope(Rational(11, 8))
    assert l.petals == LOTUS_11_8_PETALS
    assert l.marks == frozenset({(8, 11)})


def test_degenerate_slopes():
    assert lotus_of_slope(Rational(0)).is_segment
    assert lotus_of_slope(Rational.infinity()).is_segment
    both = lotus_of_slopes([Rational(0), Rational.infinity()])
    assert both.is_segment
    assert both.marks == frozenset({E1, E2})


def test_union_of_slopes():
    l = lotus_of_slopes([Rational(3, 2), Rational(2, 1), Rational(1, 1)])
    assert l.petals == lotus_of_slope(Rational(3, 2)).petals
    assert l.marks == frozenset({(2, 3), (1, 2), (1, 1)})
    two = lotus_of_slopes([Rational(3, 2), Rational(1, 1)])
    assert two.petals == lotus_of_slope(Rational(3, 2)).petals
    assert two.marks == frozenset({(2, 3), (1, 1)})


def test_union_walk_is_the_union_of_single_slopes():
    rng = random.Random(14)
    for _ in range(300):
        slopes = [Rational.infinity() if rng.random() < 0.1
                  else Rational(rng.randint(0, 12), rng.randint(1, 12))
                  for _ in range(rng.randint(1, 5))]
        parts = [lotus_of_slopes([s]) for s in slopes]
        union = lotus_of_slopes(slopes)
        assert union.petals == frozenset().union(*(p.petals for p in parts))
        assert union.marks == frozenset().union(*(p.marks for p in parts))
        assert len(union.marks) == len(set(slopes))


def test_embed_running_anchors():
    assert embed_polygon((1, 2, 2, 3, 2, 1, 3, 4), 1) == [
        (0, 1), (1, 2), (2, 3), (5, 7), (8, 11), (3, 4), (1, 1), (1, 0)]
    assert embed_polygon((1, 2, 2, 3, 2, 1, 3, 4), 3) == [
        (0, 1), (1, 3), (2, 5), (1, 2), (1, 1), (3, 2), (2, 1), (1, 0)]


def test_embed_triangle():
    for k in range(3):
        assert embed_polygon((1, 1, 1), k) == [(0, 1), (1, 1), (1, 0)]


def test_embed_rejects_invalid_quiddity():
    with pytest.raises(ValueError):
        embed_polygon((2, 2, 2, 2), 0)


def test_embed_refuses_with_the_frieze_message():
    # the ear cut accepts or refuses; a refusal names the first bad diamond
    for m in range(3, 8):
        for q in product(range(1, 5), repeat=m):
            frieze = outcome(frieze_from_quiddity, q)
            embedding = outcome(lambda q: embed_polygon(q, 0), q)
            assert isinstance(embedding, str) == isinstance(frieze, str)
            if isinstance(frieze, str):
                assert embedding == frieze


def test_embed_refusal_holds_two_frieze_rows():
    # the frieze of 2 000 twos would hold about 2 M entries; the scan that
    # names its bad diamond keeps two rows of 2 000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="closing value 1999 instead of 1"):
            embed_polygon((2,) * 2000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_embed_refusal_past_the_frieze_ceiling_is_the_ear_cut():
    with pytest.raises(ValueError) as info:
        embed_polygon((2,) * 3200, 0)
    assert str(info.value) == "not the quiddity of a triangulated polygon (no ear)"


def test_embedding_matches_frieze_diagonals():
    # recurrence output against the frieze-entry formula, all anchors
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            f = frieze_from_quiddity(quiddity_of(t))
            q = f.quiddity
            for k in range(m):
                verts = embed_polygon(q, k)
                for step in range(1, m + 1):
                    expected = (f.entry(k, k + step - 1), f.entry(k - 1, k + step - 1))
                    assert verts[step - 1] == expected


def test_lateral_boundary_3_2():
    l = lotus_of_slope(Rational(3, 2))
    assert lateral_boundary(l) == ((1, 0), (1, 1), (2, 3), (1, 2), (0, 1))


def test_lateral_boundary_base_petal():
    assert lateral_boundary(Lotus(frozenset({BASE_PETAL}))) == (
        (1, 0), (1, 1), (0, 1))


def test_lateral_boundary_11_8():
    l = lotus_of_slope(Rational(11, 8))
    assert lateral_boundary(l) == (
        (1, 0), (1, 1), (3, 4), (8, 11), (5, 7), (2, 3), (1, 2), (0, 1))


def test_pinching_points():
    assert pinching_points(lotus_of_slope(Rational(3, 2))) == ((2, 3),)
    assert pinching_points(Lotus(frozenset({BASE_PETAL}))) == ((1, 1),)
    union = lotus_of_slopes([Rational(3, 2), Rational(5, 1)])
    assert pinching_points(union) == ((2, 3), (1, 5))


def test_one_pinching_point_for_slope_lotuses():
    for n, q in coprime_pairs(30):
        l = lotus_of_slope(Rational(n, q))
        assert pinching_points(l) == ((q, n),)
        assert l.marks == frozenset({(q, n)})


def test_quiddity_agreement_with_duality():
    for n, q in coprime_pairs(30):
        terms = hj_expand(Rational(n, q))
        dual = kidoh_dual(Rational(n, q)).dual
        expected = terms + (1,) + tuple(reversed(dual)) + (1,)
        poly, _ = polygon_of_lotus(lotus_of_slope(Rational(n, q)))
        assert quiddity_of(poly) == expected


def test_polygon_of_lotus_roundtrip():
    for n, q in coprime_pairs(30):
        l = Lotus(lotus_of_slope(Rational(n, q)).petals)
        poly, verts = polygon_of_lotus(l)
        assert verts[0] == E2 and verts[-1] == E1
        assert lotus_of_polygon(poly, 0) == l


def test_embedding_roundtrip_all_small_triangulations():
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            l = lotus_of_polygon(t, 0)
            poly, verts = polygon_of_lotus(l)
            assert quiddity_of(poly) == quiddity_of(t)
            assert lotus_of_polygon(poly, 0) == l


def test_every_anchor_embeds_as_a_lotus():
    # each anchor produces a parent-closed set of m-2 valid petals
    # (lotus_of_polygon skips the checks, so the public constructors
    # re-check every petal and the closure here)
    for m in range(3, 8):
        for t in enumerate_triangulations(m):
            for k in range(m):
                l = lotus_of_polygon(t, k)
                assert len(l.petals) == m - 2
                for p in l.petals:
                    assert Petal(p.u, p.v) == p
                assert Lotus(l.petals) == l


def petals_by_lattice_search(t, verts, k):
    return frozenset(petal_of_triangle([verts[(v - 1 - k) % t.m] for v in tri])
                     for tri in triangles_of(t))


def test_label_rule_matches_the_lattice_search():
    # the petal of each triangle read off its labels against the petal
    # found by searching its three lattice points for the apex: every
    # triangulation up to m = 9 and random ones up to m = 40, all anchors
    rng = random.Random(8)
    polygons = [t for m in range(3, 10) for t in enumerate_triangulations(m)]
    polygons += [random_triangulation(m, rng) for m in range(10, 41)]
    for t in polygons:
        q = quiddity_of(t)
        for k in range(t.m):
            verts = embed_polygon(q, k)
            assert lotus_of_polygon(t, k).petals == petals_by_lattice_search(t, verts, k)


def test_marks_must_lie_on_boundary():
    with pytest.raises(ValueError):
        Lotus(frozenset({BASE_PETAL}), frozenset({(5, 5)}))


def test_the_boundary_is_walked_once_and_kept():
    l = lotus_of_slopes([Rational(11, 8), Rational(2, 5), Rational(7, 3)])
    boundary = lateral_boundary(l)
    assert lateral_boundary(l) is boundary
    # the kept boundary is invisible to equality, hashing, repr and copies
    fresh = _lotus(l.petals, l.marks)
    assert l == fresh and hash(l) == hash(fresh) and repr(l) == repr(fresh)
    for twin in (copy.copy(l), pickle.loads(pickle.dumps(l))):
        assert twin == l and type(twin) is Lotus and lateral_boundary(twin) == boundary
    # a lotus made by _replace walks its own boundary
    smaller = l._replace(petals=lotus_of_slope(Rational(11, 8)).petals, marks=frozenset())
    assert lateral_boundary(smaller) == lateral_boundary(lotus_of_slope(Rational(11, 8)))
    with pytest.raises(ValueError, match=r"^mark \(5, 5\) is not on the lateral boundary$"):
        Lotus(l.petals, frozenset({(5, 5)}))


def descent(n, q):
    """Petals and tip of the slope n/q by the petal-tree descent the
    Stern-Brocot walk replaced: compare n/q with each apex slope by cross
    multiplication, enter the child whose cone holds the ray, and stop at
    the apex (q, n)."""
    u, v = E1, E2
    petals = {(u, v)}
    while (u[0] + v[0], u[1] + v[1]) != (q, n):
        apex = (u[0] + v[0], u[1] + v[1])
        if n * apex[0] < apex[1] * q:
            v = apex
        else:
            u = apex
        petals.add((u, v))
    return petals, (q, n)


def test_stern_brocot_walk_matches_the_descent():
    fib = [0, 1]
    while len(fib) < 103:
        fib.append(fib[-1] + fib[-2])
    slopes = [(n, q) for n in range(1, 60) for q in range(1, 60) if gcd(n, q) == 1]
    slopes += [(fib[k + 2], fib[k]) for k in range(1, 101)]
    for n, q in slopes:
        l = lotus_of_slope(Rational(n, q))
        petals, tip = descent(n, q)
        assert {(p.u, p.v) for p in l.petals} == petals
        assert l.marks == frozenset({tip})


def test_petals_behave_as_their_pairs():
    # repr, hash, order and set iteration are those of the (u, v) pairs,
    # which is what keeps the CLI output byte for byte
    l = lotus_of_slopes([Rational(11, 8), Rational(2, 5), Rational(7, 3)])
    petals = list(l.petals)
    pairs = [(p.u, p.v) for p in petals]
    for p, (u, v) in zip(petals, pairs):
        assert repr(p) == f"Petal(u={u!r}, v={v!r})"
        assert hash(p) == hash((u, v))
    assert [(p.u, p.v) for p in sorted(petals)] == sorted(pairs)
    assert [(p.u, p.v) for p in frozenset(petals)] == list(frozenset(pairs))


def test_unchecked_constructions_give_valid_lotuses():
    # the public constructors re-check what the package's own functions skip
    for n, q in coprime_pairs(20):
        l = lotus_of_slope(Rational(n, q))
        assert Lotus(l.petals, l.marks) == l
        for p in l.petals:
            assert Petal(p.u, p.v) == p


def test_union_of_slopes_is_held_to_the_ceiling(monkeypatch):
    # each slope alone passes the ceiling; their union must not
    import friezelotus.lotus as lotus_module
    monkeypatch.setattr(lotus_module, "MAX_VERTICES", 100)
    assert len(lotus_of_slopes([Rational(60), Rational(1, 37)]).petals) == 96
    with pytest.raises(ValueError, match="^the slopes give a polygon of over 100 vertices$"):
        lotus_of_slopes([Rational(60), Rational(1, 60)])


def fibonacci_slope(k):
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return Rational(b, a)


def assert_the_slope_index_is_the_walks(l):
    # born with its boundary and index; a lotus given by its petals walks
    # once and reads the same index off the walk
    fresh = Lotus(l.petals, l.marks)
    assert {"_boundary", "_index"} <= set(vars(l)) and "_index" not in vars(fresh)
    assert lateral_boundary(fresh) == lateral_boundary(l)
    assert fresh._index == l._index
    chain = lateral_boundary(l)
    petals, lo, hi, low, high = l._index
    assert [len(a) for a in l._index] == [len(chain)] * 5
    assert (petals[0], lo[0], hi[0], low[0], high[0]) == (None, -1, -1, 0, 0)
    assert (petals[-1], lo[-1], hi[-1], low[-1], high[-1]) == (None, -1, -1, 0, 0)
    assert set(petals[1:-1]) == l.petals and len(petals) == len(l.petals) + 2
    for t in range(1, len(chain) - 1):
        p = petals[t]
        assert lo[t] < t < hi[t] and p == (chain[lo[t]], chain[hi[t]]) and p.apex == chain[t]
        for c, child in ((low[t], (p.u, p.apex)), (high[t], (p.apex, p.v))):
            assert petals[c] == child if c else child not in l.petals


def test_the_slope_index_is_the_index_of_the_walk():
    rng = random.Random(26)
    pairs = coprime_pairs(40)
    for size in range(1, 6):
        for _ in range(30):
            slopes = [Rational(*rng.choice(pairs)[::rng.choice((1, -1))]) for _ in range(size)]
            assert_the_slope_index_is_the_walks(lotus_of_slopes(slopes))
    ends = [Rational(0), Rational.infinity()]
    for extra in ([], [Rational(3, 7)], [Rational(7, 3), Rational(1, 9)]):
        assert_the_slope_index_is_the_walks(lotus_of_slopes(ends + extra))
        assert_the_slope_index_is_the_walks(lotus_of_slopes(extra + ends[:1]))
    for k in (198, 199):
        l = lotus_of_slopes([fibonacci_slope(k)])
        assert 195 <= len(l.petals) <= 205
        assert_the_slope_index_is_the_walks(l)
        assert_the_slope_index_is_the_walks(lotus_of_slopes([fibonacci_slope(k), Rational(2, 3)]))
