"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

from __future__ import annotations

import functools
import random
import time

from friezelotus.cli import run
from friezelotus.contfrac import Rational, hj_expand
from friezelotus.frieze import frieze_from_quiddity
from friezelotus.lotus import (Lotus, Petal, embed_polygon, lotus_of_polygon, lotus_of_slope,
                               pinching_points, polygon_of_lotus)
from friezelotus.polygon import quiddity_of
from friezelotus.polyparse import parse_poly
from friezelotus.resolution import (PlaneCurve, catalan, count_resolution_graphs,
                                    curve_of_lotus, is_newton_nondegenerate,
                                    lotus_of_poly)
from friezelotus.transform import mutate_lotus, reduce

from conftest import enumerate_triangulations, flip, flip_quadrilateral, random_triangulation


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num}: FAIL - {label}")
                raise
            print(f"ACCEPTANCE {num}: PASS - {label}")
        return wrapper
    return deco


@criterion(1, "continued fractions with duals, exact and under 1 ms")
def test_criterion_1_continued_fractions():
    assert run(["hj", "11/8"]) == (0, "[2,2,3,2]\ndual [4,3]\n")
    assert run(["hj", "6/5"]) == (0, "[2,2,2,2,2]\ndual [6]\n")
    start = time.perf_counter()
    assert run(["hj", "11/8"])[1].splitlines() == ["[2,2,3,2]", "dual [4,3]"]
    assert run(["hj", "6/5"])[1].splitlines() == ["[2,2,2,2,2]", "dual [6]"]
    elapsed = time.perf_counter() - start
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"


# fundamental domain of the width-5 frieze with quiddity (1,2,2,3,2,1,3,4),
# transcribed entry by entry from the published array
RUNNING_DOMAIN = {
    (0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (4, 5): 1, (5, 6): 1, (6, 7): 1, (0, 7): 1,
    (0, 2): 2, (1, 3): 2, (2, 4): 3, (3, 5): 2, (4, 6): 1, (5, 7): 3, (0, 6): 4, (1, 7): 1,
    (0, 3): 3, (1, 4): 5, (2, 5): 5, (3, 6): 1, (4, 7): 2, (0, 5): 11, (1, 6): 3, (2, 7): 1,
    (0, 4): 7, (1, 5): 8, (2, 6): 2, (3, 7): 1,
}


@criterion(2, "frieze of (1,2,2,3,2,1,3,4) reproduced entry for entry")
def test_criterion_2_frieze_reproduction():
    f = frieze_from_quiddity((1, 2, 2, 3, 2, 1, 3, 4))
    assert len(f.entries) == 28
    assert f.entries == RUNNING_DOMAIN
    assert f.entry(0, 5) == 11
    assert f.entry(1, 5) == 8


@criterion(3, "both anchored embeddings of the 11/8 polygon")
def test_criterion_3_embeddings():
    q = (1, 2, 2, 3, 2, 1, 3, 4)
    assert embed_polygon(q, 1) == [(0, 1), (1, 2), (2, 3), (5, 7),
                                   (8, 11), (3, 4), (1, 1), (1, 0)]
    assert embed_polygon(q, 3) == [(0, 1), (1, 3), (2, 5), (1, 2),
                                   (1, 1), (3, 2), (2, 1), (1, 0)]


@criterion(4, "resolution graphs of x^3-y^2 and x^11-y^8")
def test_criterion_4_resolution_graphs():
    assert run(["graph", "--poly", "x^3-y^2"]) == (0, "-3 -1 -2\narrow 2\n")
    code, out = run(["graph", "--poly", "x^11-y^8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "-4 -3 -1 -2 -3 -2"
    weights = [int(w) for w in lines[0].split()]
    assert lines[1:] == [f"arrow {weights.index(-1) + 1}"]


# the six partial-resolution weight chains of x^11 - y^8 as published
# (chains compare up to reversal: ours run from the (1,0) side)
PARTIAL_CHAINS = [
    (-2, -3, -2, -1, -3, -4),
    (-2, -3, -1, -2, -4),
    (-2, -2, -1, -4),
    (-2, -1, -3),
    (-1, -2),
    (-1,),
]


@criterion(5, "six partial resolutions of x^11-y^8 with frieze-entry weights")
def test_criterion_5_partial_resolutions():
    code, out = run(["partials", "--poly", "x^11-y^8"])
    assert code == 0
    got = [tuple(int(w) for w in line.split()) for line in out.splitlines()]
    assert len(got) == 6

    def norm(chain):
        return min(chain, tuple(reversed(chain)))

    assert sorted(map(norm, got)) == sorted(map(norm, PARTIAL_CHAINS))

    full = lotus_of_slope(Rational(11, 8))
    poly, _ = polygon_of_lotus(full)
    values = set(frieze_from_quiddity(quiddity_of(poly)).entries.values())
    for chain in got:
        assert all(-w in values for w in chain)


@criterion(6, "count formula equals enumeration oracle for n = 1..10")
def test_criterion_6_counting():
    """Chains are counted up to reversal, so by Burnside the closed form is
    (C_n + fixed)/2, where fixed counts the palindromic chains (C_((n-1)/2)
    for odd n, none for even n).  At n = 5 the palindromes (2,1,5,1,2) and
    (1,2,3,2,1) give 22 classes; the oracle is the triangulations of the
    (n+2)-gon."""
    start = time.perf_counter()
    assert count_resolution_graphs(10) == 8398
    assert catalan(10) == 16796
    for n in range(1, 11):
        formula = count_resolution_graphs(n)
        fixed = catalan((n - 1) // 2) if n % 2 else 0
        assert formula == (catalan(n) + fixed) // 2
        chains = set()
        for t in enumerate_triangulations(n + 2):
            chain = quiddity_of(t)[1:-1]
            chains.add(min(chain, tuple(reversed(chain))))
        assert formula == len(chains), \
            f"n={n}: formula {formula} != oracle {len(chains)}"
    assert time.perf_counter() - start < 30


PENTAGON_SEQUENCE = [
    ((3, 5), ((3, 1),)),
    ((1, 3), ((3, 2),)),
    ((1, 4), ((2, 3),)),
    ((2, 4), ((1, 3),)),
    ((2, 5), ((2, 1), (1, 2))),
]


@criterion(7, "pentagon mutation cycle with double-mutation identity")
def test_criterion_7_mutation_cycle():
    start = Lotus(lotus_of_poly(parse_poly("(x^2+y)*(x+y^2)")).petals)
    assert curve_of_lotus(start).factors == ((2, 1), (1, 2))
    cur = start
    for diagonal, factors in PENTAGON_SEQUENCE:
        poly, _ = polygon_of_lotus(cur)
        _, _, k1, k2 = flip_quadrilateral(poly, diagonal)
        mutated = mutate_lotus(cur, diagonal)
        assert curve_of_lotus(mutated).factors == factors
        assert mutate_lotus(mutated, (min(k1, k2), max(k1, k2))) == cur
        cur = mutated
    assert cur == start


@criterion(8, "exhaustive property sweep (m <= 8) plus random m <= 12")
def test_criterion_8_property_suites():
    start = time.perf_counter()
    for m in range(3, 9):
        for t in enumerate_triangulations(m):
            q = quiddity_of(t)
            assert sum(q) == 3 * (m - 2)
            assert sum(1 for a in q if a == 1) >= 2
            f = frieze_from_quiddity(quiddity_of(t))
            for i in range(m):
                for d in range(0, m - 1):
                    j = i + d
                    assert (f.entry(i - 1, j) * f.entry(i, j + 1)
                            - f.entry(i, j) * f.entry(i - 1, j + 1)) == 1
            for k in range(m):
                verts = embed_polygon(q, k)
                for step in range(1, m + 1):
                    assert verts[step - 1] == (f.entry(k, k + step - 1),
                                               f.entry(k - 1, k + step - 1))
            for p in lotus_of_polygon(t, 0).petals:
                assert Petal(p.u, p.v) == p  # the builder skips the checks
            for diag in sorted(t.diagonals):
                r = reduce(t, diag)
                assert r.quiddity == quiddity_of(r.polygon)
                flipped = flip(t, diag)
                new = next(iter(flipped.diagonals - t.diagonals))
                assert flip(flipped, new) == t
    rng = random.Random(2024)
    for _ in range(40):
        m = rng.randint(9, 12)
        t = random_triangulation(m, rng)
        q = quiddity_of(t)
        assert sum(q) == 3 * (m - 2)
        assert sum(1 for a in q if a == 1) >= 2
        f = frieze_from_quiddity(quiddity_of(t))
        for i in range(m):
            assert (f.entry(i - 1, i) * f.entry(i, i + 1)
                    - f.entry(i, i) * f.entry(i - 1, i + 1)) == 1
        diag = sorted(t.diagonals)[rng.randrange(m - 3)]
        r = reduce(t, diag)
        assert r.quiddity == quiddity_of(r.polygon)
        flipped = flip(t, diag)
        new = next(iter(flipped.diagonals - t.diagonals))
        assert flip(flipped, new) == t
    from conftest import coprime_pairs
    for n, q_ in coprime_pairs(30):
        assert pinching_points(lotus_of_slope(Rational(n, q_))) == ((q_, n),)
    assert time.perf_counter() - start < 60


@criterion(9, "Newton non-degeneracy decisions")
def test_criterion_9_nondegeneracy():
    assert is_newton_nondegenerate(parse_poly("x^3 - y^2"))
    for factors in (((3, 2),), ((2, 1), (1, 2)), ((11, 8),),
                    ((5, 2), (3, 1), (1, 1)), ((7, 3), (2, 1))):
        assert is_newton_nondegenerate(PlaneCurve(factors).polynomial())
    f = parse_poly("(y^2 - x^3)")
    quintic = f * f * f * f * f - parse_poly("x^14 y")
    assert not is_newton_nondegenerate(quintic)
