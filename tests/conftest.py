"""Shared oracles, independent of the implementation paths they check."""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction

from hypothesis import strategies as st

from friezelotus.lotus import Petal
from friezelotus.polygon import TriangulatedPolygon


def tridiagonal_determinant(diag: list[int]) -> int:
    """Exact determinant of the tridiagonal matrix with unit off-diagonals,
    by fraction-free Gaussian elimination (Bareiss), not the three-term
    recurrence."""
    n = len(diag)
    if n == 0:
        return 1
    mat = [[Fraction(0)] * n for _ in range(n)]
    for t in range(n):
        mat[t][t] = Fraction(diag[t])
        if t + 1 < n:
            mat[t][t + 1] = Fraction(1)
            mat[t + 1][t] = Fraction(1)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            for c in range(col, n):
                mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return det.numerator


def catalan_by_recurrence(n: int) -> int:
    """C_0 = 1, C_{k+1} = sum_i C_i * C_{k-i}."""
    cats = [1]
    for k in range(n):
        cats.append(sum(cats[i] * cats[k - i] for i in range(k + 1)))
    return cats[n]


def random_triangulation(m: int, rng: random.Random) -> TriangulatedPolygon:
    """Uniform-ish random triangulation by random recursive splitting."""
    diagonals = set()

    def split(lo: int, hi: int) -> None:
        if hi - lo < 2:
            return
        k = rng.randint(lo + 1, hi - 1)
        if k - lo >= 2:
            diagonals.add((lo, k))
        if hi - k >= 2:
            diagonals.add((k, hi))
        split(lo, k)
        split(k, hi)

    split(1, m)
    return TriangulatedPolygon(m, frozenset(diagonals))


def make_polygon(m: int, diagonals) -> TriangulatedPolygon:
    return TriangulatedPolygon(m, frozenset(tuple(sorted(d)) for d in diagonals))


def diagonals_cross(d1, d2, m: int) -> bool:
    """True iff the chords strictly interleave in the cyclic order 1..m."""
    i, j = sorted(d1)
    k, l = sorted(d2)
    for v in (i, j, k, l):
        if not 1 <= v <= m:
            raise ValueError(f"vertex {v} outside 1..{m}")
    return (i < k < j < l) or (k < i < l < j)


def subpolygon(t: TriangulatedPolygon, labels: list[int], cut) -> TriangulatedPolygon:
    """The piece of ``t`` on the given increasing labels, relabelled 1, 2, ...
    in order through a lookup table, keeping every diagonal but ``cut`` with
    both ends among them."""
    relabel = {old: k + 1 for k, old in enumerate(labels)}
    diagonals = {(relabel[a], relabel[b]) for a, b in t.diagonals
                 if (a, b) != cut and a in relabel and b in relabel}
    return TriangulatedPolygon(len(labels), frozenset(diagonals))


def triangles_of(t: TriangulatedPolygon) -> tuple[tuple[int, int, int], ...]:
    """The m-2 vertex-sorted triangles of ``t`` in pre-order from the edge
    [1, m], by a walk that finds the apex on each chord it reaches as the
    highest neighbour of its lower end below its upper end."""
    # higher[v]: the vertices after v joined to it by an edge or diagonal
    higher: list[list[int]] = [[v + 1] for v in range(t.m + 1)]
    for i, j in t.diagonals:
        higher[i].append(j)
    for nbrs in higher:
        nbrs.sort()
    out = []
    stack = [(1, t.m)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo < 2:
            continue
        nbrs = higher[lo]
        k = nbrs[bisect_left(nbrs, hi) - 1]
        if hi - k > 1 and (k, hi) not in t.diagonals:
            raise ValueError(f"no triangle on chord ({lo},{hi}); not a triangulation")
        out.append((lo, k, hi))
        stack.append((k, hi))
        stack.append((lo, k))
    return tuple(out)


def incidence_counts(l) -> dict:
    """Petals at each point of a lotus, counted over every petal's three
    points; the base points (1,0) and (0,1) are present even at 0."""
    counts = {(1, 0): 0, (0, 1): 0}
    for p in l.petals:
        for pt in (p.u, p.v, p.apex):
            counts[pt] = counts.get(pt, 0) + 1
    return counts


def petal_of_triangle(pts) -> Petal:
    """Petal with the given three lattice points, found geometrically: the
    apex is the point that is the sum of the other two, and the base pair
    is ordered to make det = +1.  The checked ``Petal`` constructor
    rejects anything that is not a petal."""
    for apex_idx in range(3):
        a, b = [pts[t] for t in range(3) if t != apex_idx]
        if (a[0] + b[0], a[1] + b[1]) == pts[apex_idx]:
            if a[0] * b[1] - a[1] * b[0] == 1:
                return Petal(a, b)
            return Petal(b, a)
    raise ValueError(f"triangle {list(pts)} is not a petal")


@st.composite
def quiddities(draw, max_m: int = 40):
    """Tuples of length 3..max_m: half free entries in 1..6, half the
    quiddity of a random triangulation with up to two entries moved by 1."""
    m = draw(st.integers(3, max_m))
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.integers(1, 6), min_size=m, max_size=m)))
    counts = [0] * m
    for i, j in random_triangulation(m, draw(st.randoms(use_true_random=False))).diagonals:
        counts[i - 1] += 1
        counts[j - 1] += 1
    q = [c + 1 for c in counts]
    for _ in range(draw(st.integers(0, 2))):
        q[draw(st.integers(0, m - 1))] += draw(st.sampled_from((-1, 1)))
    return tuple(q)


def outcome(build, q):
    """``build(q)``, or the message of the ValueError it raises."""
    try:
        return build(q)
    except ValueError as exc:
        return str(exc)


def coprime_pairs(limit: int):
    """All (n, q) with 1 <= q < n <= limit and gcd = 1."""
    from math import gcd
    return [(n, q) for n in range(2, limit + 1)
            for q in range(1, n) if gcd(n, q) == 1]
