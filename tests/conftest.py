"""Shared oracles, independent of the implementation paths they check."""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction

from hypothesis import strategies as st

from friezelotus.lotus import Petal, check_petal
from friezelotus.polygon import TriangulatedPolygon
from friezelotus.polyparse import Poly2


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


def frieze_by_rows(q) -> dict:
    """The fundamental domain of the frieze of a valid quiddity ``q`` as a
    dict, built row by row by the continuant recurrence
    value(i, i+d) = q[i+d-1] * value(i, i+d-1) - value(i, i+d-2): the pairs
    (i, i+1) first, then (i, i+2), and so on."""
    m = len(q)
    prev2, prev = [0] * m, [1] * m
    out = {(i, i + 1): 1 for i in range(m - 1)}
    for d in range(2, m):
        row = [q[(i + d - 1) % m] * prev[i] - prev2[i] for i in range(m)]
        out.update(((i, i + d), row[i]) for i in range(m - d))
        prev2, prev = prev, row
    return out


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
    return check_triangulation(m, frozenset(diagonals))


def enumerate_triangulations(m: int) -> list[TriangulatedPolygon]:
    """All triangulations of the m-gon (the (m-2)-nd Catalan number many),
    generated by recursive splitting on the edge [1, m]."""

    def splits(lo: int, hi: int):
        # triangulations of the polygon lo..hi, with (lo, hi) unless an edge
        own = {(lo, hi)} if 2 <= hi - lo < m - 1 else set()
        if hi - lo < 2:
            yield frozenset()
        for k in range(lo + 1, hi):
            for left in splits(lo, k):
                for right in splits(k, hi):
                    yield left | right | own

    return [check_triangulation(m, ds) for ds in splits(1, m)]


def check_triangulation(m: int, diagonals: frozenset) -> TriangulatedPolygon:
    """The triangulation oracle: ``TriangulatedPolygon(m, diagonals)``,
    refusing unless the diagonals are m-3 pairwise noncrossing inner
    diagonals of the m-gon, which is exactly when they triangulate it."""
    if m < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    if len(diagonals) != m - 3:
        raise ValueError(f"a triangulated {m}-gon has {m - 3} diagonals, "
                         f"got {len(diagonals)}")
    for i, j in diagonals:
        if not 1 <= i <= j - 2 <= m - 2 or (i, j) == (1, m):
            raise ValueError(f"{(i, j)} is not an inner diagonal of the {m}-gon")
    # swept by left end, longest first, the open chords nest, so a chord
    # crosses one of them exactly when it ends beyond the innermost
    opened = []
    for d in sorted(diagonals, key=lambda d: (d[0], -d[1])):
        while opened and opened[-1][1] <= d[0]:
            opened.pop()
        if opened and d[1] > opened[-1][1]:
            raise ValueError(f"diagonals {opened[-1]} and {d} cross; not a triangulation")
        opened.append(d)
    return TriangulatedPolygon(m, diagonals)


def make_polygon(m: int, diagonals) -> TriangulatedPolygon:
    return check_triangulation(m, frozenset(tuple(sorted(d)) for d in diagonals))


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
    return check_triangulation(len(labels), frozenset(diagonals))


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
    is ordered to make det = +1.  The gate ``check_petal`` rejects anything
    that is not a petal."""
    for apex_idx in range(3):
        a, b = [pts[t] for t in range(3) if t != apex_idx]
        if (a[0] + b[0], a[1] + b[1]) == pts[apex_idx]:
            if a[0] * b[1] - a[1] * b[0] == 1:
                return check_petal(a, b)
            return check_petal(b, a)
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


def fan_quiddity(m: int) -> tuple[int, ...]:
    """Quiddity of the fan of the m-gon, every diagonal at vertex 1."""
    return (m - 2, 1, *(2,) * (m - 3), 1)


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


def flip_quadrilateral(p: TriangulatedPolygon, d) -> tuple[int, int, int, int]:
    """Vertices (i, j, k, l) of the quadrilateral of diagonal d = (i, j),
    where k < l are the apexes of its two triangles: the two vertices
    joined to both i and j by an edge or a diagonal."""
    d = (min(d), max(d))
    if d not in p.diagonals:
        raise ValueError(f"{d} is not a diagonal of the triangulation")
    i, j = d
    nbrs = {v: {v % p.m + 1, (v - 2) % p.m + 1} for v in d}
    for a, b in p.diagonals:
        if a in nbrs:
            nbrs[a].add(b)
        if b in nbrs:
            nbrs[b].add(a)
    k, l = sorted(nbrs[i] & nbrs[j])
    return i, j, k, l


def flip(p: TriangulatedPolygon, d) -> TriangulatedPolygon:
    """Replace diagonal d by the opposite diagonal of its quadrilateral,
    through the triangulation oracle."""
    i, j, k, l = flip_quadrilateral(p, d)
    return check_triangulation(p.m, (p.diagonals - {(i, j)}) | {(k, l)})


def mutate_by_reembedding(l, d):
    """The mutation oracle: flip d in the lotus polygon and embed the
    flipped triangulation afresh with vertex 1 at (0,1)."""
    from friezelotus.lotus import lotus_of_polygon, polygon_of_lotus
    return lotus_of_polygon(flip(polygon_of_lotus(l)[0], d), 0)


def curve_polynomial(curve) -> Poly2:
    """The product of the binomials x^d - y^c of a ``PlaneCurve``."""
    prod = Poly2({(0, 0): 1})
    for d, c in curve.factors:
        prod = prod * Poly2({(d, 0): 1, (0, c): -1})
    return prod
