"""Triangulated convex polygons with 1-based clockwise vertex labels.

A triangulation of the m-gon is stored as its set of m-3 pairwise
noncrossing inner diagonals, each an endpoint-sorted pair (i, j).  The
quiddity of a triangulation is the tuple of per-vertex triangle counts,
index t holding the count at vertex t+1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence

from .contfrac import hj_evaluate, kidoh_dual

Diagonal = tuple[int, int]

MAX_ENUM_VERTICES = 16


class TriangulatedPolygon(namedtuple("TriangulatedPolygon", "m diagonals")):
    """Triangulation of the m-gon by its inner diagonals.

    The diagonals are the whole triangulation: every triangle, apex and
    count is read off them.  Construction checks that they triangulate the
    m-gon.
    """

    __slots__ = ()

    def __new__(cls, m: int, diagonals: frozenset[Diagonal]):
        if m < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if len(diagonals) != m - 3:
            raise ValueError(f"a triangulated {m}-gon has {m - 3} diagonals, "
                             f"got {len(diagonals)}")
        for d in diagonals:
            if not _is_inner(d, m):
                raise ValueError(f"{d} is not an inner diagonal of the {m}-gon")
        # m-3 pairwise noncrossing inner diagonals triangulate the m-gon.
        # Swept by left end, longest first, the open chords nest, so a chord
        # crosses one of them exactly when it ends beyond the innermost
        opened: list[Diagonal] = []
        for d in sorted(diagonals, key=lambda d: (d[0], -d[1])):
            while opened and opened[-1][1] <= d[0]:
                opened.pop()
            if opened and d[1] > opened[-1][1]:
                raise ValueError(f"diagonals {opened[-1]} and {d} cross; not a triangulation")
            opened.append(d)
        return tuple.__new__(cls, (m, diagonals))


def _is_inner(d: Diagonal, m: int) -> bool:
    i, j = d
    if not (1 <= i < j <= m):
        return False
    return j - i >= 2 and (i, j) != (1, m)


def quiddity_of(p: TriangulatedPolygon) -> tuple[int, ...]:
    """Per-vertex incident-triangle counts, read from vertex 1: one more
    than the number of diagonals at each vertex."""
    counts = [1] * p.m
    for i, j in p.diagonals:
        counts[i - 1] += 1
        counts[j - 1] += 1
    return tuple(counts)


def polygon_from_quiddity(q: Sequence[int]) -> TriangulatedPolygon:
    """Rebuild the unique triangulation with the given quiddity by cutting
    off ears (vertices of count 1) until a triangle remains.  A vertex joins
    the worklist of ears once, when its count reaches 1; a count falling
    below 1 rejects the input at once, so every listed ear is still live."""
    m = len(q)
    if m < 3:
        raise ValueError("quiddity needs length >= 3")
    if any(a < 1 for a in q):
        raise ValueError("quiddity entries must be >= 1")
    # label-indexed, slot 0 unused
    values = [0, *q]
    nxt = [0, *range(2, m + 1), 1]
    prv = [0, m, *range(1, m)]
    ears = [v for v in range(1, m + 1) if values[v] == 1]
    diagonals: set[Diagonal] = set()
    for _ in range(m - 3):
        if not ears:
            raise ValueError("not the quiddity of a triangulated polygon (no ear)")
        ear = ears.pop()
        a, b = prv[ear], nxt[ear]
        diagonals.add((min(a, b), max(a, b)))
        for v in (a, b):
            values[v] -= 1
            if values[v] < 1:
                raise ValueError("not the quiddity of a triangulated polygon")
            if values[v] == 1:
                ears.append(v)
        nxt[a], prv[b] = b, a
    # counts stay >= 1 and each cut lowers their total by 3, so the last
    # three are all 1 exactly when the total was 3(m - 2)
    if sum(q) != 3 * (m - 2):
        raise ValueError("not the quiddity of a triangulated polygon")
    return TriangulatedPolygon(m, frozenset(diagonals))


def polygon_of_cf(terms: Sequence[int]) -> TriangulatedPolygon:
    """Two-eared triangulation attached to an expansion of a value > 1.

    Vertex 1 is an ear and the quiddity read from it is
    (1, b_1, ..., b_r, 1, b'_s, ..., b'_1) with (b') the dual expansion.
    """
    value = hj_evaluate(terms)
    if value.num <= value.den:
        raise ValueError(f"expansion value must exceed 1, got {value}")
    dual = kidoh_dual(value).dual
    quiddity = (1,) + tuple(terms) + (1,) + tuple(reversed(dual))
    return polygon_from_quiddity(quiddity)


def flip(p: TriangulatedPolygon, d: Diagonal) -> TriangulatedPolygon:
    """Replace diagonal d by the opposite diagonal of its quadrilateral."""
    i, j, k, l = flip_quadrilateral(p, d)
    return TriangulatedPolygon(p.m, (p.diagonals - {(i, j)}) | {(k, l)})


def flip_quadrilateral(p: TriangulatedPolygon, d: Diagonal) -> tuple[int, int, int, int]:
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


def enumerate_triangulations(m: int) -> list[TriangulatedPolygon]:
    """All triangulations of the m-gon (the (m-2)-nd Catalan number many),
    generated by recursive splitting on the edge [1, m]."""
    if not 3 <= m <= MAX_ENUM_VERTICES:
        raise ValueError(f"m must be within 3..{MAX_ENUM_VERTICES}")

    def splits(lo: int, hi: int) -> Iterator[frozenset[Diagonal]]:
        if hi - lo < 2:
            yield frozenset()
            return
        for k in range(lo + 1, hi):
            extra = set()
            if k - lo >= 2:
                extra.add((lo, k))
            if hi - k >= 2:
                extra.add((k, hi))
            for left in splits(lo, k):
                for right in splits(k, hi):
                    yield frozenset(extra) | left | right

    return [TriangulatedPolygon(m, ds) for ds in splits(1, m)]
