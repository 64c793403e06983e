"""Triangulated convex polygons with 1-based clockwise vertex labels.

A triangulation of the m-gon is stored as its set of m-3 pairwise
noncrossing inner diagonals, each an endpoint-sorted pair (i, j).  The
quiddity of a triangulation is the tuple of per-vertex triangle counts,
index t holding the count at vertex t+1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .contfrac import hj_evaluate, kidoh_dual

Diagonal = tuple[int, int]
Triangle = tuple[int, int, int]

MAX_ENUM_VERTICES = 16


@dataclass(frozen=True)
class TriangulatedPolygon:
    """Triangulation of the m-gon by its inner diagonals.

    Construction validates the diagonals and records ``triangles``, the m-2
    vertex-sorted triangles in pre-order from the edge [1, m]; every other
    function reads them rather than deriving them again.
    """

    m: int
    diagonals: frozenset[Diagonal]
    triangles: tuple[Triangle, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if len(self.diagonals) != self.m - 3:
            raise ValueError(f"a triangulated {self.m}-gon has {self.m - 3} diagonals, "
                             f"got {len(self.diagonals)}")
        for d in self.diagonals:
            if not _is_inner(d, self.m):
                raise ValueError(f"{d} is not an inner diagonal of the {self.m}-gon")
        # higher[v]: the vertices after v joined to it by an edge or diagonal
        higher: list[list[int]] = [[v + 1] for v in range(self.m + 1)]
        for i, j in self.diagonals:
            higher[i].append(j)
        for nbrs in higher:
            nbrs.sort()
        # m-3 distinct inner diagonals triangulate the m-gon exactly when
        # this walk finds a triangle on every chord it reaches
        out: list[Triangle] = []
        stack = [(1, self.m)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo < 2:
                continue
            nbrs = higher[lo]
            k = nbrs[bisect_left(nbrs, hi) - 1]
            if hi - k > 1 and (k, hi) not in self.diagonals:
                raise ValueError(f"no triangle on chord ({lo},{hi}); not a triangulation")
            out.append((lo, k, hi))
            stack.append((k, hi))
            stack.append((lo, k))
        object.__setattr__(self, "triangles", tuple(out))


def make_polygon(m: int, diagonals) -> TriangulatedPolygon:
    return TriangulatedPolygon(m, frozenset(tuple(sorted(d)) for d in diagonals))


def _is_inner(d: Diagonal, m: int) -> bool:
    i, j = d
    if not (1 <= i < j <= m):
        return False
    return j - i >= 2 and (i, j) != (1, m)


def diagonals_cross(d1: Diagonal, d2: Diagonal, m: int) -> bool:
    """True iff the chords strictly interleave in the cyclic order 1..m."""
    i, j = sorted(d1)
    k, l = sorted(d2)
    for v in (i, j, k, l):
        if not 1 <= v <= m:
            raise ValueError(f"vertex {v} outside 1..{m}")
    return (i < k < j < l) or (k < i < l < j)


def quiddity_of(p: TriangulatedPolygon) -> tuple[int, ...]:
    """Per-vertex incident-triangle counts, read from vertex 1."""
    counts = [0] * p.m
    for tri in p.triangles:
        for v in tri:
            counts[v - 1] += 1
    return tuple(counts)


def polygon_from_quiddity(q: Sequence[int]) -> TriangulatedPolygon:
    """Rebuild the unique triangulation with the given quiddity by cutting
    off ears (vertices of count 1) until a triangle remains."""
    m = len(q)
    if m < 3:
        raise ValueError("quiddity needs length >= 3")
    if any(a < 1 for a in q):
        raise ValueError("quiddity entries must be >= 1")
    values = {t + 1: q[t] for t in range(m)}
    nxt = {t + 1: ((t + 1) % m) + 1 for t in range(m)}
    prv = {v: k for k, v in nxt.items()}
    diagonals: set[Diagonal] = set()
    alive = m
    while alive > 3:
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
        alive -= 1
    if any(v != 1 for v in values.values()):
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
    return TriangulatedPolygon(p.m, (p.diagonals - {(i, j)}) | {(min(k, l), max(k, l))})


def flip_quadrilateral(p: TriangulatedPolygon, d: Diagonal) -> tuple[int, int, int, int]:
    """Vertices (i, j, k, l) of the quadrilateral of diagonal d = (i, j),
    where k, l are the apexes of its two triangles."""
    d = (min(d), max(d))
    if d not in p.diagonals:
        raise ValueError(f"{d} is not a diagonal of the triangulation")
    apexes = [v for tri in p.triangles if d[0] in tri and d[1] in tri
              for v in tri if v not in d]
    return d[0], d[1], apexes[0], apexes[1]


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
