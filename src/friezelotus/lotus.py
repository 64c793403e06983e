"""Lattice lotuses: stacks of unimodular petals over the base (1,0)-(0,1).

A petal is the triangle spanned by an ordered positive basis (u, v) of Z^2
together with its apex u+v; children of delta(u, v) are delta(u, u+v) and
delta(u+v, v), which makes the set of all petals an infinite binary tree
rooted at the base petal delta((1,0), (0,1)).  A lotus is a finite
parent-closed set of petals, optionally with marked lateral points.

The boundary of a lotus minus the open segment between (1,0) and (0,1) is
its lateral boundary; its interior vertices carry the weights -(incident
petal count) used by the resolution-graph side of this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .contfrac import Rational
from .frieze import frieze_from_quiddity
from .polygon import TriangulatedPolygon, quiddity_of

Point = tuple[int, int]

E1: Point = (1, 0)
E2: Point = (0, 1)


@dataclass(frozen=True, order=True)
class Petal:
    """Ordered positive basis (u, v) with det(u, v) = 1; apex is derived."""

    u: Point
    v: Point

    def __post_init__(self):
        if min(*self.u, *self.v) < 0 or self.u == (0, 0) or self.v == (0, 0):
            raise ValueError(f"petal basis must be nonzero and nonnegative: {self}")
        if self.u[0] * self.v[1] - self.u[1] * self.v[0] != 1:
            raise ValueError(f"petal basis must be unimodular and positive: {self}")

    @property
    def apex(self) -> Point:
        return (self.u[0] + self.v[0], self.u[1] + self.v[1])

    @property
    def points(self) -> tuple[Point, Point, Point]:
        return (self.u, self.v, self.apex)

    def parent(self) -> "Petal | None":
        """The unique petal sharing this petal's base edge, or None at the root."""
        if (self.u, self.v) == (E1, E2):
            return None
        dx, dy = self.v[0] - self.u[0], self.v[1] - self.u[1]
        if dx >= 0 and dy >= 0:
            return Petal(self.u, (dx, dy))
        return Petal((-dx, -dy), self.v)

    def children(self) -> tuple["Petal", "Petal"]:
        return Petal(self.u, self.apex), Petal(self.apex, self.v)


BASE_PETAL = Petal(E1, E2)


@dataclass(frozen=True)
class Lotus:
    """Parent-closed petal set with marked points on the lateral boundary.

    The empty petal set models the degenerate lotus that is just the base
    segment (arising from the slopes 0 and infinity alone).
    """

    petals: frozenset[Petal]
    marks: frozenset[Point] = frozenset()

    def __post_init__(self):
        for p in self.petals:
            parent = p.parent()
            if parent is not None and parent not in self.petals:
                raise ValueError(f"petal set is not parent-closed: {p} lacks {parent}")
        if self.petals and BASE_PETAL not in self.petals:
            raise ValueError("a nonempty lotus contains the base petal")
        if self.marks:
            boundary = set(lateral_boundary(self).vertices)
            for mk in self.marks:
                if mk not in boundary:
                    raise ValueError(f"mark {mk} is not on the lateral boundary")

    @property
    def is_segment(self) -> bool:
        return not self.petals

    def vertices(self) -> set[Point]:
        pts = {E1, E2}
        for p in self.petals:
            pts.update(p.points)
        return pts

    def unmarked(self) -> "Lotus":
        return Lotus(self.petals)


@dataclass(frozen=True)
class LateralBoundary:
    """Boundary vertices in order from (1,0) to (0,1)."""

    vertices: tuple[Point, ...]

    @property
    def interior(self) -> tuple[Point, ...]:
        return self.vertices[1:-1]


def slope_of(pt: Point) -> Rational:
    """Slope y/x of a lattice point (infinity on the y-axis)."""
    if pt[0] == 0:
        return Rational.infinity()
    return Rational(pt[1], pt[0])


def primitive_of_slope(s: Rational) -> Point:
    """The primitive lattice vector of a given slope."""
    if s.is_infinite:
        return E2
    return (s.den, s.num)


def lotus_of_slope(s: Rational) -> Lotus:
    """Chain of petals meeting the ray of slope ``s``, marked at its tip.

    Descends the petal tree: compare ``s`` with the apex slope, stop on
    equality (the apex is the primitive vector of ``s``), otherwise enter the
    child whose cone contains the ray.  Slopes 0 and infinity give the
    degenerate segment marked at the corresponding basis vector.
    """
    if s.is_zero or s.is_infinite:
        return Lotus(frozenset(), frozenset({primitive_of_slope(s)}))
    petals = [BASE_PETAL]
    while True:
        cur = petals[-1]
        apex_slope = slope_of(cur.apex)
        if apex_slope == s:
            return Lotus(frozenset(petals), frozenset({cur.apex}))
        low, high = cur.children()
        petals.append(low if s < apex_slope else high)


def lotus_of_slopes(slopes: Iterable[Rational]) -> Lotus:
    """Union of the slope lotuses, keeping every mark."""
    petals: set[Petal] = set()
    marks: set[Point] = set()
    for s in slopes:
        part = lotus_of_slope(s)
        petals |= part.petals
        marks |= part.marks
    return Lotus(frozenset(petals), frozenset(marks))


def is_sublotus(a: Lotus, b: Lotus) -> bool:
    return a.petals <= b.petals


def pinching_points(l: Lotus) -> set[Point]:
    """Non-basic vertices incident to exactly one petal."""
    return {pt for pt, c in incidence_counts(l).items() if c == 1 and pt not in (E1, E2)}


def incidence_counts(l: Lotus) -> dict[Point, int]:
    counts: dict[Point, int] = {pt: 0 for pt in l.vertices()}
    for p in l.petals:
        for pt in p.points:
            counts[pt] += 1
    return counts


def lateral_boundary(l: Lotus) -> LateralBoundary:
    """In-order walk of the petal tree from (1,0) to (0,1): each petal of
    the lotus gives way to its two children, and each child outside the
    lotus is a boundary edge that contributes its far end."""
    chain = [E1]
    stack = [BASE_PETAL]
    while stack:
        p = stack.pop()
        if p in l.petals:
            low, high = p.children()
            stack.append(high)
            stack.append(low)
        else:
            chain.append(p.v)
    return LateralBoundary(tuple(chain))


# ---------------------------------------------------------------------------
# Embedded polygons


def embed_polygon(q: Sequence[int], k: int) -> list[Point]:
    """Vertices of the polygon of quiddity ``q`` embedded so that quiddity
    entry ``q[k]`` sits at (0,1).

    The vertices obey v1 = (0,1), v2 = (1, q[k]) and the three-term
    recurrence v_{l+1} = mu * v_l - v_{l-1} with mu the quiddity at v_l;
    equivalently v_l is the pair of frieze entries
    (entry(k, k+l-1), entry(k-1, k+l-1)).
    """
    q = tuple(q)
    frieze_from_quiddity(q)  # reject invalid quiddities up front
    return _embed(q, k)


def _embed(q: tuple[int, ...], k: int) -> list[Point]:
    """The recurrence of embed_polygon, for a quiddity known to be valid."""
    m = len(q)
    verts: list[Point] = [(0, 1), (1, q[k % m])]
    for step in range(1, m - 1):
        mu = q[(k + step) % m]
        vl, vp = verts[-1], verts[-2]
        verts.append((mu * vl[0] - vp[0], mu * vl[1] - vp[1]))
    assert verts[-1] == E1, "embedding must close at (1,0)"
    return verts


def petals_of_embedding(p: TriangulatedPolygon, verts: Sequence[Point],
                        k: int = 0) -> frozenset[Petal]:
    """Map each triangle of ``p`` to the petal it spans under the placement
    ``verts`` produced with anchor ``k`` (the embedding lists the vertices
    starting from polygon vertex k+1, so labels are rotated by k)."""
    m = p.m
    petals = set()
    for tri in p.triangles:
        pts = [verts[(t - 1 - k) % m] for t in tri]
        petals.add(petal_of_triangle(pts))
    return frozenset(petals)


def petal_of_triangle(pts: Sequence[Point]) -> Petal:
    """Petal with the given three vertices: one of them is the apex (the sum
    of the other two); the base pair is ordered to make det = +1."""
    for apex_idx in range(3):
        a, b = [pts[t] for t in range(3) if t != apex_idx]
        apex = pts[apex_idx]
        if (a[0] + b[0], a[1] + b[1]) == apex:
            if a[0] * b[1] - a[1] * b[0] == 1:
                return Petal(a, b)
            return Petal(b, a)
    raise ValueError(f"triangle {list(pts)} is not a petal")


def lotus_of_polygon(p: TriangulatedPolygon, k: int) -> Lotus:
    """Unmarked lotus of the embedded triangulation: polygon vertex k+1 goes
    to (0,1) (see embed_polygon)."""
    verts = _embed(quiddity_of(p), k)
    return Lotus(petals_of_embedding(p, verts, k))


def polygon_of_lotus(l: Lotus) -> tuple[TriangulatedPolygon, tuple[Point, ...]]:
    """The abstract triangulated polygon underlying a lotus, together with
    the lattice position of each vertex.

    Vertex 1 is (0,1) and vertex m is (1,0); the interior labels follow the
    lateral boundary.  Re-embedding its quiddity with k = 0 reproduces the
    petal set (vertex 1 back at (0,1)).
    """
    if l.is_segment:
        raise ValueError("the segment lotus has no polygon")
    verts = tuple(reversed(lateral_boundary(l).vertices))
    index = {pt: t + 1 for t, pt in enumerate(verts)}
    # the base edge of every petal but the root is shared with its parent;
    # the boundary passes u before v, so v has the smaller label
    diagonals = frozenset((index[p.v], index[p.u]) for p in l.petals if p != BASE_PETAL)
    return TriangulatedPolygon(len(verts), diagonals), verts


def canonical_quiddity(l: Lotus) -> tuple[int, ...]:
    """Quiddity of the lotus polygon, read from the vertex at (0,1)."""
    poly, _ = polygon_of_lotus(l)
    return quiddity_of(poly)
