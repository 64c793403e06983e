"""Lattice lotuses: stacks of unimodular petals over the base (1,0)-(0,1).

A petal is the triangle spanned by an ordered positive basis (u, v) of Z^2
together with its apex u+v; children of delta(u, v) are delta(u, u+v) and
delta(u+v, v), which makes the set of all petals an infinite binary tree
rooted at the base petal delta((1,0), (0,1)).  A lotus is a finite
parent-closed set of petals, optionally with marked lateral points.

The boundary of a lotus minus the open segment between (1,0) and (0,1) is
its lateral boundary; its interior vertices carry the weights -(incident
petal count) used by the resolution-graph side of this package.  A lateral
vertex's count is read off its two boundary neighbours: a + c = count * b,
the recurrence that embed_polygon runs forward.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .contfrac import MAX_VERTICES, Rational, stern_brocot_runs
from .frieze import MAX_FRIEZE_ENTRIES, frieze_rows
from .polygon import Diagonal, TriangulatedPolygon, polygon_from_quiddity, quiddity_of

Point = tuple[int, int]

E1: Point = (1, 0)
E2: Point = (0, 1)


class Petal(namedtuple("Petal", "u v")):
    """Ordered positive basis (u, v) with det(u, v) = 1; apex is derived.

    It hashes, compares and sorts as the pair (u, v).  ``Petal`` checks
    the basis; code whose petals are valid by construction uses ``_petal``.
    """

    __slots__ = ()

    def __new__(cls, u: Point, v: Point):
        self = _petal(u, v)
        if min(*u, *v) < 0 or u == (0, 0) or v == (0, 0):
            raise ValueError(f"petal basis must be nonzero and nonnegative: {self}")
        if u[0] * v[1] - u[1] * v[0] != 1:
            raise ValueError(f"petal basis must be unimodular and positive: {self}")
        return self

    @property
    def apex(self) -> Point:
        u, v = self
        return (u[0] + v[0], u[1] + v[1])

    def parent(self) -> Petal | None:
        """The unique petal sharing this petal's base edge, or None at the root."""
        u, v = self
        if u == E1 and v == E2:
            return None
        dx, dy = v[0] - u[0], v[1] - u[1]
        if dx >= 0 and dy >= 0:
            return _petal(u, (dx, dy))
        return _petal((-dx, -dy), v)

    def children(self) -> tuple[Petal, Petal]:
        u, v = self
        apex = (u[0] + v[0], u[1] + v[1])
        return _petal(u, apex), _petal(apex, v)


def _petal(u: Point, v: Point) -> Petal:
    """A petal known to be valid, built without the checks."""
    return tuple.__new__(Petal, (u, v))


BASE_PETAL = _petal(E1, E2)


class Lotus(namedtuple("Lotus", "petals marks")):
    """Parent-closed petal set with marked points on the lateral boundary.

    The empty petal set models the degenerate lotus that is just the base
    segment (arising from the slopes 0 and infinity alone).  ``Lotus(...)``
    checks its input; this package's own functions use ``_lotus``.
    """

    __slots__ = ()

    def __new__(cls, petals: frozenset[Petal], marks: frozenset[Point] = frozenset()):
        for p in petals:
            parent = p.parent()
            if parent is not None and parent not in petals:
                raise ValueError(f"petal set is not parent-closed: {p} lacks {parent}")
        self = _lotus(petals, marks)
        if marks:
            boundary = set(lateral_boundary(self))
            for mk in marks:
                if mk not in boundary:
                    raise ValueError(f"mark {mk} is not on the lateral boundary")
        return self

    @property
    def is_segment(self) -> bool:
        return not self.petals

    def unmarked(self) -> Lotus:
        return _lotus(self.petals)


def _lotus(petals: frozenset[Petal], marks: frozenset[Point] = frozenset()) -> Lotus:
    """A lotus known to be valid, built without the checks."""
    return tuple.__new__(Lotus, (petals, marks))


def lotus_of_slope(s: Rational) -> Lotus:
    """The lotus of one slope, marked at its primitive point."""
    return lotus_of_slopes([s])


def lotus_of_slopes(slopes: Iterable[Rational]) -> Lotus:
    """Union of the petal chains meeting the rays of the slopes, each marked
    at its tip; the union, too, is held to MAX_VERTICES.

    Each slope walks its Stern-Brocot path down the petal tree into the
    child whose cone holds the ray: the upper one (apex becomes u) on even
    runs, the lower one (apex becomes v) on odd runs, up to the petal whose
    apex is the slope's primitive vector.  Slopes 0 and inf add only a mark.
    """
    petals: set[Petal] = set()
    marks: set[Point] = set()
    for s in slopes:
        if s.is_zero or s.is_infinite:
            marks.add(E1 if s.is_zero else E2)
            continue
        runs = stern_brocot_runs(s)
        runs[-1] -= 1  # the base petal is the first step
        u, v = E1, E2
        petals.add(BASE_PETAL)
        for t, run in enumerate(runs):
            for _ in range(run):
                apex = (u[0] + v[0], u[1] + v[1])
                u, v = (u, apex) if t % 2 else (apex, v)
                petals.add(_petal(u, v))
        marks.add((u[0] + v[0], u[1] + v[1]))
        if len(petals) + 2 > MAX_VERTICES:
            raise ValueError(f"the slopes give a polygon of over {MAX_VERTICES} vertices")
    return _lotus(frozenset(petals), frozenset(marks))


def pinching_points(l: Lotus) -> tuple[Point, ...]:
    """Non-basic vertices on exactly one petal, in lateral-boundary order:
    increasing slope, as consecutive boundary points a, b have det(a, b) = 1."""
    chain = lateral_boundary(l)
    return tuple(pt for pt, c in zip(chain[1:], petal_counts(chain)) if c == 1)


def petal_counts(chain: Sequence[Point]) -> list[int]:
    """Petal count at each interior point b of a lateral boundary, read off
    its neighbours a and c by a + c = count * b.  Interior points are petal
    apexes, so b[0] >= 1."""
    return [(a[0] + c[0]) // b[0] for a, b, c in zip(chain, chain[1:], chain[2:])]


def lateral_boundary(l: Lotus) -> tuple[Point, ...]:
    """Boundary vertices from (1,0) to (0,1), by an in-order walk of the
    petal tree: each petal of the lotus gives way to its two children, and
    each child outside the lotus is a boundary edge adding its far end."""
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
    return tuple(chain)


# ---------------------------------------------------------------------------
# Embedded polygons


def embed_polygon(q: Sequence[int], k: int) -> list[Point]:
    """Vertices of the polygon of quiddity ``q`` embedded so that quiddity
    entry ``q[k]`` sits at (0,1).

    The vertices obey v1 = (0,1), v2 = (1, q[k]) and the three-term
    recurrence v_{l+1} = mu * v_l - v_{l-1} with mu the quiddity at v_l;
    equivalently v_l is the pair of frieze entries
    (entry(k, k+l-1), entry(k-1, k+l-1)).

    The quiddity is checked by the ear cut; by Conway-Coxeter it accepts
    exactly the frieze quiddities.  A rejected one is refused with the
    frieze's message, which names the first bad diamond, when the frieze
    is under its ceiling.
    """
    q = tuple(q)
    try:
        polygon_from_quiddity(q)
    except ValueError:
        if len(q) * (len(q) - 1) // 2 <= MAX_FRIEZE_ENTRIES:
            for _ in frieze_rows(q):
                pass
        raise
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


def _chord_petal(verts: Sequence[Point], chord: Diagonal, k: int = 0) -> Petal:
    """The petal on a chord, read off its labels rotated by ``k``: the chord
    lo < hi is the base of the one triangle whose apex lies between them,
    and that triangle's petal is (vertex hi, vertex lo).  This is the one
    place where a petal's orientation is decided."""
    lo, hi = sorted((t - 1 - k) % len(verts) for t in chord)
    return _petal(verts[hi], verts[lo])


def lotus_of_polygon(p: TriangulatedPolygon, k: int) -> Lotus:
    """Unmarked lotus of the embedded triangulation: polygon vertex k+1 goes
    to (0,1) (see embed_polygon).  The embedding lists the vertices from
    polygon vertex k+1, so labels rotate by k: the base petal sits on the
    chord that the rotation puts at [1, m], and each diagonal carries one
    more petal."""
    verts = _embed(quiddity_of(p), k)
    return _lotus(frozenset([BASE_PETAL, *(_chord_petal(verts, d, k) for d in p.diagonals)]))


def polygon_of_lotus(l: Lotus) -> tuple[TriangulatedPolygon, tuple[Point, ...]]:
    """The abstract triangulated polygon underlying a lotus, together with
    the lattice position of each vertex.

    Vertex 1 is (0,1) and vertex m is (1,0); the interior labels follow the
    lateral boundary.  Re-embedding its quiddity with k = 0 reproduces the
    petal set (vertex 1 back at (0,1)).
    """
    if l.is_segment:
        raise ValueError("the segment lotus has no polygon")
    verts = lateral_boundary(l)[::-1]
    index = {pt: t + 1 for t, pt in enumerate(verts)}
    # the base edge of every petal but the root is shared with its parent;
    # the boundary passes u before v, so v has the smaller label
    diagonals = frozenset((index[p.v], index[p.u]) for p in l.petals if p != BASE_PETAL)
    return TriangulatedPolygon(len(verts), diagonals), verts
