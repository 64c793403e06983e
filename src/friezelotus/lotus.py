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
from functools import cached_property

from .contfrac import MAX_VERTICES, Rational, stern_brocot_runs
from .frieze import Point, _check_quiddity, _embed
from .polygon import TriangulatedPolygon, _polygon, _run_tree, quiddity_of

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


def _petal(u: Point, v: Point) -> Petal:
    """A petal known to be valid, built without the checks."""
    return tuple.__new__(Petal, (u, v))


BASE_PETAL = _petal(E1, E2)


class Lotus(namedtuple("Lotus", "petals marks")):
    """Parent-closed petal set with marked points on the lateral boundary.

    The empty petal set models the degenerate lotus that is just the base
    segment (arising from the slopes 0 and infinity alone).  ``Lotus(...)``
    checks its input; this package's own functions use ``_lotus``.  It has
    no ``__slots__``, so that its dict can keep its boundary and its index.
    """

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

    @cached_property
    def _boundary(self) -> tuple[Point, ...]:
        """The walk of ``lateral_boundary``, on (u, v) pairs: they hash as petals."""
        petals, chain, stack = self.petals, [E1], [(E1, E2)]
        while stack:
            u, v = pair = stack.pop()
            if pair in petals:
                apex = (u[0] + v[0], u[1] + v[1])
                stack += ((apex, v), (u, apex))
            else:
                chain.append(v)
        return tuple(chain)

    @cached_property
    def _index(self) -> _Index:
        """The boundary index read off the kept walk.  An apex's coordinate
        sum exceeds those of its base points and is below all between them,
        so one stack pass over the sums (a Cartesian tree) finds them all."""
        chain = self._boundary
        n = len(chain) - 1
        sums = [x + y for x, y in chain]
        lo, hi, low, high = [-1] * (n + 1), [-1] * (n + 1), [0] * (n + 1), [0] * (n + 1)
        stack = [0]
        for t in range(1, n + 1):
            s, last = sums[t], 0
            while sums[stack[-1]] > s:
                last = stack.pop()
                hi[last] = t
            if t < n:
                low[t], lo[t] = last, stack[-1]
                high[stack[-1]] = t
                stack.append(t)
        high[0] = 0
        petals = [None, *(_petal(chain[a], chain[b]) for a, b in zip(lo[1:n], hi[1:n])), None]
        return _Index(petals, lo, hi, low, high)


# The boundary index, by boundary position t (0 is (1,0)): the petal with
# apex at t, its base positions lo[t] < t < hi[t] and its children's apex
# positions, low then high, 0 for none (the ends hold None, -1, -1, 0, 0).
_Index = namedtuple("_Index", "petals lo hi low high")


def _lotus(petals: frozenset[Petal], marks: frozenset[Point] = frozenset()) -> Lotus:
    """A lotus known to be valid, built without the checks."""
    return tuple.__new__(Lotus, (petals, marks))


def lotus_of_slope(s: Rational) -> Lotus:
    """The lotus of one slope, marked at its primitive point."""
    return lotus_of_slopes([s])


def lotus_of_slopes(slopes: Iterable[Rational]) -> Lotus:
    """Union of the petal chains meeting the rays of the slopes, each marked
    at its tip; the union, too, is held to MAX_VERTICES.

    The slopes' Stern-Brocot paths make one tree (``polygon._run_tree``)
    that places every apex on the boundary; the points follow in tree
    order, each apex the sum of its base points, and the lotus is born
    with its boundary and its index.  Slopes 0 and inf add only a mark.
    """
    marks: set[Point] = set()

    def paths():
        for s in slopes:
            if s.is_zero or s.is_infinite:
                marks.add(E1 if s.is_zero else E2)
            else:
                yield stern_brocot_runs(s)

    lo, hi, low, high, tips, order = _run_tree(paths(), MAX_VERTICES)
    chain, petals = [E1] * (len(lo) - 1) + [E2], [None] * len(lo)
    for t in order:
        u, v = chain[lo[t]], chain[hi[t]]
        chain[t] = (u[0] + v[0], u[1] + v[1])
        petals[t] = _petal(u, v)
    l = _lotus(frozenset(petals[1:-1]), frozenset(marks.union(chain[t] for t in tips)))
    l._boundary, l._index = tuple(chain), _Index(petals, lo, hi, low, high)
    return l


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
    each child outside the lotus is a boundary edge adding its far end.
    The walk is made once per lotus value and kept on it."""
    return l._boundary


# ---------------------------------------------------------------------------
# Embedded polygons


def embed_polygon(q: Sequence[int], k: int) -> list[Point]:
    """Vertices of the polygon of quiddity ``q`` embedded so that quiddity
    entry ``q[k]`` sits at (0,1).

    The vertices obey v1 = (0,1), v2 = (1, q[k]) and the three-term
    recurrence v_{l+1} = mu * v_l - v_{l-1} with mu the quiddity at v_l;
    equivalently v_l is the pair of frieze entries
    (entry(k, k+l-1), entry(k-1, k+l-1)).

    Exactly the frieze quiddities pass its gate, ``frieze._check_quiddity``.
    """
    q = tuple(q)
    _check_quiddity(q)
    return _embed(q, k)


def lotus_of_polygon(p: TriangulatedPolygon, k: int) -> Lotus:
    """Unmarked lotus of the embedded triangulation: polygon vertex k+1 goes
    to (0,1) (see embed_polygon).  The embedding lists the vertices from
    polygon vertex k+1, so labels rotate by k: the base petal sits on the
    chord that the rotation puts at [1, m], and each diagonal carries one
    more petal.  The chord lo < hi, rotated, is the base of the one
    triangle whose apex lies between them, and that triangle's petal is
    (vertex hi, vertex lo)."""
    verts = _embed(quiddity_of(p), k)
    m, petals = len(verts), [BASE_PETAL]
    for i, j in p.diagonals:
        a, b = (i - k - 1) % m, (j - k - 1) % m
        petals.append(_petal(verts[b], verts[a]) if a < b else _petal(verts[a], verts[b]))
    return _lotus(frozenset(petals))


def _polygon_boundary(l: Lotus) -> tuple[Point, ...]:
    """The lateral boundary of a lotus polygon, whose vertex t is its t-th
    point from the end, at index -t.  The segment lotus has none."""
    if l.is_segment:
        raise ValueError("the segment lotus has no polygon")
    return lateral_boundary(l)


def polygon_of_lotus(l: Lotus) -> tuple[TriangulatedPolygon, tuple[Point, ...]]:
    """The abstract triangulated polygon underlying a lotus, together with
    the lattice position of each vertex.

    Vertex 1 is (0,1) and vertex m is (1,0); the interior labels follow the
    lateral boundary.  Re-embedding its quiddity with k = 0 reproduces the
    petal set (vertex 1 back at (0,1)).
    """
    chain, ix = _polygon_boundary(l), l._index
    m = len(chain)
    # vertex t is at position m - t; each petal but the base one is on a diagonal
    diagonals = frozenset((m - b, m - a) for a, b in zip(ix.lo[1:-1], ix.hi[1:-1]) if b - a < m - 1)
    return _polygon(m, diagonals), chain[::-1]
