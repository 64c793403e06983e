"""Cutting triangulated polygons along diagonals, and lotus mutation.

Cutting the polygon of a lotus along a triangulation diagonal keeps the
piece containing the base edge [1, m].  Its quiddity, read off the whole
polygon's, equals a closed formula in the frieze entries of the whole
polygon (see ``reduce``), so every partial-resolution weight chain already
sits inside the full frieze.

Mutation flips a diagonal, rewriting the lotus only where the flip
happens.  Its data are never searched for in the lattice: a chord's labels
find the petal on it in the lotus's boundary index (see ``_chord``), and
that petal and its parent fix the quadrilateral, its type and base side.
"""

from __future__ import annotations

from collections import namedtuple

from .frieze import Point
from .lotus import Lotus, Petal, _lotus, _petal, _polygon_boundary, polygon_of_lotus
from .polygon import Diagonal, TriangulatedPolygon, _polygon, quiddity_of


class ReductionResult(namedtuple("ReductionResult", "polygon quiddity dropped")):
    """One cut: the base-edge piece, its quiddity, and the severed piece.

    The two pieces share the cut diagonal, so their vertex counts add up to
    m + 2.
    """

    __slots__ = ()


def reduce(p: TriangulatedPolygon, d: Diagonal) -> ReductionResult:
    """Cut ``p`` along diagonal d = [i, j] and keep the piece containing the
    edge [1, m]: vertices 1..i and j..m, relabelled in order.

    The kept piece's quiddity (see ``_cut``) is, as a theorem checked by
    the tests, a closed formula in the frieze entries of ``p``: writing
    value() for frieze entries (vertex t at index t-1) and q for the
    quiddity of ``p``, it is

        (q_1 .. q_{i-1}, value(i-2, j-1), value(i-1, j), q_{j+1} .. q_m)

    for j < m, and (q_1 .. q_{i-1}, value(i-2, m-1), value(0, i-1)) for
    j = m.
    """
    d = (min(d), max(d))
    if d not in p.diagonals:
        raise ValueError(f"{d} is not a diagonal of the triangulation")
    return _cut(p, quiddity_of(p), d)


def _cut(p: TriangulatedPolygon, q: tuple[int, ...], d: Diagonal) -> ReductionResult:
    """``reduce`` at the diagonal d of ``p``, whose quiddity is ``q``: the
    kept quiddity drops vertices i+1..j-1 of ``q`` and takes t off at i and
    at j, t being 1 plus the diagonals of the dropped piece there."""
    i, j = d
    # no diagonal crosses the cut: each other one lies inside [i, j] or has
    # both ends in [1, i] and [j, m], so relabelling in order is a shift
    shift = j - i - 1
    inner, outer, ti, tj = set(), set(), 0, 0
    for a, b in p.diagonals:
        if i <= a and b <= j:
            inner.add((a - i + 1, b - i + 1))
            ti += a == i  # d itself counts once at each end: the 1 of t
            tj += b == j
        else:
            outer.add((a - shift if a > i else a, b - shift if b > i else b))
    inner.discard((1, j - i + 1))
    return ReductionResult(_polygon(p.m - shift, frozenset(outer)),
                           q[:i - 1] + (q[i - 1] - ti, q[j - 1] - tj) + q[j:],
                           _polygon(j - i + 1, frozenset(inner)))


def reduction_chain(l: Lotus) -> list[ReductionResult]:
    """One cut per diagonal of the lotus polygon, largest kept piece first:
    the proper stages that drop one whole subtree of petals each."""
    poly, _ = polygon_of_lotus(l)
    q = quiddity_of(poly)
    cuts = [_cut(poly, q, d) for d in sorted(poly.diagonals)]
    cuts.sort(key=lambda r: (-r.polygon.m, r.quiddity))
    return cuts


def _chord(l: Lotus, d: Diagonal) -> tuple[int, int]:
    """Boundary positions (vertex t is at m - t) of the apexes of the petal
    on diagonal ``d`` and of its parent: the low child of the apex at the
    chord's high end, or the high child of the one at its low end."""
    chain, (i, j) = _polygon_boundary(l), sorted(d)
    if 1 <= i and j <= len(chain):
        _, lo, hi, low, high = l._index
        a, b = len(chain) - j, len(chain) - i
        if lo[low[b]] == a:
            return low[b], b
        if hi[high[a]] == b:
            return high[a], a
    raise ValueError(f"{(i, j)} is not a diagonal of the triangulation")


def _moved(l: Lotus, x: int, y: int, u1: Point, v1: Point) -> list[Petal]:
    """The subtree on the edge from boundary position x to y, moved by the
    unimodular map taking that edge to (u1, v1): each point from x to y is
    mapped once, and each petal reads its ends off the image."""
    chain, (_, lo, hi, _, _) = l._boundary, l._index
    (a, b), (c, d), (e, f), (g, h) = chain[x], chain[y], u1, v1
    # the map is [u1 v1] [u0 v0]^-1, and det(u0, v0) = 1
    m00, m01, m10, m11 = e * d - g * b, g * a - e * c, f * d - h * b, h * a - f * c
    image = [(m00 * p + m01 * r, m10 * p + m11 * r) for p, r in chain[x:y + 1]]
    return [_petal(image[s - x], image[t - x]) for s, t in zip(lo[x + 1:y], hi[x + 1:y])]


def mutate_lotus(l: Lotus, d: Diagonal) -> Lotus:
    """Flip diagonal ``d`` (labels of the lotus polygon), giving the
    lotus, with no marks, of the flipped triangulation with vertex 1 at (0,1).

    With p the petal on d and q = (a, b) its parent, of apex c, base-side
    petals stay and p gives way to q's other child: the vertex at p's apex
    moves to c, and the one at c a step further out.  The far parts on p's
    two upper edges and q's other one keep their order, each moved by the
    unimodular map from its old base edge to its new one.  Each far part is
    a slice of the boundary index, and all that goes is q's subtree less q.
    """
    t, s = _chord(l, d)
    chain, (petals, lo, hi, _, _) = l._boundary, l._index
    (a, b), c = petals[s], chain[s]
    if hi[t] == s:  # p is q's low child (a, c); its place goes to (c, b)
        f = (c[0] + b[0], c[1] + b[1])
        far, born = [(lo[t], t, a, c), (t, s, c, f), (s, hi[s], f, b)], [_petal(c, b)]
    else:  # p is q's high child (c, b); its place goes to (a, c)
        f = (a[0] + c[0], a[1] + c[1])
        far, born = [(lo[s], s, a, f), (s, t, f, c), (t, hi[t], c, b)], [_petal(a, c)]
    for x, y, u1, v1 in far:
        if y - x > 1:
            born += _moved(l, x, y, u1, v1)
    return _lotus(l.petals.difference(petals[lo[s] + 1:s], petals[s + 1:hi[s]]).union(born))


def quad_type(l: Lotus, d: Diagonal) -> int:
    """Orientation type (1 or 2) of the quadrilateral of diagonal ``d``.

    With the diagonal written [a, b] so that b is the apex of the base-side
    triangle {a, b, c} (b = a + c in the lattice) and d' the apex of the
    petal based on [a, b], the type is 1 when (a, c, b) is in clockwise
    order as drawn (y axis up), and 2 when (a, b, c) is.  Mutation toggles
    the type, which is 1 exactly when the petal on d is its parent's low child.
    """
    t, s = _chord(l, d)
    return 1 if l._index.hi[t] == s else 2


def base_side_petals(l: Lotus, d: Diagonal) -> frozenset:
    """Petals strictly below the quadrilateral of diagonal ``d``, which
    mutation preserves: all but the parent (a, b) of the petal on d and the
    petals above it (the other quadrilateral petal and the far parts), that
    is all but the subtree of the parent, a slice of the boundary index."""
    _, s = _chord(l, d)
    ix = l._index
    return l.petals.difference(ix.petals[ix.lo[s] + 1:ix.hi[s]])
