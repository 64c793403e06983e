"""Cutting triangulated polygons along diagonals, and lotus mutation.

Cutting the polygon of a lotus along a triangulation diagonal keeps the
piece containing the base edge [1, m].  Its quiddity, counted off the kept
piece, equals a closed formula in the frieze entries of the whole polygon
(see ``reduce``), so every partial-resolution weight chain already sits
inside the full frieze.  Mutation flips a diagonal and re-embeds the new
triangulation with vertex 1 back at (0,1).

Mutation data are read off the polygon's labels, never searched for in the
lattice: a chord's labels fix the petal on it (see ``lotus._chord_petal``),
and a quadrilateral's labels fix its type and its base side.
"""

from __future__ import annotations

from collections import namedtuple

from .lotus import Lotus, _chord_petal, lotus_of_polygon, polygon_of_lotus
from .polygon import Diagonal, TriangulatedPolygon, flip, flip_quadrilateral, quiddity_of


class ReductionResult(namedtuple("ReductionResult", "polygon quiddity dropped")):
    """One cut: the base-edge piece, its quiddity, and the severed piece.

    The two pieces share the cut diagonal, so their vertex counts add up to
    m + 2.
    """

    __slots__ = ()


def reduce(p: TriangulatedPolygon, d: Diagonal) -> ReductionResult:
    """Cut ``p`` along diagonal d = [i, j] and keep the piece containing the
    edge [1, m]: vertices 1..i and j..m, relabelled in order.

    The kept piece's quiddity is counted off its own diagonals.  As a
    theorem (checked by the tests), it is a closed formula in the frieze
    entries of ``p``: writing value() for frieze entries (vertex t at index
    t-1) and q for the quiddity of ``p``, it is

        (q_1 .. q_{i-1}, value(i-2, j-1), value(i-1, j), q_{j+1} .. q_m)

    for j < m, and (q_1 .. q_{i-1}, value(i-2, m-1), value(0, i-1)) for
    j = m.
    """
    d = (min(d), max(d))
    if d not in p.diagonals:
        raise ValueError(f"{d} is not a diagonal of the triangulation")
    i, j = d
    # no diagonal crosses the cut: each other one lies inside [i, j] or has
    # both ends in [1, i] and [j, m], so relabelling in order is a shift
    shift = j - i - 1
    inner, outer = set(), set()
    for a, b in p.diagonals - {d}:
        if i <= a and b <= j:
            inner.add((a - i + 1, b - i + 1))
        else:
            outer.add((a - shift if a > i else a, b - shift if b > i else b))
    kept = TriangulatedPolygon(p.m - shift, frozenset(outer))
    dropped = TriangulatedPolygon(j - i + 1, frozenset(inner))
    return ReductionResult(polygon=kept, quiddity=quiddity_of(kept), dropped=dropped)


def reduction_chain(l: Lotus) -> list[ReductionResult]:
    """One cut per diagonal of the lotus polygon, largest kept piece first:
    the proper stages that drop one whole subtree of petals each."""
    poly, _ = polygon_of_lotus(l)
    cuts = [reduce(poly, d) for d in sorted(poly.diagonals)]
    cuts.sort(key=lambda r: (-r.polygon.m, r.quiddity))
    return cuts


def mutate_lotus(l: Lotus, d: Diagonal) -> Lotus:
    """Flip diagonal ``d`` (labels of the lotus polygon) in the underlying
    triangulation and re-embed with vertex 1 at (0,1).

    The base-side petals are untouched; the quadrilateral of the flip swaps
    its two petals and the far parts are refitted unimodularly.
    """
    poly, _ = polygon_of_lotus(l)
    flipped = flip(poly, d)
    return lotus_of_polygon(flipped, 0)


def quad_type(l: Lotus, d: Diagonal) -> int:
    """Orientation type (1 or 2) of the quadrilateral of diagonal ``d``.

    With the diagonal written [a, b] so that b is the apex of the base-side
    triangle {a, b, c} (b = a + c in the lattice) and d' the apex of the
    petal based on [a, b], the type is 1 when (a, c, b) is in clockwise
    order as drawn (y axis up), and 2 when (a, b, c) is.  Mutation toggles
    the type.  On the labels of the lotus polygon, with d = (i, j), the
    base-side triangle is the one whose third vertex c lies outside [i, j],
    and the type is 1 exactly when c < i.
    """
    poly, _ = polygon_of_lotus(l)
    i, _, k, _ = flip_quadrilateral(poly, d)
    return 1 if k < i else 2


def base_side_petals(l: Lotus, d: Diagonal) -> frozenset:
    """Petals strictly below the quadrilateral of diagonal ``d``: everything
    except the two quadrilateral petals and the parts hanging off its three
    non-base-side edges.  This set is preserved by mutation.

    They are the petals on the chords (the diagonals and [1, m]) reaching
    outside the labels [min(quad), max(quad)], the side of the
    quadrilateral facing [1, m]."""
    poly, verts = polygon_of_lotus(l)
    quad = flip_quadrilateral(poly, d)
    lo, hi = min(quad), max(quad)
    return frozenset(_chord_petal(verts, c) for c in poly.diagonals | {(1, poly.m)}
                     if c[0] < lo or c[1] > hi)
