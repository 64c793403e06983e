"""Cutting triangulated polygons along diagonals, and lotus mutation.

Cutting the polygon of a lotus along a triangulation diagonal keeps the
piece containing the base edge [1, m].  Its quiddity, counted off the kept
piece, equals a closed formula in the frieze entries of the whole polygon
(see ``reduce``), so every partial-resolution weight chain already sits
inside the full frieze.

Mutation flips a diagonal, rewriting the lotus only where the flip
happens.  Its data are never searched for in the lattice: a chord's labels
fix the petal on it (see ``lotus._chord_petals``), and that petal and its
parent fix the quadrilateral, its type and its base side.
"""

from __future__ import annotations

from collections import namedtuple

from .lotus import (BASE_PETAL, Lotus, Petal, _chord_petals, _lotus, _petal, _polygon_boundary,
                    polygon_of_lotus)
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
    kept = _polygon(p.m - shift, frozenset(outer))
    dropped = _polygon(j - i + 1, frozenset(inner))
    return ReductionResult(polygon=kept, quiddity=quiddity_of(kept), dropped=dropped)


def reduction_chain(l: Lotus) -> list[ReductionResult]:
    """One cut per diagonal of the lotus polygon, largest kept piece first:
    the proper stages that drop one whole subtree of petals each."""
    poly, _ = polygon_of_lotus(l)
    cuts = [reduce(poly, d) for d in sorted(poly.diagonals)]
    cuts.sort(key=lambda r: (-r.polygon.m, r.quiddity))
    return cuts


def _quadrilateral(l: Lotus, d: Diagonal) -> tuple[Petal, Petal]:
    """The petal p on diagonal ``d`` (labels of the lotus polygon) and its
    parent q, whose triangle and p's apex make the quadrilateral of d.  A
    chord is a diagonal when its petal is in the lotus but is not the base.
    Its two points are read from the end of the kept boundary, in label
    order, and ``_chord_petals`` orients them."""
    chain, (i, j), p = _polygon_boundary(l), sorted(d), BASE_PETAL
    if 1 <= i and j <= len(chain):
        p, = _chord_petals((chain[-i], chain[-j]), [(1, 2)])
    if p == BASE_PETAL or p not in l.petals:
        raise ValueError(f"{(i, j)} is not a diagonal of the triangulation")
    return p, p.parent()


def mutate_lotus(l: Lotus, d: Diagonal) -> Lotus:
    """Flip diagonal ``d`` (labels of the lotus polygon), giving the
    lotus, with no marks, of the flipped triangulation with vertex 1 at (0,1).

    With p the petal on d and q = (a, b) its parent, of apex c, base-side
    petals stay and p gives way to q's other child: the vertex at p's apex
    moves to c, and the one at c a step further out.  The far parts on p's
    two upper edges and q's other one keep their order, each moved by the
    unimodular map from its old base edge to its new one.  Cost: one
    boundary walk plus the far parts.
    """
    p, q = _quadrilateral(l, d)
    (a, b), c, e = q, q.apex, p.apex
    if p.u == a:  # p is q's low child (a, c); its place goes to (c, b)
        f = (c[0] + b[0], c[1] + b[1])
        far, born = [((a, e), (a, c)), ((e, c), (c, f)), ((c, b), (f, b))], [_petal(c, b)]
    else:  # p is q's high child (c, b); its place goes to (a, c)
        f = (a[0] + c[0], a[1] + c[1])
        far, born = [((a, c), (a, f)), ((c, e), (f, c)), ((e, b), (c, b))], [_petal(a, c)]
    # the map is linear: the image of an apex u + v is the sum of theirs
    gone = [p]
    while far:
        old, (u1, v1) = far.pop()
        if old in l.petals:
            gone.append(old)
            born.append(_petal(u1, v1))
            (u, v), w1 = old, (u1[0] + v1[0], u1[1] + v1[1])
            w = (u[0] + v[0], u[1] + v[1])
            far += (((u, w), (u1, w1)), ((w, v), (w1, v1)))
    return _lotus(l.petals.difference(gone).union(born))


def quad_type(l: Lotus, d: Diagonal) -> int:
    """Orientation type (1 or 2) of the quadrilateral of diagonal ``d``.

    With the diagonal written [a, b] so that b is the apex of the base-side
    triangle {a, b, c} (b = a + c in the lattice) and d' the apex of the
    petal based on [a, b], the type is 1 when (a, c, b) is in clockwise
    order as drawn (y axis up), and 2 when (a, b, c) is.  Mutation toggles
    the type, which is 1 exactly when the petal on d is its parent's low child.
    """
    p, q = _quadrilateral(l, d)
    return 1 if p.u == q.u else 2


def base_side_petals(l: Lotus, d: Diagonal) -> frozenset:
    """Petals strictly below the quadrilateral of diagonal ``d``, which
    mutation preserves: all but the parent (a, b) of the petal on d and the
    petals above it (the other quadrilateral petal and the far parts), the
    ones with both basis vectors x in the cone det(a, x), det(x, b) >= 0."""
    _, (a, b) = _quadrilateral(l, d)
    return frozenset(r for r in l.petals if not all(
        a[0] * x[1] >= a[1] * x[0] and x[0] * b[1] >= x[1] * b[0] for x in r))
