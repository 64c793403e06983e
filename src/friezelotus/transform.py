"""Cutting triangulated polygons along diagonals, and lotus mutation.

Cutting the polygon of a lotus along a triangulation diagonal keeps the
piece containing the base edge [1, m]; its quiddity is given by closed
formulas in the frieze entries, so every partial-resolution weight chain
already sits inside the full frieze.  Mutation flips a diagonal and
re-embeds the new triangulation with vertex 1 back at (0,1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .frieze import entry_by_continuant
from .lotus import Lotus, lotus_of_polygon, petal_of_triangle, polygon_of_lotus
from .polygon import Diagonal, TriangulatedPolygon, flip, flip_quadrilateral, quiddity_of


@dataclass(frozen=True)
class ReductionResult:
    """One cut: the base-edge piece, its quiddity, and the severed piece.

    The two pieces share the cut diagonal, so their vertex counts add up to
    m + 2.
    """

    polygon: TriangulatedPolygon
    quiddity: tuple[int, ...]
    dropped: TriangulatedPolygon


def reduce(p: TriangulatedPolygon, d: Diagonal) -> ReductionResult:
    """Cut ``p`` along diagonal d = [i, j] and keep the piece containing the
    edge [1, m].

    The kept piece's quiddity comes from the frieze of ``p``: writing value()
    for frieze entries (vertex t at index t-1) and q for the quiddity of
    ``p``, it is

        (q_1 .. q_{i-1}, value(i-2, j-1), value(i-1, j), q_{j+1} .. q_m)

    for j < m, and (q_1 .. q_{i-1}, value(i-2, m-1), value(0, i-1)) for
    j = m.
    """
    d = (min(d), max(d))
    if d not in p.diagonals:
        raise ValueError(f"{d} is not a diagonal of the triangulation")
    i, j = d
    q = quiddity_of(p)

    def value(a: int, b: int) -> int:
        return entry_by_continuant(q, a, b)

    if j < p.m:
        quiddity = q[:i - 1] + (value(i - 2, j - 1), value(i - 1, j)) + q[j:]
        kept_labels = list(range(1, i + 1)) + list(range(j, p.m + 1))
    else:
        quiddity = q[:i - 1] + (value(i - 2, p.m - 1), value(0, i - 1))
        kept_labels = list(range(1, i + 1)) + [p.m]
    dropped_labels = list(range(i, j + 1))
    kept = _subpolygon(p, kept_labels, d)
    dropped = _subpolygon(p, dropped_labels, d)
    return ReductionResult(polygon=kept, quiddity=quiddity, dropped=dropped)


def _subpolygon(p: TriangulatedPolygon, labels: list[int], cut: Diagonal) -> TriangulatedPolygon:
    relabel = {old: t + 1 for t, old in enumerate(labels)}
    keep = set(labels)
    diagonals = set()
    for a, b in p.diagonals:
        if (a, b) != cut and a in keep and b in keep:
            na, nb = relabel[a], relabel[b]
            diagonals.add((min(na, nb), max(na, nb)))
    return TriangulatedPolygon(len(labels), frozenset(diagonals))


def reduction_chain(l: Lotus) -> list[ReductionResult]:
    """One cut per diagonal of the lotus polygon, i.e. one per proper
    partial resolution, largest kept piece first."""
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
    the type.
    """
    poly, verts = polygon_of_lotus(l)
    i, j, k1, k2 = flip_quadrilateral(poly, d)
    pi, pj = verts[i - 1], verts[j - 1]
    for apex_label, other_label in ((k1, k2), (k2, k1)):
        pk = verts[apex_label - 1]
        for a_pt, b_pt in ((pi, pj), (pj, pi)):
            # base-side triangle {a, b, c=k}: b is its apex, b = a + c
            if (a_pt[0] + pk[0], a_pt[1] + pk[1]) == b_pt:
                c_pt = pk
                # (a, c, b) clockwise as drawn (y up) means negative cross
                cross = ((c_pt[0] - a_pt[0]) * (b_pt[1] - a_pt[1])
                         - (c_pt[1] - a_pt[1]) * (b_pt[0] - a_pt[0]))
                return 1 if cross < 0 else 2
    raise ValueError(f"diagonal {d} does not bound a petal pair")


def base_side_petals(l: Lotus, d: Diagonal) -> frozenset:
    """Petals strictly below the quadrilateral of diagonal ``d``: everything
    except the two quadrilateral petals and the parts hanging off its three
    non-base-side edges.  This set is preserved by mutation."""
    poly, verts = polygon_of_lotus(l)
    i, j, k1, k2 = flip_quadrilateral(poly, d)
    quad = sorted((i, j, k1, k2))
    # the base side of the quad is bounded by the chord between the two
    # quad vertices enclosing vertex 1/m cyclically; triangles beyond the
    # other chords belong to the far parts
    quad_tris = {tri for tri in poly.triangles if i in tri and j in tri}
    base_petals = set()
    for tri in poly.triangles:
        if tri in quad_tris:
            continue
        lo, hi = _enclosing_side(quad, tri, poly.m)
        if lo is None:
            base_petals.add(petal_of_triangle([verts[t - 1] for t in tri]))
    return frozenset(base_petals)


def _enclosing_side(quad: list[int], tri: tuple[int, int, int], m: int):
    # a non-quad triangle lies in one of the four outer regions cut off by
    # the quad's sides; report that side, or (None, None) for the region
    # containing the base edge [1, m]
    for t in range(4):
        lo, hi = quad[t], quad[(t + 1) % 4]
        lo, hi = min(lo, hi), max(lo, hi)
        inside = all(lo <= v <= hi for v in tri)
        # the base edge [1, m] lies "inside" the arc lo..hi only if lo=1, hi=m
        if inside and not (lo == 1 and hi == m):
            return lo, hi
    return None, None
