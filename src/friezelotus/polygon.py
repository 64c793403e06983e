"""Triangulated convex polygons with 1-based clockwise vertex labels.

A triangulation of the m-gon is stored as its set of m-3 pairwise
noncrossing inner diagonals, each an endpoint-sorted pair (i, j).  The
quiddity of a triangulation is the tuple of per-vertex triangle counts,
index t holding the count at vertex t+1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .contfrac import hj_evaluate, kidoh_dual

Diagonal = tuple[int, int]


class TriangulatedPolygon(namedtuple("TriangulatedPolygon", "m diagonals")):
    """Triangulation of the m-gon by its inner diagonals.

    The diagonals are the whole triangulation: every triangle, apex and
    count is read off them.  Construction checks that they triangulate the
    m-gon; this package's own builders use the unchecked ``_polygon``.
    """

    __slots__ = ()

    def __new__(cls, m: int, diagonals: frozenset[Diagonal]):
        if m < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        if len(diagonals) != m - 3:
            raise ValueError(f"a triangulated {m}-gon has {m - 3} diagonals, "
                             f"got {len(diagonals)}")
        for i, j in diagonals:
            if not 1 <= i <= j - 2 <= m - 2 or (i, j) == (1, m):
                raise ValueError(f"{(i, j)} is not an inner diagonal of the {m}-gon")
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
        return _polygon(m, diagonals)


def _polygon(m: int, diagonals: frozenset[Diagonal]) -> TriangulatedPolygon:
    """A triangulation known to be valid, built without the checks."""
    return tuple.__new__(TriangulatedPolygon, (m, diagonals))


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
    off ears (vertices of count 1) until a triangle remains.  One sweep over
    the labels keeps the uncut vertices on a stack; the ears it leaves are
    cut from both ends of the stack, round the base edge [1, m].  A count
    falling below 1 rejects the input at once.  The length is refused
    first, then the first entry below 1."""
    m = len(q)
    if m < 3:
        raise ValueError("quiddity needs length >= 3")
    if min(q) < 1:
        t = next(t for t, a in enumerate(q) if a < 1)
        raise ValueError(f"quiddity entry {q[t]} at position {t} is not positive")
    counts, stack, diagonals = [0, *q], [1], []  # counts by label, slot 0 unused
    for v in range(2, m + 1):
        # an ear on top lies between the vertex under it and v; the last v may not close [1, m]
        while counts[stack[-1]] == 1 and len(stack) > (1 if v < m else 2):
            stack.pop()
            a = stack[-1]
            diagonals.append((a, v))
            counts[a] -= 1
            counts[v] -= 1
            if counts[a] < 1 or counts[v] < 1:
                raise ValueError("not the quiddity of a triangulated polygon")
        stack.append(v)
    lo, hi = 0, len(stack) - 1
    while hi - lo > 2:
        if counts[stack[hi]] == 1:
            hi -= 1
        elif counts[stack[lo]] == 1:
            lo += 1
        else:
            raise ValueError("not the quiddity of a triangulated polygon (no ear)")
        a, b = stack[lo], stack[hi]
        diagonals.append((a, b))
        counts[a] -= 1
        counts[b] -= 1
        if counts[a] < 1 or counts[b] < 1:
            raise ValueError("not the quiddity of a triangulated polygon")
    # counts stay >= 1 and each cut lowers their total by 3, so the last
    # three are all 1 exactly when the total was 3(m - 2)
    if sum(q) != 3 * (m - 2):
        raise ValueError("not the quiddity of a triangulated polygon")
    return _polygon(m, frozenset(diagonals))


def polygon_of_cf(terms: Sequence[int]) -> TriangulatedPolygon:
    """Two-eared triangulation attached to an expansion of a value > 1
    (``kidoh_dual`` refuses any other).

    Vertex 1 is an ear and the quiddity read from it is
    (1, b_1, ..., b_r, 1, b'_s, ..., b'_1) with (b') the dual expansion.
    """
    dual = kidoh_dual(hj_evaluate(terms)).dual
    quiddity = (1,) + tuple(terms) + (1,) + tuple(reversed(dual))
    return polygon_from_quiddity(quiddity)
