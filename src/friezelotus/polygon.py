"""Triangulated convex polygons with 1-based clockwise vertex labels.

A triangulation of the m-gon is stored as its set of m-3 pairwise
noncrossing inner diagonals, each an endpoint-sorted pair (i, j).  The
quiddity of a triangulation is the tuple of per-vertex triangle counts,
index t holding the count at vertex t+1.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .contfrac import MAX_VERTICES, hj_evaluate, kidoh_dual

Diagonal = tuple[int, int]


class TriangulatedPolygon(namedtuple("TriangulatedPolygon", "m diagonals")):
    """Triangulation of the m-gon by its m-3 noncrossing inner diagonals.

    The diagonals are the whole triangulation: every triangle, apex and
    count is read off them.
    """

    __slots__ = ()


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
    return TriangulatedPolygon(m, frozenset(diagonals))


def _run_tree(paths: Iterable[list[int]], ceiling: int) -> tuple[list[int], ...]:
    """The union of Stern-Brocot paths, given by their runs (consumed), as a
    tree of small ints: from the base petal, even runs step into high
    children and odd runs into low ones, and parents are made first.  A
    tree of over ``ceiling`` vertices is refused.  One reverse pass counts
    subtrees, and one pass in tree order puts each apex at its boundary
    position.  Returns lo, hi, low and high as in ``lotus._Index``, the
    positions of the path ends and all apex positions in tree order."""
    low, high, ends = [0, 0], [0, 0], []  # node 0 stands for no child; node 1 is the root
    for runs in paths:
        runs[-1] -= 1  # the base petal is the first step
        x = 1
        for t, run in enumerate(runs):
            side = low if t % 2 else high
            for _ in range(run):
                y = side[x]
                if not y:
                    y = side[x] = len(low)
                    low.append(0)
                    high.append(0)
                x = y
        ends.append(x)
        if len(low) + 1 > ceiling:
            raise ValueError(f"the slopes give a polygon of over {ceiling} vertices")
    n = len(low) if ends else 1
    size = [0] * n
    for x in range(n - 1, 0, -1):
        size[x] = 1 + size[low[x]] + size[high[x]]
    pos = [0] * n
    lo, hi, plow, phigh = [-1] * (n + 1), [-1] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    if n > 1:
        pos[1] = t = 1 + size[low[1]]
        lo[t], hi[t] = 0, n
    for x in range(1, n):
        t = pos[x]
        y = low[x]
        if y:
            pos[y] = c = lo[t] + 1 + size[low[y]]
            lo[c], hi[c], plow[t] = lo[t], t, c
        y = high[x]
        if y:
            pos[y] = c = t + 1 + size[low[y]]
            lo[c], hi[c], phigh[t] = t, hi[t], c
    return lo, hi, plow, phigh, [pos[x] for x in ends], pos[1:]


def polygon_of_cf(terms: Sequence[int]) -> TriangulatedPolygon:
    """Two-eared triangulation attached to an expansion of a value > 1
    (``kidoh_dual`` refuses any other).

    Vertex 1 is an ear and the quiddity read from it is
    (1, b_1, ..., b_r, 1, b'_s, ..., b'_1) with (b') the dual expansion:
    the value's lotus polygon labelled from (1,0).  Its terms
    [[a0+1, 2^(a1-1), a2+2, ...]] give back the Stern-Brocot runs, each
    term above 2 closing a run of 2s.  A refusal evaluates the value.
    """
    # the polygon has sum(runs) + 2 = sum(terms) - len(terms) + 3 vertices
    if not terms or min(terms) < 2 or sum(terms) - len(terms) + 3 > MAX_VERTICES:
        kidoh_dual(hj_evaluate(terms))  # refuses
    runs = [terms[0] - 1, 1]
    for b in terms[1:]:
        if b == 2:
            runs[-1] += 1
        else:
            runs += (b - 2, 1)
    lo, hi, *_ = _run_tree([runs], MAX_VERTICES)
    # position t > 0 is label m + 1 - t.  A value > 1 steps up from the base
    # petal first, so the base petal is the one petal based at (1,0)
    m = len(lo)
    return TriangulatedPolygon(
        m, frozenset((m + 1 - b, m + 1 - a) for a, b in zip(lo[1:-1], hi[1:-1]) if a))
