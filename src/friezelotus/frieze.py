"""Positive integer friezes of finite width and their polygon bijection.

Indexing
========
Entries live on pairs of integers.  Row d of the classical offset picture
holds the values at pairs (i, i+d): row 0 is all 0, row 1 all 1, row 2 is the
quiddity row, and rows m-1 / m close the array with 1s and 0s again (m is the
period, the width is w = m - 3).  A quiddity tuple ``q`` feeds positions
0..m-1, i.e. value(i-1, i+1) = q[i % m].

Two reductions resolve every index pair into the triangular
fundamental domain {(i, j) : 0 <= i < j <= m-1}: both indices are periodic
with period m, and value(i, j) = value(j, i + m) (the glide reflection).
Together these say a value depends only on the unordered pair of residues
mod m, which is exactly how ``Frieze.entry`` normalises.

A diagonal [u, v] of the associated polygon (vertices labelled 1..m)
corresponds to the pair (u-1, v-1) here; the triangulation's diagonals are
precisely the interior pairs carrying the value 1.

Construction
============
A frieze is stored as its quiddity and the m vertices v_0, ..., v_{m-1} of
its polygon embedded from (0,1) to (1,0) by the three-term recurrence
v_{l+1} = q[l] v_l - v_{l-1} (:func:`_embed`, which ``lotus.embed_polygon``
runs too).  By Conway and Coxeter, value(i, j) is the continuant
P_{j-i-1}(q[i+1], ..., q[j-1]), and so is the determinant det(v_j, v_i):
both are 0 at j = i and 1 at j = i+1, and both run the same recurrence in
j.  An entry is therefore one 2x2 determinant, made when it is read.

The quiddities with a positive frieze are exactly those of triangulated
polygons, so validity comes from the O(m) ear cut.  Only a refused quiddity
is scanned row by row (:func:`frieze_rows`, two rows kept), so that the
refusal names the first bad diamond.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence

from .contfrac import continuant
from .polygon import TriangulatedPolygon, polygon_from_quiddity, quiddity_of

Point = tuple[int, int]

# Ceiling on a frieze's m(m-1)/2 entries, which bounds what can be asked of
# it as output; it admits polygons of up to 3 162 vertices.
MAX_FRIEZE_ENTRIES = 5_000_000


class Frieze(namedtuple("Frieze", "m quiddity entries")):
    """Width m-3 frieze; ``entries`` maps each pair of its fundamental domain
    to its value.

    Construct through :func:`frieze_from_quiddity`, which validates the
    quiddity; a ``Frieze`` value is always globally consistent.
    """

    __slots__ = ()

    @property
    def __dataclass_fields__(self):
        # lets dataclasses.replace(frieze, entries=...) build a changed copy,
        # without this module importing dataclasses at start-up
        from dataclasses import make_dataclass
        return make_dataclass("Frieze", self._fields).__dataclass_fields__

    def entry(self, i: int, j: int) -> int:
        """Value at any integer pair, via periodicity and the glide map."""
        ri, rj = i % self.m, j % self.m
        if ri == rj:
            return 0
        return self.entries[(ri, rj) if ri < rj else (rj, ri)]


class _Determinants(Mapping):
    """The fundamental domain {(i, j) : 0 <= i < j < m} of a frieze, read off
    its embedded vertices v as value(i, j) = det(v_j, v_i).  Pairs come row
    by row: all pairs (i, i+1), then all pairs (i, i+2), and so on."""

    __slots__ = ("_verts",)

    def __init__(self, verts: list[Point]):
        self._verts = verts

    def __getitem__(self, key) -> int:
        try:
            i, j = key
            if 0 <= i < j:
                (a, b), (c, d) = self._verts[j], self._verts[i]
                return a * d - b * c
        except (TypeError, ValueError, IndexError):
            pass
        raise KeyError(key)

    def __len__(self) -> int:
        m = len(self._verts)
        return m * (m - 1) // 2

    def __iter__(self) -> Iterator[tuple[int, int]]:
        m = len(self._verts)
        return ((i, i + d) for d in range(1, m) for i in range(m - d))


def frieze_from_quiddity(q: Sequence[int]) -> Frieze:
    """The frieze whose quiddity row is ``q``, refused as :func:`frieze_rows`
    refuses it: the length, positivity and size checks first, then the ear
    cut, whose refusal names the first bad diamond."""
    q = tuple(q)
    _check_shape(q)
    _check_quiddity(q)
    return Frieze(len(q), q, _Determinants(_embed(q, 0)))


def _embed(q: tuple[int, ...], k: int) -> list[Point]:
    """Vertices of the polygon of the valid quiddity ``q`` embedded from
    v1 = (0,1), v2 = (1, q[k]) by v_{l+1} = mu * v_l - v_{l-1}, with mu the
    quiddity at v_l (see ``lotus.embed_polygon``)."""
    m = len(q)
    verts: list[Point] = [(0, 1), (1, q[k % m])]
    for step in range(1, m - 1):
        mu = q[(k + step) % m]
        vl, vp = verts[-1], verts[-2]
        verts.append((mu * vl[0] - vp[0], mu * vl[1] - vp[1]))
    assert verts[-1] == (1, 0), "embedding must close at (1,0)"
    return verts


def _check_shape(q: tuple[int, ...]) -> None:
    """The refusals made before any row: length, positivity, size."""
    m = len(q)
    if m < 3:
        raise ValueError("quiddity needs length >= 3")
    for t, a in enumerate(q):
        if a < 1:
            raise ValueError(f"quiddity entry {a} at position {t} is not positive")
    size = m * (m - 1) // 2
    if size > MAX_FRIEZE_ENTRIES:
        raise ValueError(f"the frieze of a {m}-gon has {size} entries, "
                         f"over the limit of {MAX_FRIEZE_ENTRIES}")


def frieze_rows(q: tuple[int, ...]) -> None:
    """Refuse ``q`` unless it is a frieze quiddity, naming the first
    offending pair in row-major order, by building the frieze row by row
    and holding only two rows.

    Row d comes from the two rows before it by the continuant recurrence
    value(i, i+d) = q[i+d-1] * value(i, i+d-1) - value(i, i+d-2), which needs
    no divisibility test: the diamond rule gives the same numbers.  The
    input is refused if an entry of rows 2..m-2 is not positive or the
    closing row m-1 is not all 1s."""
    _check_shape(q)
    m = len(q)
    prev2, prev = [0] * m, [1] * m
    for d in range(2, m):
        row = [a * p - pp for a, p, pp in zip(q[d - 1:] + q[:d - 1], prev, prev2)]
        if d <= m - 2 and min(row) < 1:
            i = next(i for i, val in enumerate(row) if val < 1)
            raise ValueError(_bad_diamond(i, i + d, f"the non-positive entry {row[i]}"))
        prev2, prev = prev, row
    for i, val in enumerate(prev):
        if val != 1:
            raise ValueError(_bad_diamond(i, i + m - 1, f"closing value {val} instead of 1"))


def _bad_diamond(i: int, j: int, what: str) -> str:
    return (f"not a frieze quiddity: the diamond rule at ({i},{j}) produces {what}")


def frieze_of_triangulation(p: TriangulatedPolygon) -> Frieze:
    """Frieze whose quiddity is the triangle-count sequence of ``p``
    (vertex t+1 of the polygon feeds quiddity position t)."""
    return frieze_from_quiddity(quiddity_of(p))


def triangulation_of_frieze(f: Frieze) -> TriangulatedPolygon:
    """Inverse of :func:`frieze_of_triangulation`, by repeated ear cutting."""
    return polygon_from_quiddity(f.quiddity)


def complete_quiddity(prefix: Sequence[int]) -> tuple[int, ...]:
    """Extend w+1 consecutive quiddity values of a width-w frieze by the two
    remaining ones, which are the continuants of the prefix minus its last
    (respectively first) element.  An unextendable prefix is refused as
    ``embed_polygon`` refuses the completed quiddity."""
    prefix = tuple(prefix)
    if len(prefix) < 1:
        raise ValueError("prefix must contain at least one entry (width 0)")
    full = prefix + (continuant(prefix[:-1]), continuant(prefix[1:]))
    _check_quiddity(full)
    return full


def _check_quiddity(q: tuple[int, ...]) -> None:
    """Accept exactly the frieze quiddities, by the O(m) ear cut (Conway-Coxeter).
    A refused quiddity whose frieze is under the ceiling is refused with the
    message of :func:`frieze_rows`, which names the first bad diamond."""
    try:
        polygon_from_quiddity(q)
    except ValueError:
        if len(q) * (len(q) - 1) // 2 <= MAX_FRIEZE_ENTRIES:
            frieze_rows(q)
        raise
