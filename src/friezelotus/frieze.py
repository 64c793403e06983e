"""Positive integer friezes of finite width and their polygon bijection.

Indexing
========
Entries live on pairs of integers.  Row d of the classical offset picture
holds the values at pairs (i, i+d): row 0 is all 0, row 1 all 1, row 2 is the
quiddity row, and rows m-1 / m close the array with 1s and 0s again (m is the
period, the width is w = m - 3).  A quiddity tuple ``q`` feeds positions
0..m-1, i.e. value(i-1, i+1) = q[i % m].

Two reductions resolve every index pair into the fundamental domain
{(i, j) : 0 <= i < j <= m-1}: both indices have period m, and value(i, j) =
value(j, i + m) (the glide reflection), so a value depends only on the
unordered pair of residues mod m, which is how ``Frieze.entry`` normalises.

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
polygons, so :func:`_check_quiddity`, the O(m) ear cut, is the one gate that
every quiddity passes.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping, Sequence

from .polygon import TriangulatedPolygon, polygon_from_quiddity

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
    """The frieze of quiddity row ``q``, refused by :func:`_check_quiddity`,
    then against the ceiling."""
    q = tuple(q)
    _check_quiddity(q)
    m = len(q)
    if m * (m - 1) // 2 > MAX_FRIEZE_ENTRIES:
        raise ValueError(f"the frieze of a {m}-gon has {m * (m - 1) // 2} entries, "
                         f"over the limit of {MAX_FRIEZE_ENTRIES}")
    return Frieze(m, q, _Determinants(_embed(q, 0)))


def _embed(q: tuple[int, ...], k: int) -> list[Point]:
    """Vertices of the polygon of the valid quiddity ``q`` embedded from
    v1 = (0,1), v2 = (1, q[k]) by v_{l+1} = mu * v_l - v_{l-1}, with mu the
    quiddity at v_l (see ``lotus.embed_polygon``)."""
    m, k = len(q), k % len(q)
    vp, vl = (0, 1), (1, q[k])
    verts: list[Point] = [vp, vl]
    for mu in (q[k + 1:] + q[:k])[:m - 2]:
        vp, vl = vl, (mu * vl[0] - vp[0], mu * vl[1] - vp[1])
        verts.append(vl)
    assert vl == (1, 0), "embedding must close at (1,0)"
    return verts


def _check_quiddity(q: tuple[int, ...]) -> TriangulatedPolygon:
    """The triangulation of ``q`` by the O(m) ear cut, which accepts exactly
    the frieze quiddities (Conway-Coxeter).  A refusal of the length, of a
    non-positive entry or past the frieze ceiling stands.  Any other names
    the first bad pair in row-major order, reading the rows of :func:`_rows`,
    which give the diamond rule's numbers with no division: rows 2..m-2 must
    be positive and row m-1 all 1s."""
    try:
        return polygon_from_quiddity(q)
    except ValueError:
        m = len(q)
        if m < 3 or min(q) < 1 or m * (m - 1) // 2 > MAX_FRIEZE_ENTRIES:
            raise
        bad = "not a frieze quiddity: the diamond rule at ({},{}) produces {}"
        for d, row in enumerate(_rows(q)):
            if d == m - 1:
                for i, val in enumerate(row):
                    if val != 1:
                        raise ValueError(bad.format(i, i + d, f"closing value {val} instead of 1"))
                raise
            if d >= 2 and min(row) < 1:
                i = next(i for i, val in enumerate(row) if val < 1)
                raise ValueError(bad.format(i, i + d, f"the non-positive entry {row[i]}"))


def _rows(q: tuple[int, ...]) -> Iterator[list[int]]:
    """Rows 0, 1, ..., m of the frieze of ``q``, row d holding the values at
    (i, i+d) for i = 0 .. m-1, each from the two before it by the continuant
    recurrence value(i, i+d) = q[i+d-1] value(i, i+d-1) - value(i, i+d-2):
    one small-by-large product per value, and no division, so it runs on any
    ``q``."""
    m = len(q)
    prev2, prev = [0] * m, [1] * m
    yield prev2
    yield prev
    for d in range(2, m + 1):
        prev2, prev = prev, [a * p - pp for a, p, pp in zip(q[d - 1:] + q[:d - 1], prev, prev2)]
        yield prev
