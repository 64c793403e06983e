"""Positive integer friezes of finite width and their polygon bijection.

Indexing
========
Entries live on pairs of integers.  Row d of the classical offset picture
holds the values at pairs (i, i+d): row 0 is all 0, row 1 all 1, row 2 is the
quiddity row, and rows m-1 / m close the array with 1s and 0s again (m is the
period, the width is w = m - 3).  A quiddity tuple ``q`` feeds positions
0..m-1, i.e. value(i-1, i+1) = q[i % m].

Two reductions resolve every index pair into the stored triangular
fundamental domain {(i, j) : 0 <= i < j <= m-1}: both indices are periodic
with period m, and value(i, j) = value(j, i + m) (the glide reflection).
Together these say a value depends only on the unordered pair of residues
mod m, which is exactly how ``Frieze.entry`` normalises.

A diagonal [u, v] of the associated polygon (vertices labelled 1..m)
corresponds to the pair (u-1, v-1) here; the triangulation's diagonals are
precisely the interior pairs carrying the value 1.

Construction
============
By Conway and Coxeter, value(i, j) is the continuant P_{j-i-1}(q[i+1], ...,
q[j-1]), so each row follows from the two before it with no division.  The
diamond rule (value(i,j-1) value(i+1,j) - 1) / value(i+1,j-1) gives the same
numbers, since continuants satisfy its unimodular form identically and its
denominator is an earlier entry already checked positive; so a divisibility
test could never fail, and none is made.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import chain

from .contfrac import continuant
from .polygon import TriangulatedPolygon, polygon_from_quiddity, quiddity_of

# Ceiling on a frieze's m(m-1)/2 stored entries, checked before any row is
# built; it admits polygons of up to 3 162 vertices.
MAX_FRIEZE_ENTRIES = 5_000_000


class Frieze(namedtuple("Frieze", "m quiddity entries")):
    """Width m-3 frieze stored as its fundamental domain.

    Construct through :func:`frieze_from_quiddity`, which validates every
    row eagerly; a ``Frieze`` value is always globally consistent.
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


def frieze_from_quiddity(q: Sequence[int]) -> Frieze:
    """Build the frieze whose quiddity row is ``q`` from :func:`frieze_rows`."""
    q = tuple(q)
    return Frieze(len(q), q, dict(chain.from_iterable(frieze_rows(q))))


def frieze_rows(q: tuple[int, ...]) -> Iterator[Iterator[tuple[tuple[int, int], int]]]:
    """Validate the frieze of ``q`` row by row, holding only two rows, and
    yield the ((i, i+d), value) entries of each row d = 1..m-1 in turn.

    Row d comes from the two rows before it by the continuant recurrence
    value(i, i+d) = q[i+d-1] * value(i, i+d-1) - value(i, i+d-2), which needs
    no divisibility test (see the module docstring).  The input is rejected,
    naming the first offending pair in row-major order, if an entry of rows
    2..m-2 is not positive or the closing row m-1 is not all 1s."""
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
    labels = list(range(m))  # one int object per index, shared by all keys
    prev2, prev = [0] * m, [1] * m
    yield zip(zip(labels, labels[1:]), prev)
    for d in range(2, m):
        row = [a * p - pp for a, p, pp in zip(q[d - 1:] + q[:d - 1], prev, prev2)]
        if d <= m - 2 and min(row) < 1:
            i = next(i for i, val in enumerate(row) if val < 1)
            raise ValueError(_bad_diamond(i, i + d, f"the non-positive entry {row[i]}"))
        yield zip(zip(labels, labels[d:]), row)
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
    (respectively first) element."""
    prefix = tuple(prefix)
    if len(prefix) < 1:
        raise ValueError("prefix must contain at least one entry (width 0)")
    full = prefix + (continuant(prefix[:-1]), continuant(prefix[1:]))
    polygon_from_quiddity(full)  # reject unextendable prefixes
    return full

