"""Ceiling-type continued fractions, continuants, and the n/q <-> n/(n-q) duality.

A slope is a reduced fraction of nonnegative integers.  Every finite positive
slope has a unique expansion

    n/q = b1 - 1/(b2 - 1/(... - 1/br))

with all terms >= 2 when n/q > 1 (and a leading term 1 otherwise).  Expansions
are plain tuples of ints.  Evaluation goes through continuant polynomials,
which also build every frieze entry elsewhere in this package.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import gcd

# Ceiling on sizes read off an input before anything is built: a slope's
# polygon (petal count + 2) and a polynomial's compact Newton edge length.
# It is well above every benchmark size and admits the slope 100000/1.
MAX_VERTICES = 1_000_000


class Rational:
    """Reduced fraction of nonnegative integers, plus an infinity sentinel.

    ``Rational(n, q)`` requires q >= 1 and reduces.  ``Rational.infinity()``
    returns the unique infinite value (internally den == 0); the public
    constructor never accepts den == 0.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            raise ValueError("denominator must be >= 1 (write the infinite slope "
                             "as inf, or Rational.infinity())")
        if num < 0 or den < 0:
            raise ValueError("negative slopes are not supported")
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, name, value):
        raise AttributeError("Rational is immutable")

    @classmethod
    def infinity(cls) -> "Rational":
        inf = object.__new__(cls)
        object.__setattr__(inf, "num", 1)
        object.__setattr__(inf, "den", 0)
        return inf

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def is_zero(self) -> bool:
        return self.num == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rational):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"Rational({self.num}, {self.den})"

    def __str__(self) -> str:
        if self.is_infinite:
            return "inf"
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "Rational":
        """Parse 'n/q', a bare integer 'n', or 'inf'."""
        s = text.strip()
        if s in ("inf", "Inf", "INF", "oo"):
            return cls.infinity()
        num, sep, den = s.partition("/")
        try:
            num, den = int(num), int(den) if sep else 1
        except ValueError as exc:
            raise ValueError(f"not a rational: {text!r}") from exc
        return cls(num, den)


def continuant(values: Sequence[int]) -> int:
    """Determinant of the tridiagonal matrix with the given diagonal and
    unit off-diagonals: P_0 = 1, P_1(y1) = y1, P_n = yn*P_{n-1} - P_{n-2}."""
    prev, cur = 0, 1
    for y in values:
        prev, cur = cur, y * cur - prev
    return cur


def stern_brocot_runs(x: Rational) -> list[int]:
    """Quotients [a0; a1, ..., a_(2k-1)] of the regular continued fraction
    of a finite positive x, of even length (a last a > 1 becomes a - 1, 1).

    They are the run lengths of the Stern-Brocot path to x, so x has
    sum(a) petals and a polygon of sum(a) + 2 vertices; a slope past
    MAX_VERTICES is rejected here, before anything is built from it.
    """
    n, q = x.num, x.den
    runs = []
    while q:
        a, r = divmod(n, q)
        runs.append(a)
        n, q = q, r
    size = sum(runs) + 2
    if size > MAX_VERTICES:
        raise ValueError(f"the slope {x} gives a polygon of {size} vertices, "
                         f"over the limit of {MAX_VERTICES}")
    if len(runs) % 2:
        runs[-1:] = [runs[-1] - 1, 1]
    return runs


def hj_expand(x: Rational) -> tuple[int, ...]:
    """Ceiling continued-fraction expansion of a finite positive rational.

    All terms are >= 2 when x > 1; for x <= 1 only the first term may be 1.
    In the Stern-Brocot runs a of x it reads [[a0+1, 2^(a1-1), a2+2,
    2^(a3-1), ...]], 2^c standing for c terms equal to 2.
    """
    if x.is_infinite:
        raise ValueError("cannot expand the infinite slope")
    if x.is_zero:
        raise ValueError("cannot expand zero")
    runs = stern_brocot_runs(x)
    terms = []
    for t in range(0, len(runs), 2):
        terms.append(runs[t] + (2 if t else 1))
        terms += [2] * (runs[t + 1] - 1)
    return tuple(terms)


def hj_evaluate(terms: Sequence[int]) -> Rational:
    """Reduced value of an expansion, via the continuant quotient
    P_r(b1..br) / P_{r-1}(b2..br).  Numerator and denominator of that
    quotient are automatically coprime, and positive once the terms are
    checked: continuants of terms >= 2 grow with each term."""
    _check_expansion(terms)
    return Rational(continuant(terms), continuant(terms[1:]))


def _check_expansion(terms: Sequence[int]) -> None:
    if len(terms) == 0:
        raise ValueError("expansion must be nonempty")
    if terms[0] < 1 or any(b < 2 for b in terms[1:]):
        raise ValueError(f"not a valid expansion: {list(terms)}")


class KidohDual(namedtuple("KidohDual", "c d dual")):
    """Block data (c_i, d_i) linking the expansions of n/q and n/(n-q).

    With n/q = [[d1+1, 2^(c1-1), d2+2, 2^(c2-1), ..., dk+2, 2^(ck-1)]] the
    dual value n/(n-q) expands as
    [[2^(d1-1), c1+2, 2^(d2-1), c2+2, ..., 2^(dk-1), ck+1]].
    """

    __slots__ = ()


def kidoh_dual(x: Rational) -> KidohDual:
    """Dual expansion of n/(n-q) for x = n/q with n > q > 0.

    The blocks are the Stern-Brocot runs of x: d_j = a_(2j-2), c_j = a_(2j-1).
    """
    if x.is_infinite or x.is_zero:
        raise ValueError("duality needs a finite positive rational > 1")
    if x.num <= x.den:
        raise ValueError(f"duality needs n > q, got {x}")
    runs = stern_brocot_runs(x)
    c, d = tuple(runs[1::2]), tuple(runs[::2])
    dual = [t for cj, dj in zip(c, d) for t in [2] * (dj - 1) + [cj + 2]]
    dual[-1] -= 1  # the last block closes with ck + 1
    return KidohDual(c, d, tuple(dual))

