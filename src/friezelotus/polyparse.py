"""Exact bivariate integer polynomials: parsing and Newton support.

Grammar (whitespace ignored; ``pos`` in errors is a 0-based offset):

    expr    :=  [ '+' | '-' ]  term  { ( '+' | '-' )  term }
    term    :=  factor  { [ '*' ]  factor }
    factor  :=  INT  |  'x' [ '^' INT ]  |  'y' [ '^' INT ]  |  '(' expr ')'
    INT     :=  digit { digit }

so e.g. ``x^3 - y^2``, ``(x^2+y)*(x+y^2)`` and ``3x y^2`` all parse.  No
division, no variable exponents.  Coefficients and exponents are exact
arbitrary-precision integers.
"""

from __future__ import annotations

import sys
from math import gcd

Term = tuple[int, int]

MAX_NESTING = 100  # parenthesis depth, well under the interpreter's recursion limit


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


class Poly2:
    """Sparse polynomial: exponent pair (i, j) -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Term, int]):
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set[Term]:
        return set(self.terms)

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.terms)
        for e, c in other.terms.items():
            new = out.get(e, 0) + c
            if new:
                out[e] = new
            else:
                out.pop(e, None)
        return Poly2(out)

    def __neg__(self) -> "Poly2":
        return Poly2({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: dict[Term, int] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2)
                new = out.get(e, 0) + c1 * c2
                if new:
                    out[e] = new
                else:
                    out.pop(e, None)
        return Poly2(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly2) and self.terms == other.terms


def parse_poly(src: str) -> Poly2:
    """Parse and expand a polynomial written in the module grammar."""
    parser = _Parser(src)
    poly = parser.expr()
    parser.skip_ws()
    if parser.pos != len(src):
        raise ParseError(f"unexpected {src[parser.pos]!r}", parser.pos)
    return poly


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expr(self) -> Poly2:
        # a sum from 0: the sign before the first term is optional
        total, op = Poly2({}), self.peek()
        while True:
            if op in ("+", "-"):
                self.pos += 1
            nxt = self.term()
            total = total - nxt if op == "-" else total + nxt
            op = self.peek()
            if op not in ("+", "-"):
                return total

    def term(self) -> Poly2:
        product = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
            elif not (ch and (ch.isdecimal() or ch in "xy(")):
                return product
            product = product * self.factor()

    def factor(self) -> Poly2:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", self.pos)
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            if self.peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch.isdecimal():
            value = self._int()
            return Poly2({(0, 0): value} if value else {})
        if ch and ch in "xy":
            self.pos += 1
            e = 1
            if self.peek() == "^":
                self.pos += 1
                e = self._int()
            return Poly2({(e, 0) if ch == "x" else (0, e): 1})
        raise ParseError("expected a number, 'x', 'y' or '('", self.pos)

    def _int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            raise ParseError("expected an integer", self.pos)
        # refuse here what int() would refuse with no position
        limit = sys.get_int_max_str_digits()
        if limit and self.pos - start > limit:
            raise ParseError(f"integer longer than {limit} digits", start)
        return int(self.src[start:self.pos])


# ---------------------------------------------------------------------------
# Newton support geometry


def compact_edges(support: set[Term]) -> list[tuple[Term, Term]]:
    """Compact edges of conv(support + Z^2_{>=0}), each as an endpoint pair
    ordered by increasing first coordinate.

    The compact part of the boundary is the lower-left staircase hull of the
    support; collinear interior points are absorbed into their edge.
    """
    if not support:
        raise ValueError("support must be nonempty")
    hull: list[Term] = []
    for p in sorted(support):
        if hull and p[1] >= hull[-1][1]:
            continue  # dominated by a point to its left that is no higher
        # boundary slopes strictly increase left to right; a right turn or a
        # collinear middle point is not a hull vertex
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return [(hull[t], hull[t + 1]) for t in range(len(hull) - 1)]


def _cross(a: Term, b: Term, c: Term) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _edge_coefficients(f: Poly2, edge: tuple[Term, Term]) -> tuple[int, ...]:
    """Coefficients g of f along a compact edge of its Newton polyhedron,
    given left endpoint first: g[k] is the coefficient at left + k*sigma, for
    the primitive step sigma, and both end coefficients are nonzero."""
    (x0, y0), (x1, y1) = edge
    dx, dy = x1 - x0, y1 - y0
    steps = gcd(dx, dy)
    sx, sy = dx // steps, dy // steps
    return tuple(f.terms.get((x0 + k * sx, y0 + k * sy), 0) for k in range(steps + 1))
