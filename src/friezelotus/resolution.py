"""Dual resolution graphs of lotuses, curve reconstruction, and Newton fans.

A lotus's lateral vertices, read from (1,0) to (0,1), give a chain graph
whose k-th vertex carries the weight -(number of petals at that vertex);
marked lateral vertices carry strict-transform arrows.  Conversely, the
pinching points of a lotus recover a binomial-product curve whose Newton fan
regenerates the lotus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Sequence

from .contfrac import Rational
from .lotus import (BASE_PETAL, Lotus, Petal, incidence_counts, lateral_boundary,
                    lotus_of_slopes, pinching_points)
from .polyparse import Poly2, Term, compact_edges, restrict_to_edge


@dataclass(frozen=True)
class ResolutionGraph:
    """Type-A chain of exceptional curves.

    ``weights``: self-intersection numbers in lateral-boundary order from
    (1,0) to (0,1); ``arrows``: 0-based positions carrying a strict-transform
    arrowhead.
    """

    weights: tuple[int, ...]
    arrows: frozenset[int] = frozenset()

    def __post_init__(self):
        if any(w > -1 for w in self.weights):
            raise ValueError("all self-intersection weights must be <= -1")
        if any(not 0 <= a < len(self.weights) for a in self.arrows):
            raise ValueError("arrow positions must index the weight chain")

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PlaneCurve:
    """Product of distinct-slope binomials x^d - y^c, gcd(d, c) = 1."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        slopes = set()
        for d, c in self.factors:
            if d < 1 or c < 1 or gcd(d, c) != 1:
                raise ValueError(f"factor exponents must be coprime positives, got {(d, c)}")
            slopes.add(Rational(d, c))
        if len(slopes) != len(self.factors):
            raise ValueError("factor slopes must be pairwise distinct")

    def polynomial(self) -> Poly2:
        prod = Poly2({(0, 0): 1})
        for d, c in self.factors:
            prod = prod * Poly2({(d, 0): 1, (0, c): -1})
        return prod

    def __str__(self) -> str:
        def binom(d: int, c: int) -> str:
            xs = f"x^{d}" if d > 1 else "x"
            ys = f"y^{c}" if c > 1 else "y"
            return f"{xs} - {ys}"

        if len(self.factors) == 1:
            return binom(*self.factors[0])
        return "".join(f"({binom(d, c)})" for d, c in self.factors)


def graph_of_lotus(l: Lotus) -> ResolutionGraph:
    """Weights -(incident petal count) at the lateral vertices, arrows at
    the marked ones.  Rejects the degenerate segment lotus."""
    if l.is_segment:
        raise ValueError("the segment lotus has no exceptional curves")
    interior = lateral_boundary(l).interior
    counts = incidence_counts(l)
    weights = tuple(-counts[pt] for pt in interior)
    arrows = frozenset(t for t, pt in enumerate(interior) if pt in l.marks)
    return ResolutionGraph(weights, arrows)


def curve_of_lotus(l: Lotus) -> PlaneCurve:
    """Curve with the fewest binomial factors whose lotus is ``l``: one
    factor x^d - y^c per pinching point (c, d)."""
    if l.is_segment:
        return PlaneCurve(((1, 1),))  # smallest smooth representative x - y
    factors = sorted(((d, c) for c, d in pinching_points(l)),
                     key=lambda f: Rational(f[0], f[1]), reverse=True)
    return PlaneCurve(tuple(factors))


def newton_fan(support: set[Term]) -> set[Rational]:
    """Slopes of the rays orthogonal to the compact Newton-polyhedron edges.

    An edge from (x0, y0) to (x1, y1) with x1 > x0 is orthogonal to the
    primitive vector (y0 - y1, x1 - x0), of slope (x1 - x0)/(y0 - y1).
    """
    if not support:
        raise ValueError("support must be nonempty")
    slopes = set()
    for (x0, y0), (x1, y1) in compact_edges(support):
        slopes.add(Rational(x1 - x0, y0 - y1))
    return slopes


def lotus_of_poly(f: Poly2) -> Lotus:
    """Marked lotus of the Newton fan of ``f``."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no lotus")
    return lotus_of_slopes(newton_fan(f.support()))


def is_newton_nondegenerate(f: Poly2) -> bool:
    """True iff every compact-edge restriction is square-free with nonzero
    constant term (so it cuts out a smooth curve off the axes)."""
    if f.is_zero:
        raise ValueError("the zero polynomial is excluded")
    for edge in compact_edges(f.support()):
        g = restrict_to_edge(f, edge)
        if g[0] == 0 or not _squarefree(g):
            return False
    return True


def _squarefree(coeffs: Sequence[int]) -> bool:
    g = [Fraction(c) for c in coeffs]
    dg = [Fraction(k * c) for k, c in enumerate(coeffs)][1:]
    return len(_poly_gcd(g, dg)) <= 1


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _trim(_poly_mod(a, b))
    return a


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    while len(r) >= len(b) and any(r):
        if r[-1] == 0:
            r.pop()
            continue
        q = r[-1] / b[-1]
        shift = len(r) - len(b)
        for k in range(len(b)):
            r[shift + k] -= q * b[k]
        r.pop()
    return r


def _trim(a: list[Fraction]) -> list[Fraction]:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def count_resolution_graphs(n: int) -> int:
    """Number of weighted type-A_n chains arising from curves, counted up to
    reversal.

    The chains are the interior quiddities of the C_n triangulations of the
    (n+2)-gon, so by Burnside there are (C_n + F_n)/2 classes, where F_n
    counts the palindromic chains.  A palindromic chain puts the apex over
    the base edge on the axis of symmetry, which needs n odd and leaves a
    free triangulation of one half: F_n = C_((n-1)/2) for odd n, 0 for
    even n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fixed = catalan((n - 1) // 2) if n % 2 else 0
    return (catalan(n) + fixed) // 2


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def partial_resolutions(l: Lotus) -> list[tuple[Lotus, ResolutionGraph]]:
    """Every stage of the blowup process: all nonempty parent-closed petal
    subsets of ``l`` (the full set included), each with its chain graph.

    Results are ordered by decreasing petal count, unmarked.
    """
    if l.is_segment:
        raise ValueError("the segment lotus has no resolutions")
    children: dict[Petal, list[Petal]] = {p: [] for p in l.petals}
    for p in l.petals:
        parent = p.parent()
        if parent is not None:
            children[parent].append(p)
    # downsets[p]: the parent-closed subsets of the subtree at p that
    # contain p; a child's apex has the larger coordinate sum, so visiting
    # petals by decreasing apex sum settles every child before its parent
    downsets: dict[Petal, list[frozenset[Petal]]] = {}
    for root in sorted(l.petals, key=lambda p: -sum(p.apex)):
        sets = [frozenset({root})]
        for ch in sorted(children[root]):
            part = [frozenset()] + downsets.pop(ch)
            sets = [s | extra for s in sets for extra in part]
        downsets[root] = sets

    out = [(sub, graph_of_lotus(sub)) for sub in map(Lotus, downsets[BASE_PETAL])]
    out.sort(key=lambda pair: (-len(pair[0].petals), pair[1].weights))
    return out
