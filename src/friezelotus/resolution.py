"""Dual resolution graphs of lotuses, curve reconstruction, and Newton fans.

A lotus's lateral vertices, read from (1,0) to (0,1), give a chain graph
whose k-th vertex carries the weight -(number of petals at that vertex);
marked lateral vertices carry strict-transform arrows.  Conversely, the
pinching points of a lotus recover a binomial-product curve whose Newton fan
regenerates the lotus.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from math import comb, gcd

from .contfrac import MAX_VERTICES, Rational
from .frieze import MAX_FRIEZE_ENTRIES
from .lotus import (BASE_PETAL, E1, E2, Lotus, _lotus, _petal, lateral_boundary,
                    lotus_of_slopes, petal_counts, pinching_points)
from .polyparse import Poly2, Term, _edge_coefficients, compact_edges


class ResolutionGraph(namedtuple("ResolutionGraph", "weights arrows")):
    """Type-A chain of exceptional curves.

    ``weights``: self-intersection numbers in lateral-boundary order from
    (1,0) to (0,1); ``arrows``: 0-based positions carrying a strict-transform
    arrowhead.
    """

    __slots__ = ()

    def __new__(cls, weights: tuple[int, ...], arrows: frozenset[int] = frozenset()):
        if any(w > -1 for w in weights):
            raise ValueError("all self-intersection weights must be <= -1")
        if any(not 0 <= a < len(weights) for a in arrows):
            raise ValueError("arrow positions must index the weight chain")
        return super().__new__(cls, weights, arrows)


class PlaneCurve(namedtuple("PlaneCurve", "factors")):
    """Product of distinct-slope binomials x^d - y^c, gcd(d, c) = 1."""

    __slots__ = ()

    def __new__(cls, factors: tuple[tuple[int, int], ...]):
        slopes = set()
        for d, c in factors:
            if d < 1 or c < 1 or gcd(d, c) != 1:
                raise ValueError(f"factor exponents must be coprime positives, got {(d, c)}")
            slopes.add(Rational(d, c))
        if len(slopes) != len(factors):
            raise ValueError("factor slopes must be pairwise distinct")
        return super().__new__(cls, factors)

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
    chain = lateral_boundary(l)
    weights = tuple(-c for c in petal_counts(chain))
    arrows = frozenset(t for t, pt in enumerate(chain[1:-1]) if pt in l.marks)
    return ResolutionGraph(weights, arrows)


def curve_of_lotus(l: Lotus) -> PlaneCurve:
    """Curve with the fewest binomial factors whose lotus is ``l``: one
    factor x^d - y^c per pinching point (c, d), by decreasing slope d/c.
    The segment has none: its curve is the empty product 1."""
    return PlaneCurve(tuple((d, c) for c, d in reversed(pinching_points(l))))


def newton_fan(support: set[Term]) -> set[Rational]:
    """Slopes of the rays orthogonal to the compact Newton-polyhedron edges.

    An edge from (x0, y0) to (x1, y1) with x1 > x0 is orthogonal to the
    primitive vector (y0 - y1, x1 - x0), of slope (x1 - x0)/(y0 - y1).
    """
    return {Rational(x1 - x0, y0 - y1) for (x0, y0), (x1, y1) in compact_edges(support)}


def lotus_of_poly(f: Poly2) -> Lotus:
    """Marked lotus of the Newton fan of ``f``."""
    if f.is_zero:
        raise ValueError("the zero polynomial has no lotus")
    return lotus_of_slopes(newton_fan(f.support()))


def is_newton_nondegenerate(f: Poly2) -> bool:
    """True iff every compact-edge restriction is square-free with nonzero
    constant term (so it cuts out a smooth curve off the axes).  Edges of
    total lattice length over MAX_VERTICES are refused first."""
    if f.is_zero:
        raise ValueError("the zero polynomial is excluded")
    edges = compact_edges(f.support())
    length = sum(gcd(x1 - x0, y0 - y1) for (x0, y0), (x1, y1) in edges)
    if length > MAX_VERTICES:
        raise ValueError(f"the compact Newton edges have lattice length {length}, "
                         f"over the limit of {MAX_VERTICES}")
    for edge in edges:
        g = _edge_coefficients(f, edge)
        if g[0] == 0 or not _squarefree(g):
            return False
    return True


def _squarefree(coeffs: Sequence[int]) -> bool:
    """True iff the polynomial with these coefficients (constant term first)
    is coprime to its derivative, by a gcd over the integers through
    primitive pseudo-remainders (constant iff the gcd over Q is)."""
    a = _primitive(coeffs)
    b = _primitive([k * c for k, c in enumerate(coeffs)][1:])
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return len(a) <= 1


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """Remainder of lc(b)^(deg a - deg b + 1) * a on division by b.  A step
    costs O(deg b): lower coefficients take their powers of lc(b) late."""
    r = list(a)
    lead, d = b[-1], len(b) - 1
    power = 1
    for lo in range(len(r) - 1 - d, -1, -1):
        top = r.pop()
        for k in range(d):
            r[lo + k] = lead * r[lo + k] - top * b[k]
        power *= lead
        if lo:
            r[lo - 1] *= power
    return r


def _primitive(p: Sequence[int]) -> list[int]:
    """``p`` without leading zeros, divided by the gcd of its coefficients."""
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    g = gcd(*out)
    return [c // g for c in out] if g else out


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
    subsets of ``l`` (the full set included), each with its chain graph,
    by decreasing petal count and unmarked.

    A stage grows from a smaller one by blowing up boundary edges (u, v)
    whose petal is in ``l``, left to right, so each stage is made once.
    Stages of over MAX_FRIEZE_ENTRIES weights in all are refused first.
    """
    if l.is_segment:
        raise ValueError("the segment lotus has no resolutions")
    # for the subtree at a petal, n counts its stages and w their weights;
    # a child c multiplies the choices by 1 + n_c.  A child's apex has the
    # larger coordinate sum, so petals taken by decreasing apex sum meet
    # every child first.  Capping just above the limit keeps the verdict.
    cap = MAX_FRIEZE_ENTRIES + 1
    sizes = {}
    for p in sorted(l.petals, key=lambda p: -sum(p.apex)):
        n = w = 1
        for ch in p.children():
            if ch in sizes:
                nc, wc = sizes.pop(ch)
                n, w = min(n * (1 + nc), cap), min(w * (1 + nc) + n * wc, cap)
        sizes[p] = n, w
    if sizes[BASE_PETAL][1] > MAX_FRIEZE_ENTRIES:
        raise ValueError(f"the partial resolutions would have over "
                         f"{MAX_FRIEZE_ENTRIES} weights in all")
    out = []
    work = [(frozenset(), [E1, E2], 0)]
    while work:
        petals, chain, start = work.pop()
        if petals:
            weights = tuple(-c for c in petal_counts(chain))
            out.append((_lotus(petals), ResolutionGraph(weights)))
        for k in range(start, len(chain) - 1):
            p = _petal(chain[k], chain[k + 1])
            if p in l.petals:
                work.append((petals | {p}, chain[:k + 1] + [p.apex] + chain[k + 1:], k))
    out.sort(key=lambda pair: (-len(pair[0].petals), pair[1].weights))
    return out
