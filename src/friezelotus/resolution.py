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
from .lotus import Lotus, lateral_boundary, lotus_of_slopes, petal_counts, pinching_points
from .polyparse import Poly2, Term, _edge_coefficients, compact_edges


class ResolutionGraph(namedtuple("ResolutionGraph", "weights arrows", defaults=(frozenset(),))):
    """Type-A chain of exceptional curves.

    ``weights``: self-intersection numbers, all <= -1, in lateral-boundary
    order from (1,0) to (0,1); ``arrows``: 0-based positions carrying a
    strict-transform arrowhead.
    """

    __slots__ = ()


class PlaneCurve(namedtuple("PlaneCurve", "factors")):
    """Product of distinct-slope binomials x^d - y^c, gcd(d, c) = 1."""

    __slots__ = ()

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
    constant term (so it cuts out a smooth curve off the axes).  The zero
    polynomial, then edges of total lattice length over MAX_VERTICES, are
    refused first."""
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
    by decreasing petal count and with no marks.

    A stage grows from a smaller one by blowing up boundary edges (u, v)
    whose petal is in ``l``, left to right, so each stage is made once,
    with its weights: a blow-up adds a -1 at u + v and lowers u and v by 1.
    A stage keeps its frontier, the edges from its last blow-up on that are
    petals of ``l``; blowing one up puts that petal's children in its place.
    Stages of over MAX_FRIEZE_ENTRIES weights in all are refused first.
    """
    if l.is_segment:
        raise ValueError("the segment lotus has no resolutions")
    petals, lo, hi, low, high = l._index
    # for the subtree at a petal, n counts its stages and w their weights;
    # a child c (slot 0 is none) multiplies the choices by 1 + n_c.  A
    # child's base is narrower, so it comes first by width.  Capping just
    # above the limit keeps the verdict.
    cap = MAX_FRIEZE_ENTRIES + 1
    n, w = [0] * len(lo), [0] * len(lo)
    for t in sorted(range(1, len(lo) - 1), key=lambda t: hi[t] - lo[t]):
        nt = wt = 1
        for c in (low[t], high[t]):
            nt, wt = min(nt * (1 + n[c]), cap), min(wt * (1 + n[c]) + nt * w[c], cap)
        n[t], w[t] = nt, wt
    root = hi.index(len(hi) - 1)  # the base petal: the first apex whose base ends at (0,1)
    if w[root] > MAX_FRIEZE_ENTRIES:
        raise ValueError(f"the partial resolutions would have over "
                         f"{MAX_FRIEZE_ENTRIES} weights in all")
    # weights run along the whole chain, (1,0) and (0,1) included.  A frontier
    # edge is (its distance from the chain's end, its petal's apex position).
    out = []
    work = [(frozenset(), (0, 0), [(2, root)])]
    while work:
        stage, weights, frontier = work.pop()
        if stage:
            out.append((Lotus(stage), ResolutionGraph(weights[1:-1])))
        for f, (r, t) in enumerate(frontier):
            k = len(weights) - r
            grown = weights[:k] + (weights[k] - 1, -1, weights[k + 1] - 1) + weights[k + 2:]
            edges = [(d, c) for d, c in ((r + 1, low[t]), (r, high[t])) if c] + frontier[f + 1:]
            work.append((stage | {petals[t]}, grown, edges))
    out.sort(key=lambda pair: (-len(pair[0].petals), pair[1].weights))
    return out
