"""Correctness oracles computed apart from the program.

Everything here is plain integer and ``fractions.Fraction`` arithmetic on
tuples: ceiling continued fractions, continuants, Stern-Brocot petal
descent, slope-ordered lotus boundaries and ear-insertion triangulations.
Nothing imports ``friezelotus``.  The ``check_*`` functions compare a
program output with these and raise :class:`CheckFailed` on a mismatch
(never ``assert``, which ``python -O`` removes).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cmp_to_key, lru_cache

E1 = (1, 0)
E2 = (0, 1)
BASE = (E1, E2)


class CheckFailed(Exception):
    """A program output disagrees with an oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# continued fractions and continuants


def ceil_cf(x: Fraction) -> tuple[int, ...]:
    """Ceiling continued fraction x = b1 - 1/(b2 - 1/(...))."""
    terms = []
    while True:
        b = math.ceil(x)
        terms.append(b)
        rest = b - x
        if rest == 0:
            return tuple(terms)
        x = 1 / rest


def cf_value(terms) -> Fraction:
    value = Fraction(terms[-1])
    for b in reversed(terms[:-1]):
        value = b - 1 / value
    return value


def cf_quiddity(n: int, q: int) -> tuple[int, ...]:
    """(1, b..., 1, reversed b'...) for n/q = [b] and n/(n-q) = [b'], n > q > 0."""
    b = ceil_cf(Fraction(n, q))
    dual = ceil_cf(Fraction(n, n - q))
    return (1,) + b + (1,) + tuple(reversed(dual))


def continuant(values) -> int:
    prev, cur = 0, 1
    for y in values:
        prev, cur = cur, y * cur - prev
    return cur


def frieze_value(q, i: int, j: int) -> int:
    """Continuant of q[i+1], ..., q[j-1] (indices mod m)."""
    m = len(q)
    return continuant(q[t % m] for t in range(i + 1, j))


def same_up_to_rotation(a, b) -> bool:
    a, b = tuple(a), tuple(b)
    if len(a) != len(b):
        return False
    doubled = b + b
    return any(doubled[t:t + len(a)] == a for t in range(len(b)))


# ---------------------------------------------------------------------------
# the petal tree, by Stern-Brocot descent


def add(u, v):
    return (u[0] + v[0], u[1] + v[1])


def petals_of_slope(n: int, q: int) -> list[tuple]:
    """Petals (u, v) met by the ray through the primitive point (q, n)."""
    g = math.gcd(n, q)
    target = (q // g, n // g)
    if target in (E1, E2):
        return []
    u, v = BASE
    out = []
    while True:
        out.append((u, v))
        apex = add(u, v)
        if apex == target:
            return out
        # compare slopes n/q and apex[1]/apex[0]
        if n * apex[0] < apex[1] * q:
            v = apex
        else:
            u = apex


def petals_of_slopes(slopes) -> frozenset:
    out = set()
    for n, q in slopes:
        out.update(petals_of_slope(n, q))
    return frozenset(out)


def parent_petal(p):
    u, v = p
    d = (v[0] - u[0], v[1] - u[1])
    if d[0] >= 0 and d[1] >= 0:
        return (u, d)
    return ((-d[0], -d[1]), v)


def _by_decreasing_slope(a, b) -> int:
    # slope y/x; (0,1) first, (1,0) last
    lhs, rhs = b[1] * a[0], a[1] * b[0]
    return (lhs > rhs) - (lhs < rhs)


def boundary_points(petals) -> list[tuple[int, int]]:
    """Lotus polygon vertices 1..m: (0,1) first, (1,0) last, by slope."""
    pts = {E1, E2}
    for u, v in petals:
        pts.update((u, v, add(u, v)))
    return sorted(pts, key=cmp_to_key(_by_decreasing_slope))


def lotus_polygon(petals) -> tuple[tuple[int, ...], frozenset]:
    """Quiddity read from vertex 1 = (0,1) and the inner diagonals."""
    pts = boundary_points(petals)
    label = {pt: t + 1 for t, pt in enumerate(pts)}
    counts = [0] * len(pts)
    edges: dict = {}
    for u, v in petals:
        tri = sorted(label[x] for x in (u, v, add(u, v)))
        for x in tri:
            counts[x - 1] += 1
        for e in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
            edges[e] = edges.get(e, 0) + 1
    diagonals = frozenset(e for e, c in edges.items() if c == 2)
    return tuple(counts), diagonals


def lotus_graph(petals, marks) -> tuple[tuple[int, ...], frozenset]:
    """Weights along the lateral boundary from (1,0) and 0-based arrows:
    the interior quiddity read from (0,1), reversed and negated."""
    pts = boundary_points(petals)
    quid, _ = lotus_polygon(petals)
    weights = tuple(-c for c in reversed(quid[1:-1]))
    interior = list(reversed(pts[1:-1]))
    arrows = frozenset(t for t, pt in enumerate(interior) if pt in marks)
    return weights, arrows


def stage_count(petals) -> int:
    """Parent-closed subsets containing the base petal: f(p) = prod(1 + f(child))."""
    f = {p: 1 for p in petals}
    # children have larger apex coordinate sums than their parent
    for p in sorted(petals, key=lambda p: -sum(add(*p))):
        if p != BASE:
            f[parent_petal(p)] *= 1 + f[p]
    return f[BASE] if petals else 0


# ---------------------------------------------------------------------------
# triangulations as label sets


def quiddity_of_diagonals(m: int, diagonals) -> tuple[int, ...]:
    """Triangles at each vertex = 1 + diagonals at that vertex."""
    counts = [1] * m
    for a, b in diagonals:
        counts[a - 1] += 1
        counts[b - 1] += 1
    return tuple(counts)


def triangles_at(diagonals, m: int, d) -> list[int]:
    """The two apexes of the triangles on diagonal d."""
    adj = {v: {v % m + 1, (v - 2) % m + 1} for v in range(1, m + 1)}
    for a, b in diagonals:
        adj[a].add(b)
        adj[b].add(a)
    i, j = d
    return sorted(adj[i] & adj[j])


def cut(m: int, diagonals, d):
    """Kept (base-edge) and dropped pieces of a cut along d = (i, j):
    (kept m, kept diagonals, dropped m, dropped diagonals), relabelled."""
    i, j = d
    kept = list(range(1, i + 1)) + list(range(j, m + 1))
    dropped = list(range(i, j + 1))

    def piece(labels):
        new = {old: t + 1 for t, old in enumerate(labels)}
        return frozenset((new[a], new[b]) for a, b in diagonals
                         if (a, b) != d and a in new and b in new)

    return len(kept), piece(kept), len(dropped), piece(dropped)


def random_triangulation(rng: random.Random, m: int) -> tuple[tuple[int, ...], frozenset]:
    """Quiddity and diagonals of a seeded triangulation of the m-gon,
    grown by inserting ears into a triangle."""
    ring = [0, 1, 2]
    chords = set()
    for new in range(3, m):
        t = rng.randrange(len(ring))
        a, b = ring[t], ring[(t + 1) % len(ring)]
        chords.add(frozenset((a, b)))
        ring.insert(t + 1, new)
    label = {v: t + 1 for t, v in enumerate(ring)}
    diagonals = frozenset(tuple(sorted(label[v] for v in c)) for c in chords)
    return quiddity_of_diagonals(m, diagonals), diagonals


@lru_cache(maxsize=None)
def chain_classes(n: int) -> int:
    """Interior quiddities of the (n+2)-gon's triangulations, counted up to
    reversal, by closing (1, 1, 1) under ear insertion."""
    level = {(1, 1, 1)}
    for _ in range(n - 1):
        grown = set()
        for q in level:
            k = len(q)
            for t in range(k):
                s = list(q)
                s[t] += 1
                s[(t + 1) % k] += 1
                grown.add(tuple(s[:t + 1] + [1] + s[t + 1:]))
        level = grown
    chains = {q[1:-1] for q in level}
    return len({min(c, c[::-1]) for c in chains})


# ---------------------------------------------------------------------------
# checks on program outputs (plain data: tuples, sets, dicts)


def check_frieze(q, entries: dict, entry, diagonals, rng: random.Random, sample: int) -> None:
    """Closing row, the 1s as the diagonals, and a sample of entries and
    diamonds against the continuants of q.  ``entry(i, j)`` is the
    program's periodic lookup; ``entries`` its fundamental domain."""
    m = len(q)
    for i in range(m):
        require(entry(i, i + 1) == 1 and entry(i, i + m - 1) == 1,
                f"frieze: boundary or closing value at {i} is not 1")
    ones = {k for k, v in entries.items() if v == 1 and k[1] - k[0] >= 2 and k != (0, m - 1)}
    require(ones == {(a - 1, b - 1) for a, b in diagonals},
            "frieze: the entries equal to 1 are not the diagonals")
    require(len(ones) == m - 3, "frieze: not m - 3 diagonal 1s")
    cells = [(i, j) for i in range(m) for j in range(i + 2, i + m - 1)]
    if len(cells) > sample:
        cells = rng.sample(cells, sample)
    for i, j in cells:
        require(entry(i, j) == frieze_value(q, i, j), f"frieze: entry ({i},{j}) is not the continuant")
        require(entry(i, j) * entry(i + 1, j + 1) - entry(i + 1, j) * entry(i, j + 1) == 1,
                f"frieze: diamond at ({i},{j}) breaks ad - bc = 1")


def check_quiddity(q, m: int, petal_count: int) -> None:
    require(len(q) == m, "quiddity: length is not m")
    require(sum(q) == 3 * m - 6, "quiddity: sum is not 3m - 6")
    require(petal_count == m - 2, "quiddity: petal count is not m - 2")


def check_cuts(m: int, diagonals, results) -> None:
    """``results``: (kept m, kept diagonals, quiddity, dropped m, dropped
    diagonals) per cut, in any order."""
    require(len(results) == m - 3, "reduction: not one cut per diagonal")
    want = []
    for d in diagonals:
        km, kd, dm, dd = cut(m, diagonals, d)
        want.append((km, quiddity_of_diagonals(km, kd), kd, dm, dd))
    got = []
    for km, kd, quid, dm, dd in results:
        require(km + dm == m + 2, "reduction: kept and dropped do not have m + 2 vertices")
        require(tuple(quid) == quiddity_of_diagonals(km, kd),
                "reduction: quiddity is not 1 + diagonals at each kept vertex")
        got.append((km, tuple(quid), frozenset(kd), dm, frozenset(dd)))
    key = lambda r: (r[0], r[1], sorted(r[2]), sorted(r[4]))  # noqa: E731
    require(sorted(got, key=key) == sorted(want, key=key),
            "reduction: the cuts are not the cuts of the diagonals")


def check_mutation(quiddity, diagonals, mutated_petals, d) -> tuple[int, int]:
    """The flip of d = (i, j) moves the quiddity by -1 at i and j and by +1
    at the two apexes, and nowhere else.  Returns the new diagonal."""
    m = len(quiddity)
    k, l = triangles_at(diagonals, m, d)
    q1, diags1 = lotus_polygon(mutated_petals)
    require(len(q1) == m, "mutation: the polygon changed size")
    delta = [b - a for a, b in zip(quiddity, q1)]
    want = [0] * m
    for v, s in ((d[0], -1), (d[1], -1), (k, 1), (l, 1)):
        want[v - 1] += s
    require(delta == want, f"mutation at {d}: quiddity change is not -1 at its ends, +1 at the apexes")
    require(diags1 == (diagonals - {tuple(d)}) | {(k, l)}, f"mutation at {d}: wrong diagonal flipped")
    return (k, l)


def frieze_entries(q) -> dict:
    """Every entry (i, i + d), 0 <= i < m, 1 <= d <= m, by running continuants."""
    m = len(q)
    out = {}
    for i in range(m):
        prev, cur = 0, 1
        for j in range(i + 1, i + m + 1):
            out[(i, j)] = cur
            prev, cur = cur, q[j % m] * cur - prev
    return out
