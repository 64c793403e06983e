"""The three workloads: seeded inputs, the timed program calls of one
operation, and the oracle checks of its output.

A workload is built from a seed and a namespace ``fl`` holding the
program's modules.  ``ops`` is the fixed list one round runs; ``warmup`` a
few small operations of the same kinds.  ``run(op)`` makes only program
calls (it is what the benchmark times); ``check(op, out, rng)`` compares
the output with the oracles and raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracle as O
from oracle import require

ROOT = Path(__file__).resolve().parent.parent
FRIEZE_SAMPLE = 120          # entries and diamonds checked per frieze
CHILD_TIMEOUT_S = 60


# ---------------------------------------------------------------------------
# seeded lotus shapes, sized by the oracle's own arithmetic


def random_lotus_slopes(rng: random.Random, m: int, leaves: int = 1,
                        stages: tuple[int, int] | None = None) -> list[tuple[int, int]]:
    """Slopes (n, q) of a random lotus whose polygon has exactly m vertices:
    ``leaves`` root-to-tip petal paths sharing m - 2 petals in all, each
    path after the first branching off the side of an earlier one.  With
    ``stages = (lo, hi)`` the later paths are twigs of one or two petals and
    the partial-resolution count is drawn into that band."""
    fresh = m - 3                               # petals beside the base one
    while True:
        if stages:
            twigs = [rng.choice((1, 2)) for _ in range(leaves - 1)]
            lengths = [fresh - sum(twigs)] + twigs
        else:
            ends = sorted(rng.sample(range(1, fresh), leaves - 1))
            lengths = [b - a for a, b in zip([0] + ends, ends + [fresh])]
        tree = {O.BASE}
        tips = []
        for t, length in enumerate(lengths):
            p = O.BASE
            if t:
                # the free child of a petal whose other child is in the tree,
                # if there is one; else extend a tip
                free = [(c, any(o in tree for o in _children(q)))
                        for q in sorted(tree) for c in _children(q) if c not in tree]
                p = rng.choice([c for c, side in free if side] or [c for c, _ in free])
                tree.add(p)
                length -= 1
            for _ in range(length):
                p = rng.choice(_children(p))
                tree.add(p)
            tips.append(O.add(*p))
        if stages is None or stages[0] <= O.stage_count(tree) <= stages[1]:
            return [(y, x) for x, y in tips]


def _children(p):
    u, v = p
    apex = O.add(u, v)
    return [(u, apex), (apex, v)]


def near_one(m: int, wide: bool) -> tuple[int, int]:
    """(k+1)/k, whose polygon has k + 3 vertices, or k/1, with k + 2."""
    return (m - 2, 1) if wide else (m - 2, m - 3)


def fibonacci_ratio(n: int) -> tuple[int, int]:
    """F(n+2)/F(n): huge coprime integers over a short chain."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a + 2 * b, a


@dataclass
class Shape:
    """Oracle view of one seeded lotus input, from its slopes (computed lazily)."""

    slopes: list
    _cache: dict = field(default_factory=dict, repr=False)

    def _fill(self):
        if not self._cache:
            petals = O.petals_of_slopes(self.slopes)
            quid, diags = O.lotus_polygon(petals)
            marks = frozenset((q // gcd(n, q), n // gcd(n, q)) for n, q in self.slopes)
            self._cache.update(petals=petals, quiddity=quid, diagonals=diags, marks=marks)
        return self._cache

    petals = property(lambda self: self._fill()["petals"])
    quiddity = property(lambda self: self._fill()["quiddity"])
    diagonals = property(lambda self: self._fill()["diagonals"])
    marks = property(lambda self: self._fill()["marks"])

    @property
    def m(self) -> int:
        return len(self.quiddity)


def petal_set(l) -> frozenset:
    return frozenset((p.u, p.v) for p in l.petals)


# ---------------------------------------------------------------------------
# correspondence


@dataclass
class CorrOp:
    kind: str
    lotus: Shape | None = None
    rationals: list = field(default_factory=list)
    quiddity: tuple = ()
    diagonals: frozenset | None = None   # None for a corrupted quiddity

    @property
    def cf_slope(self):
        """The single slope n/q > 1 that also takes the continued-fraction path."""
        if self.lotus and len(self.lotus.slopes) == 1:
            n, q = self.lotus.slopes[0]
            if n > q > 0:
                return n, q
        return None


class Correspondence:
    """Slopes -> lotus -> polygon -> quiddity -> frieze, graph, and back."""

    name = "correspondence"

    SWEEP = ((25, True), (50, False), (100, True), (200, False), (400, True), (800, False))

    def __init__(self, fl, seed: int):
        self.fl = fl
        rng = random.Random(f"correspondence/{seed}")
        specs = []
        # polygon-size sweep up to m = 800, near-1 slopes; the seed moves m by a little
        for m, wide in self.SWEEP:
            specs.append(("sweep", [near_one(m + rng.randrange(-2, 3), wide)]))
        # Fibonacci ratios F(n+2)/F(n): 57 to 184 vertices over 29- to 95-bit
        # integers; 32 of them, so that the 90th percentile falls inside this class
        for t in range(32):
            specs.append(("fibonacci", [fibonacci_ratio(40 + 3 * t + rng.randrange(0, 3))]))
        # one random slope per polygon size 5..40, twice
        for t in range(72):
            specs.append(("slope", random_lotus_slopes(rng, 5 + t % 36)))
        # products of 2..6 slopes, 10..57 vertices
        for t in range(40):
            specs.append(("product", random_lotus_slopes(rng, 10 + (t * 7) % 48, 2 + t % 5)))
        ops = [self._slope_op(kind, slopes) for kind, slopes in specs]
        # external quiddities, 6..45 vertices; every second one has an entry moved by +-1
        for t in range(60):
            quid, diags = O.random_triangulation(rng, 6 + t % 40)
            if t % 2:
                quid = list(quid)
                quid[rng.randrange(len(quid))] += rng.choice((-1, 1))
                ops.append(CorrOp("bad-quiddity", quiddity=tuple(quid)))
            else:
                ops.append(CorrOp("quiddity", quiddity=quid, diagonals=diags))
        self.warmup = [self._slope_op("slope", random_lotus_slopes(rng, 30)),
                       self._slope_op("product", random_lotus_slopes(rng, 30, 3)),
                       self._slope_op("sweep", [near_one(100, False)]),
                       ops[-2], ops[-1]]
        rng.shuffle(ops)             # no class runs as one block (see README)
        self.ops = ops

    def _slope_op(self, kind, slopes):
        R = self.fl.contfrac.Rational
        return CorrOp(kind, Shape(slopes), [R(n, q) for n, q in slopes])

    def run(self, op: CorrOp):
        fl = self.fl
        if op.lotus is None:
            try:
                f = fl.frieze.frieze_from_quiddity(op.quiddity)
            except ValueError as exc:
                f = exc
            try:
                p = fl.polygon.polygon_from_quiddity(op.quiddity)
            except ValueError as exc:
                p = exc
            return f, p
        l = fl.lotus.lotus_of_slopes(op.rationals)
        poly, verts = fl.lotus.polygon_of_lotus(l)
        quid = fl.polygon.quiddity_of(poly)
        f = fl.frieze.frieze_from_quiddity(quid)
        g = fl.resolution.graph_of_lotus(l)
        back = fl.lotus.lotus_of_polygon(fl.polygon.polygon_from_quiddity(quid), 0)
        cf = None
        if op.cf_slope:
            x = op.rationals[0]
            terms = fl.contfrac.hj_expand(x)
            cf = terms, fl.contfrac.kidoh_dual(x), fl.polygon.polygon_of_cf(terms)
        return l, poly, verts, quid, f, g, back, cf

    def check(self, op: CorrOp, out, rng: random.Random) -> None:
        if op.lotus is None:
            check_external_quiddity(op, *out, rng)
            return
        l, poly, verts, quid, f, g, back, cf = out
        want = op.lotus
        m = want.m
        require(petal_set(l) == want.petals, "lotus: petals are not the slopes' petal paths")
        require(set(l.marks) == want.marks, "lotus: marks are not the slopes' primitive points")
        require(poly.m == m and poly.diagonals == want.diagonals,
                "polygon: not the triangulation of the lotus")
        require(tuple(verts) == tuple(O.boundary_points(want.petals)),
                "polygon: vertex positions are not the lotus boundary")
        require(tuple(quid) == want.quiddity, "quiddity: not the petal counts read from (0,1)")
        O.check_quiddity(quid, m, len(l.petals))
        if op.cf_slope:
            require(O.same_up_to_rotation(quid, O.cf_quiddity(*op.cf_slope)),
                    "quiddity: lotus path disagrees with the continued fraction")
        require(tuple(f.quiddity) == want.quiddity, "frieze: wrong quiddity row")
        O.check_frieze(want.quiddity, f.entries, f.entry, want.diagonals, rng, FRIEZE_SAMPLE)
        weights, arrows = O.lotus_graph(want.petals, want.marks)
        require(tuple(g.weights) == weights, "graph: weights are not the negated interior quiddity")
        require(frozenset(g.arrows) == arrows, "graph: arrows are not at the marks")
        require(petal_set(back) == want.petals, "round trip: lotus of the quiddity has other petals")
        if cf is not None:
            terms, kd, cf_poly = cf
            n, q = op.cf_slope
            require(tuple(terms) == O.ceil_cf(Fraction(n, q)), "hj_expand: wrong expansion")
            require(tuple(kd.dual) == O.ceil_cf(Fraction(n, n - q)), "kidoh_dual: wrong dual")
            require(O.quiddity_of_diagonals(cf_poly.m, cf_poly.diagonals) == O.cf_quiddity(n, q),
                    "polygon_of_cf: quiddity is not (1, b, 1, reversed b')")


def check_external_quiddity(op: CorrOp, f, p, rng) -> None:
    q = op.quiddity
    m = len(q)
    if op.diagonals is None:
        require(sum(q) != 3 * m - 6, "input: a corrupted quiddity kept the sum 3m - 6")
        require(isinstance(f, ValueError), "frieze: accepted a quiddity that breaks 3m - 6")
        require(isinstance(p, ValueError), "polygon: accepted a quiddity that breaks 3m - 6")
        return
    require(not isinstance(f, Exception), f"frieze: rejected a valid quiddity ({f})")
    require(not isinstance(p, Exception), f"polygon: rejected a valid quiddity ({p})")
    require(tuple(f.quiddity) == q, "frieze: wrong quiddity row")
    O.check_frieze(q, f.entries, f.entry, op.diagonals, rng, FRIEZE_SAMPLE)
    require(p.m == m and p.diagonals == op.diagonals, "polygon: not the quiddity's triangulation")


# ---------------------------------------------------------------------------
# cuts


@dataclass
class CutOp:
    kind: str
    lotus: Shape
    program_lotus: object


class Cuts:
    """Reduction chain, partial resolutions and a mutation at every diagonal."""

    name = "cuts"

    # polygon sizes of one round: 70 small and 30 medium seeded shapes, whose
    # cost grows as m^3, and three large near-1 slopes the same for every seed
    SMALL = tuple(range(8, 16))
    MEDIUM = tuple(range(18, 28))
    LARGE = ((40, True), (50, False), (60, True))

    def __init__(self, fl, seed: int):
        self.fl = fl
        rng = random.Random(f"cuts/{seed}")
        sizes = [self.SMALL[t % len(self.SMALL)] for t in range(70)] + list(self.MEDIUM) * 3
        self.ops = [self._op(rng, m, t) for t, m in enumerate(sizes)]
        self.ops += [self._make([near_one(m, wide)]) for m, wide in self.LARGE]
        rng.shuffle(self.ops)
        self.warmup = [self._op(rng, 10, 0), self._op(rng, 12, 1)]

    def _op(self, rng, m, t):
        # alternately one slope and a product of 2 or 3 with 1.5m to 3m stages
        leaves = (1, 2, 1, 3)[t % 4]
        band = (3 * m // 2, 3 * m) if leaves > 1 else None
        return self._make(random_lotus_slopes(rng, m, leaves, band))

    def _make(self, slopes):
        R = self.fl.contfrac.Rational
        kind = "slope" if len(slopes) == 1 else "product"
        program_lotus = self.fl.lotus.lotus_of_slopes([R(n, q) for n, q in slopes])
        return CutOp(kind, Shape(slopes), program_lotus)

    def run(self, op: CutOp):
        fl = self.fl
        l = op.program_lotus
        chain = fl.transform.reduction_chain(l)
        stages = fl.resolution.partial_resolutions(l)
        mutated = [fl.transform.mutate_lotus(l, d) for d in sorted(op.lotus.diagonals)]
        return chain, stages, mutated

    def check(self, op: CutOp, out, rng: random.Random) -> None:
        chain, stages, mutated = out
        want = op.lotus
        m = want.m
        O.check_cuts(m, want.diagonals,
                     [(r.polygon.m, r.polygon.diagonals, r.quiddity, r.dropped.m, r.dropped.diagonals)
                      for r in chain])
        check_stages(want, stages, rng)
        diagonals = sorted(want.diagonals)
        require(len(mutated) == len(diagonals), "mutation: not one result per diagonal")
        flipped = [O.check_mutation(want.quiddity, want.diagonals, petal_set(mu), d)
                   for d, mu in zip(diagonals, mutated)]
        # flipping back, on one seeded diagonal, returns the original lotus (untimed)
        if diagonals:
            t = rng.randrange(len(diagonals))
            back = self.fl.transform.mutate_lotus(mutated[t], flipped[t])
            require(petal_set(back) == want.petals, "mutation: flipping back does not restore the lotus")


def check_stages(want: Shape, stages, rng: random.Random) -> None:
    require(len(stages) == O.stage_count(want.petals),
            "partial resolutions: stage count is not prod(1 + f(child))")
    seen = set()
    for sub, _ in stages:
        petals = petal_set(sub)
        require(petals <= want.petals and O.BASE in petals, "partial resolutions: stage is not a sublotus")
        require(all(p == O.BASE or O.parent_petal(p) in petals for p in petals),
                "partial resolutions: stage is not parent-closed")
        seen.add(petals)
    require(len(seen) == len(stages), "partial resolutions: a stage is repeated")
    require(petal_set(stages[0][0]) == want.petals, "partial resolutions: the full lotus is not first")
    for sub, g in rng.sample(stages, min(3, len(stages))):
        weights, _ = O.lotus_graph(petal_set(sub), frozenset())
        require(tuple(g.weights) == weights, "partial resolutions: stage graph has wrong weights")


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliOp:
    kind: str
    argv: list
    lotus: Shape | None = None
    data: dict = field(default_factory=dict)
    pipe: list | None = None      # second command reading the first one's stdout


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


# the CLI is started as `python -S -m friezelotus`: -S skips site-packages
# and its .pth files, which the program does not need (see README)
CHILD = [sys.executable, "-S", "-m", "friezelotus"]


def slopes_arg(slopes) -> str:
    return ",".join(f"{n}/{q}" for n, q in slopes)


def poly_arg(rng, slopes) -> str:
    # x^d -+ y^c has Newton slope d/c; the lotus point of slope d/c is (c, d)
    return "*".join(f"(x^{n}{rng.choice('+-')}y^{q})" for n, q in slopes)


class Cli:
    """Fresh `friezelotus` processes over every subcommand."""

    name = "cli"

    def __init__(self, fl, seed: int):
        self.fl = fl                 # only used in process when traced
        self.inprocess = False
        self.env = child_env()
        rng = random.Random(f"cli/{seed}")
        self.ops = [op for _ in range(3) for op in self._ops(rng)]
        rng.shuffle(self.ops)
        self.warmup = [next(op for op in self.ops if op.kind == kind) for kind in ("hj", "count")]

    def _ops(self, rng):
        ops = []

        def small(m, leaves=1):
            return Shape(random_lotus_slopes(rng, m, leaves))

        def above_one(m):
            while True:
                l = small(m)
                n, q = l.slopes[0]
                if n > q:
                    return l

        for m in (8, 14, 24):
            l = above_one(m)
            ops.append(CliOp("hj", ["hj", slopes_arg(l.slopes)], l))
        for m, fmt in ((180, "text"), (180, "json")):
            l = Shape([near_one(m + rng.randrange(-3, 4), rng.random() < 0.5)])
            argv = ["frieze", "--rational", slopes_arg(l.slopes)] + (["--json"] if fmt == "json" else [])
            ops.append(CliOp("frieze-cf-" + fmt, argv, l))
        for t, fmt in enumerate(("text", "json")):
            quid, _ = O.random_triangulation(rng, 8 + 4 * t + rng.randrange(3))
            argv = ["frieze", "--quiddity", ",".join(map(str, quid))] + (["--json"] if fmt == "json" else [])
            ops.append(CliOp("frieze-q-" + fmt, argv, data={"quiddity": quid}))
        for m in (9, 15):
            quid, _ = O.random_triangulation(rng, m)
            k = rng.randrange(m)
            ops.append(CliOp("embed", ["embed", "--quiddity", ",".join(map(str, quid)), "-k", str(k)],
                             data={"quiddity": quid, "k": k}))
        l = small(14, 3)
        ops.append(CliOp("lotus-text", ["lotus", "--slopes", slopes_arg(l.slopes)], l))
        l = small(18)
        ops.append(CliOp("lotus-json", ["lotus", "--rational", slopes_arg(l.slopes), "--json"], l))
        l = small(12, 2)
        ops.append(CliOp("lotus-text", ["lotus", "--poly", poly_arg(rng, l.slopes)], l))
        l = small(16)
        ops.append(CliOp("graph", ["graph", "--rational", slopes_arg(l.slopes)], l))
        l = small(13, 2)
        ops.append(CliOp("graph", ["graph", "--poly", poly_arg(rng, l.slopes)], l))
        for m, leaves in ((12, 1), (16, 2)):
            l = small(m, leaves)
            d = rng.choice(sorted(l.diagonals))
            src = ["--rational", slopes_arg(l.slopes)] if leaves == 1 else ["--slopes", slopes_arg(l.slopes)]
            ops.append(CliOp("reduce", ["reduce", *src, "--diagonal", f"{d[0]},{d[1]}"], l, {"d": d}))
        for m, leaves in ((14, 3), (11, 2)):
            l = small(m, leaves)
            d = rng.choice(sorted(l.diagonals))
            src = ["--slopes", slopes_arg(l.slopes)] if m == 14 else ["--poly", poly_arg(rng, l.slopes)]
            ops.append(CliOp("mutate", ["mutate", *src, "--diagonal", f"{d[0]},{d[1]}"], l, {"d": d}))
        l = small(20)
        ops.append(CliOp("partials", ["partials", "--rational", slopes_arg(l.slopes)], l))
        l = Shape(random_lotus_slopes(rng, 12, 2, (12, 40)))
        ops.append(CliOp("partials", ["partials", "--slopes", slopes_arg(l.slopes)], l))
        for n in sorted(rng.sample(range(1, 11), 2)):
            ops.append(CliOp("count", ["count", str(n)], data={"n": n}))
        l = Shape([near_one(200 + rng.randrange(-3, 4), rng.random() < 0.5)])
        ops.append(CliOp("svg", ["render", "--rational", slopes_arg(l.slopes), "--format", "svg"], l))
        l = small(10, 2)
        ops.append(CliOp("svg", ["render", "--slopes", slopes_arg(l.slopes), "--format", "svg",
                                 "--grid", "--weights"], l))
        l = small(15)
        ops.append(CliOp("dot", ["render", "--rational", slopes_arg(l.slopes), "--format", "dot"], l))
        l = Shape([near_one(140 + rng.randrange(-3, 4), rng.random() < 0.5)])
        ops.append(CliOp("frieze-cf-text", ["render", "--rational", slopes_arg(l.slopes),
                                            "--format", "text"], l))
        for m, leaves in ((10, 1), (17, 2)):
            l = small(m, leaves)
            ops.append(CliOp("graph", ["lotus", "--slopes", slopes_arg(l.slopes), "--json"], l,
                             pipe=["graph", "--stdin"]))
        # invalid inputs: exit 1 with one `error:` line, or a usage error (exit 2)
        quid, _ = O.random_triangulation(rng, 9)
        quid = list(quid)
        quid[rng.randrange(9)] += 1
        ops.append(CliOp("error", ["frieze", "--quiddity", ",".join(map(str, quid))]))
        l = small(10)
        a = rng.randrange(1, 10)
        ops.append(CliOp("error", ["reduce", "--rational", slopes_arg(l.slopes), "--diagonal", f"{a},{a + 1}"]))
        ops.append(CliOp("error", ["hj", f"0/{rng.randrange(1, 9)}"]))
        ops.append(CliOp("error", ["count", str(-rng.randrange(0, 3))]))
        ops.append(CliOp("usage", ["mutate", "--rational", slopes_arg(l.slopes)]))
        ops.append(CliOp("usage", ["flip", "--rational", slopes_arg(l.slopes)]))
        return ops

    # -- running ------------------------------------------------------------

    def run(self, op: CliOp):
        if self.inprocess:
            return self._run_inprocess(op)
        if op.pipe is None:
            r = subprocess.run(CHILD + op.argv, capture_output=True, env=self.env, cwd=ROOT,
                               timeout=CHILD_TIMEOUT_S)
            return r.returncode, r.stdout.decode(), r.stderr.decode()
        first = subprocess.Popen(CHILD + op.argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 env=self.env, cwd=ROOT)
        try:
            second = subprocess.run(CHILD + op.pipe, stdin=first.stdout, capture_output=True,
                                    env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        finally:
            first.stdout.close()
            first_err = first.stderr.read()
            first.stderr.close()
            first.wait(timeout=CHILD_TIMEOUT_S)
        if first.returncode != 0:
            return first.returncode, "", first_err.decode()
        return second.returncode, second.stdout.decode(), first_err.decode() + second.stderr.decode()

    def _run_inprocess(self, op: CliOp):
        run = self.fl.cli.run
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, text = run(op.argv)
            if op.pipe is not None and code == 0:
                code, text = run(op.pipe, stdin_text=text)
        return code, text, err.getvalue()

    # -- checking -----------------------------------------------------------

    def check(self, op: CliOp, out, rng: random.Random) -> None:
        code, text, err = out
        if op.kind == "error":
            require(code == 1 and text == "", f"{op.argv[0]}: invalid input did not exit 1")
            lines = err.splitlines()
            require(len(lines) == 1 and lines[0].startswith("error: "),
                    f"{op.argv[0]}: exit 1 without exactly one `error:` line")
            return
        if op.kind == "usage":
            lines = err.splitlines()
            require(code == 2 and text == "", f"{op.argv[0]}: usage error did not exit 2")
            require(bool(lines) and ": error: " in lines[-1] and "Traceback" not in err,
                    f"{op.argv[0]}: usage error without a closing `error:` line")
            return
        require(code == 0 and err == "", f"{op.argv[0]}: exit {code}, stderr {err[-200:]!r}")
        CHECKS[op.kind](op, text, rng)


def _check_hj(op, text, rng):
    n, q = op.lotus.slopes[0]
    lines = text.splitlines()
    require(len(lines) == 2 and lines[1].startswith("dual "), "hj: expected an expansion and its dual")
    require(O.cf_value(_bracket(lines[0])) == Fraction(n, q), "hj: expansion does not evaluate to n/q")
    require(O.cf_value(_bracket(lines[1][5:])) == Fraction(n, n - q), "hj: dual does not evaluate to n/(n-q)")


def _bracket(s):
    require(s.startswith("[") and s.endswith("]"), f"hj: not a bracketed expansion: {s!r}")
    return [int(t) for t in s[1:-1].split(",")]


def _cf_or_given_quiddity(op):
    if "quiddity" in op.data:
        return tuple(op.data["quiddity"])
    return O.cf_quiddity(*op.lotus.slopes[0])


def _check_frieze_text(op, text, rng):
    q = _cf_or_given_quiddity(op)
    m = len(q)
    rows = [[int(t) for t in line.split()] for line in text.splitlines()]
    require(len(rows) == m + 1, "frieze text: not m + 1 rows")
    entries = O.frieze_entries(q)
    for d, row in enumerate(rows):
        want = [0 if d == 0 else entries[(i, i + d)] for i in range(m)]
        require(row == want, f"frieze text: row {d} is not the continuants")


def _check_frieze_json(op, text, rng):
    q = _cf_or_given_quiddity(op)
    doc = json.loads(text)
    require(doc["m"] == len(q) and tuple(doc["quiddity"]) == q, "frieze json: wrong m or quiddity")
    entries = O.frieze_entries(q)
    got = {tuple(map(int, k.split(","))): v for k, v in doc["entries"].items()}
    m = len(q)
    require(got == {(i, j): entries[(i, j)] for i in range(m) for j in range(i + 1, m)},
            "frieze json: entries are not the continuants")


def _check_embed(op, text, rng):
    q, k = op.data["quiddity"], op.data["k"]
    m = len(q)
    verts = [(0, 1), (1, q[k])]
    for step in range(1, m - 1):
        mu = q[(k + step) % m]
        verts.append((mu * verts[-1][0] - verts[-2][0], mu * verts[-1][1] - verts[-2][1]))
    got = [tuple(map(int, pt.split(","))) for pt in re.findall(r"\((-?\d+,-?\d+)\)", text)]
    require(got == verts and verts[-1] == O.E1, "embed: vertices are not the three-term recurrence")


_PETAL_LINE = re.compile(r"^  \((\d+), (\d+)\) \((\d+), (\d+)\) apex")


def _text_petals(text):
    out = set()
    for line in text.splitlines():
        mt = _PETAL_LINE.match(line)
        if mt:
            a, b, c, d = map(int, mt.groups())
            out.add(((a, b), (c, d)))
    return frozenset(out)


def _check_lotus_text(op, text, rng):
    want = op.lotus
    lines = text.splitlines()
    require(lines[0] == f"petals {len(want.petals)}", "lotus: wrong petal count")
    require(_text_petals(text) == want.petals, "lotus: petals are not the slopes' petal paths")


def _check_lotus_json(op, text, rng):
    doc = json.loads(text)
    petals = frozenset((tuple(u), tuple(v)) for u, v in doc["petals"])
    require(petals == op.lotus.petals, "lotus json: petals are not the slopes' petal paths")
    require({tuple(pt) for pt in doc["marks"]} == op.lotus.marks, "lotus json: wrong marks")


def _check_graph(op, text, rng):
    weights, arrows = O.lotus_graph(op.lotus.petals, op.lotus.marks)
    lines = text.splitlines()
    require(tuple(int(w) for w in lines[0].split()) == weights, "graph: wrong weights")
    require(lines[1:] == [f"arrow {a + 1}" for a in sorted(arrows)], "graph: wrong arrows")


def _check_reduce(op, text, rng):
    want = op.lotus
    km, kd, dm, _ = O.cut(want.m, want.diagonals, op.data["d"])
    quid = ",".join(map(str, O.quiddity_of_diagonals(km, kd)))
    require(km + dm == want.m + 2, "reduce: pieces do not have m + 2 vertices")
    require(text == f"quiddity {quid}\nkept {km}-gon, dropped {dm}-gon\n", "reduce: wrong cut")


def _check_mutate(op, text, rng):
    want = op.lotus
    O.check_mutation(want.quiddity, want.diagonals, _text_petals(text), op.data["d"])


def _check_partials(op, text, rng):
    want = op.lotus
    lines = text.splitlines()
    require(len(lines) == O.stage_count(want.petals), "partials: stage count is not prod(1 + f(child))")
    weights, _ = O.lotus_graph(want.petals, frozenset())
    require(tuple(int(w) for w in lines[0].split()) == weights, "partials: first stage is not the lotus")
    require(all(int(w) <= -1 for line in lines for w in line.split()), "partials: a weight above -1")


def _check_count(op, text, rng):
    require(text == f"{O.chain_classes(op.data['n'])}\n", "count: not the chains up to reversal")


def _check_svg(op, text, rng):
    root = ET.fromstring(text.encode())
    ns = "{http://www.w3.org/2000/svg}"
    require(len(root.findall(f"{ns}polygon")) == len(op.lotus.petals), "svg: not one polygon per petal")
    require(len(root.findall(f"{ns}circle")) == len(op.lotus.marks), "svg: not one circle per mark")


def _check_dot(op, text, rng):
    weights, arrows = O.lotus_graph(op.lotus.petals, op.lotus.marks)
    labels = tuple(int(w) for w in re.findall(r'^  E\d+ \[label="(-?\d+)"\];$', text, re.M))
    require(text.startswith("graph resolution {") and labels == weights, "dot: wrong node weights")
    require(len(re.findall(r"\[dir=forward\]", text)) == len(arrows), "dot: wrong arrows")


CHECKS = {
    "hj": _check_hj, "frieze-cf-text": _check_frieze_text, "frieze-q-text": _check_frieze_text,
    "frieze-cf-json": _check_frieze_json, "frieze-q-json": _check_frieze_json,
    "embed": _check_embed, "lotus-text": _check_lotus_text, "lotus-json": _check_lotus_json,
    "graph": _check_graph, "reduce": _check_reduce, "mutate": _check_mutate,
    "partials": _check_partials, "count": _check_count, "svg": _check_svg, "dot": _check_dot,
}

WORKLOADS = {w.name: w for w in (Correspondence, Cuts, Cli)}
