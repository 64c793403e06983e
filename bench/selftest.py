"""Oracle self-test: every check must reject a deliberately corrupted output.

Each case takes a genuine program output on a small input, confirms the
workload's check accepts it, then corrupts one thing (a frieze entry, the
quiddity's rotation, a dropped stage, an extra stderr line, ...) and
confirms the check raises.  A check that never fires would otherwise pass
unnoticed.  Run alone with ``python3 bench/run.py --selftest``.
"""

from __future__ import annotations

import dataclasses
import json
import random
from types import SimpleNamespace as NS

import oracle as O
from workloads import Cli, CorrOp, Correspondence, Cuts, CutOp, Shape


def _drop_leaf(l):
    """The lotus without one petal that has no child in it (never the base)."""
    petals = {(p.u, p.v): p for p in l.petals}
    parents = {O.parent_petal(k) for k in petals if k != O.BASE}
    leaf = max(k for k in petals if k not in parents and k != O.BASE)
    return NS(petals=frozenset(p for k, p in petals.items() if k != leaf), marks=l.marks)


def _other_diagonals(poly):
    (a, b), *rest = sorted(poly.diagonals)
    moved = (a, b + 1) if b < poly.m and (a, b + 1) != (1, poly.m) else (a, b - 1)
    return NS(m=poly.m, diagonals=frozenset(rest) | {moved})


def _bump_entry(f):
    (i, j), v = max((k, v) for k, v in f.entries.items() if k[1] - k[0] >= 2 and v > 1)
    return dataclasses.replace(f, entries={**f.entries, (i, j): v + 1})


def _replace(seq, t, value):
    seq = list(seq)
    seq[t] = value
    return tuple(seq)


def _corr_cases(fl):
    wl = Correspondence(fl, 0)
    single = wl._slope_op("slope", [(11, 8)])
    product = wl._slope_op("product", [(3, 2), (2, 5), (7, 3)])
    quid, diags = O.random_triangulation(random.Random(0), 9)
    valid = CorrOp("quiddity", quiddity=quid, diagonals=diags)
    bad = CorrOp("bad-quiddity", quiddity=_replace(quid, 4, quid[4] + 1))

    def slot(t, fn):
        return lambda out: _replace(out, t, fn(out[t]))

    cf_slot = lambda fn: slot(7, lambda cf: fn(*cf))  # noqa: E731
    return wl, [
        ("frieze entry changed", single, slot(4, _bump_entry)),
        ("quiddity rotated wrongly", single, slot(3, lambda q: q[1:] + q[:1])),
        ("lotus petal dropped", product, slot(0, _drop_leaf)),
        ("lotus mark lost", product, slot(0, lambda l: NS(petals=l.petals, marks=frozenset()))),
        ("polygon diagonal moved", product, slot(1, _other_diagonals)),
        ("vertex positions reversed", single, slot(2, lambda v: tuple(reversed(v)))),
        ("graph weight changed", product, slot(5, lambda g: NS(weights=(g.weights[0] - 1,) + g.weights[1:],
                                                            arrows=g.arrows))),
        ("graph arrow moved", single, slot(5, lambda g: NS(weights=g.weights,
                                                           arrows=frozenset(a + 1 for a in g.arrows)))),
        ("round-trip lotus lost a petal", single, slot(6, _drop_leaf)),
        ("hj expansion changed", single, cf_slot(lambda t, kd, p: (t[:-1] + (t[-1] + 1,), kd, p))),
        ("Kidoh dual changed", single, cf_slot(lambda t, kd, p: (t, NS(dual=kd.dual[::-1] + (2,)), p))),
        ("continued-fraction polygon changed", single, cf_slot(lambda t, kd, p: (t, kd, _other_diagonals(p)))),
        ("valid quiddity rejected", valid, lambda out: (ValueError("no"), out[1])),
        ("valid quiddity, wrong triangulation", valid, lambda out: (out[0], _other_diagonals(out[1]))),
        ("valid quiddity, frieze entry changed", valid, lambda out: (_bump_entry(out[0]), out[1])),
        ("broken quiddity accepted by frieze", bad,
         lambda out: (fl.frieze.frieze_from_quiddity(quid), out[1])),
        ("broken quiddity accepted by polygon", bad,
         lambda out: (out[0], fl.polygon.polygon_from_quiddity(quid))),
    ]


def _cut_cases(fl):
    wl = Cuts(fl, 0)
    slopes = [(3, 2), (2, 5), (7, 3)]
    op = CutOp("product", Shape(slopes),
               fl.lotus.lotus_of_slopes([fl.contfrac.Rational(n, q) for n, q in slopes]))

    def cut_quiddity(chain):
        r = chain[0]
        return [NS(polygon=r.polygon, dropped=r.dropped,
                   quiddity=_replace(r.quiddity, 0, r.quiddity[0] + 1))] + chain[1:]

    def kept_short(chain):
        r = chain[0]
        return [NS(polygon=NS(m=r.polygon.m - 1, diagonals=r.polygon.diagonals),
                   dropped=r.dropped, quiddity=r.quiddity)] + chain[1:]

    return wl, [
        ("cut missing", op, lambda o: (o[0][1:], o[1], o[2])),
        ("cut quiddity changed", op, lambda o: (cut_quiddity(o[0]), o[1], o[2])),
        ("kept piece one vertex short", op, lambda o: (kept_short(o[0]), o[1], o[2])),
        ("stage dropped", op, lambda o: (o[0], o[1][:-1], o[2])),
        ("stage repeated", op, lambda o: (o[0], o[1][:-1] + o[1][:1], o[2])),
        ("stage graph changed", op, lambda o: (o[0], [(s, NS(weights=(g.weights[0] - 1,) + g.weights[1:]))
                                                      for s, g in o[1]], o[2])),
        ("mutation not applied", op, lambda o: (o[0], o[1], [op.program_lotus] + o[2][1:])),
        ("mutations swapped", op, lambda o: (o[0], o[1], o[2][1:2] + o[2][:1] + o[2][2:])),
    ]


def _cli_cases(fl):
    wl = Cli(fl, 0)
    wl.inprocess = True
    first = {}
    for op in wl.ops:
        first.setdefault(op.kind, op)

    def text(fn):
        return lambda out: (out[0], fn(out[1]), out[2])

    def json_edit(fn):
        def edit(t):
            doc = json.loads(t)
            fn(doc)
            return json.dumps(doc)
        return text(edit)

    def bump_row(t):
        lines = t.splitlines()
        tok = lines[2].split()[0]
        lines[2] = lines[2].replace(tok, str(int(tok) + 1), 1)
        return "\n".join(lines) + "\n"

    def bump_entry(doc):
        key = max(doc["entries"], key=lambda k: doc["entries"][k])
        doc["entries"][key] += 1

    def drop_petal_line(t):
        lines = t.splitlines()
        return "\n".join(lines[:1] + lines[2:]) + "\n"

    cases = [
        ("hj term changed", "hj", text(lambda t: t.replace("]", ",2]", 1))),
        ("frieze text entry changed", "frieze-cf-text", text(bump_row)),
        ("frieze json entry changed", "frieze-q-json", json_edit(bump_entry)),
        ("embed vertex changed", "embed", text(lambda t: t.replace("(0,1)", "(0,2)", 1))),
        ("lotus text petal dropped", "lotus-text", text(drop_petal_line)),
        ("lotus json petal dropped", "lotus-json", json_edit(lambda d: d["petals"].pop())),
        ("graph weight changed", "graph", text(lambda t: "-9" + t[t.index(" "):])),
        ("reduce quiddity changed", "reduce", text(lambda t: t.replace("quiddity ", "quiddity 9", 1))),
        ("mutate left the lotus alone", "mutate", None),
        ("partials stage dropped", "partials", text(lambda t: t[:t.rindex("\n", 0, -1) + 1])),
        ("count off by one", "count", text(lambda t: f"{int(t) + 1}\n")),
        ("svg polygon missing", "svg", text(lambda t: t.replace("<polygon", "<path", 1))),
        ("dot weight changed", "dot", text(lambda t: t.replace('label="-', 'label="-1', 1))),
        ("error with two stderr lines", "error", lambda out: (1, "", out[2] + "more\n")),
        ("error with a traceback", "error", lambda out: (1, "", "Traceback (most recent call last):\n"
                                                             + out[2])),
        ("error exit 0", "error", lambda out: (0, "", "")),
        ("usage error exit 1", "usage", lambda out: (1, "", out[2])),
    ]
    out = []
    for name, kind, fn in cases:
        op = first[kind]
        if fn is None:  # print the unmutated lotus in the mutate output format
            petals = sorted(op.lotus.petals)
            lotus_text = "".join(f"  {u} {v} apex {O.add(u, v)}\n" for u, v in petals)
            fn = text(lambda t, s=f"petals {len(petals)}\n{lotus_text}": s)  # noqa: B023
        out.append((name, op, fn))
    return wl, out


def run_all(fl) -> tuple[list[str], int]:
    """Problems found (a genuine output rejected, or a corruption accepted)
    and the number of corruptions tried."""
    problems = []
    total = 0
    rng = random.Random
    for make in (_corr_cases, _cut_cases, _cli_cases):
        wl, cases = make(fl)
        total += len(cases)
        genuine = {}
        for name, op, corrupt in cases:
            if id(op) not in genuine:
                genuine[id(op)] = wl.run(op)
                try:
                    wl.check(op, genuine[id(op)], rng(0))
                except Exception as exc:  # noqa: BLE001 - reported, not hidden
                    problems.append(f"{wl.name}: genuine output rejected ({op.kind}): {exc}")
            try:
                wl.check(op, corrupt(genuine[id(op)]), rng(0))
            except O.CheckFailed:
                continue
            except Exception as exc:  # noqa: BLE001 - reported, not hidden
                problems.append(f"{wl.name}: check crashed on '{name}': {type(exc).__name__}: {exc}")
                continue
            problems.append(f"{wl.name}: check missed '{name}'")
    return problems, total


def main(fl) -> int:
    problems, total = run_all(fl)
    for p in problems:
        print(p)
    print(f"self-test: {total - len(problems)} of {total} corruptions caught"
          if not problems else f"self-test: {len(problems)} problem(s)")
    return 1 if problems else 0
