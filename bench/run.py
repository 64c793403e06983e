"""Benchmark of the frieze-lotus engine.

    python3 bench/run.py --workload {correspondence,cuts,cli} --seed N \
        --seconds S --trace {0,1}

Runs the workload's fixed, seeded list of operations in whole rounds until
S seconds have passed (and at least MIN_ROUNDS rounds have run),
checks every output against the oracles in ``oracle.py``, and prints one
JSON line: ``correct``, ``attempted``, ``failed`` and the metrics.  With
``--trace 0`` these are the end-to-end metrics; with ``--trace 1`` the same
rounds run with spans around the program's public functions and the
per-layer metrics are printed instead, and the spans are written to
``bench/out/``.  ``--selftest`` runs only the oracle self-test;
``--overhead`` alternates untraced and traced rounds of an in-process
workload and prints both sets of figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import selftest  # noqa: E402
from spans import COUNTERS, FUNCTIONS, MAX_BITS, Tracer  # noqa: E402
from workloads import CHILD, WORKLOADS, child_env  # noqa: E402

MODULES = ("contfrac", "lotus", "polygon", "frieze", "resolution", "transform",
           "polyparse", "render", "cli")
SETUP_REPEATS = 9
MIN_ROUNDS = 3
PROBES = 10                  # fresh interpreters per process.* figure


def cpu_clock() -> float:
    """CPU seconds of this thread plus those of every child waited for.

    Operations run on one thread, and CLI children one at a time, so a
    difference of this clock is the operation's CPU time: its wall time
    less the time the host took the CPU away (steal), which on a shared
    virtual machine swings far more than the work itself (see README)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + children.ru_utime + children.ru_stime


def import_program() -> SimpleNamespace:
    """Import the program from ``src`` afresh (dropping any loaded copy)."""
    for name in [k for k in sys.modules if k == "friezelotus" or k.startswith("friezelotus.")]:
        del sys.modules[name]
    fl = SimpleNamespace(**{m: importlib.import_module(f"friezelotus.{m}") for m in MODULES})
    if not Path(fl.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: friezelotus was imported from {fl.cli.__file__}, not {SRC}")
    return fl


def set_up(name: str, seed: int):
    """Import the program, make the inputs from the seed and run the warm-up
    operations; the timed part of the benchmark's set-up."""
    start = cpu_clock()
    fl = import_program()
    workload = WORKLOADS[name](fl, seed)
    for op in workload.warmup:
        workload.run(op)
    return cpu_clock() - start, workload


def measure(workload, seed: int, seconds: float, tracer: Tracer | None,
            min_rounds: int = MIN_ROUNDS) -> dict:
    """Whole rounds of the op list until ``seconds`` have passed and at least
    MIN_ROUNDS rounds have run; ``times[i]`` holds op i's time per round."""
    gc.collect()
    gc.freeze()                      # set-up objects are never rescanned
    deadline = time.perf_counter() + seconds
    ops = workload.ops
    times: list[list[float]] = [[] for _ in ops]
    round_layers, round_counts = [], []
    attempted = failed = wrong = rounds = 0
    messages: list[str] = []
    while rounds < min_rounds or time.perf_counter() < deadline:
        first_span = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counts.clear()
        for idx, op in enumerate(ops):
            attempted += 1
            gc.collect()             # every op starts from the same collector state
            if tracer:
                tracer.on = True
                span = tracer.begin("op." + op.kind)
            start = cpu_clock()
            try:
                out = workload.run(op)
            except Exception as exc:  # an unexpected failure of the program
                failed += 1
                messages.append(f"op {idx} ({op.kind}): {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = cpu_clock() - start
                if tracer:
                    tracer.end(span)
                    tracer.on = False
            times[idx].append(elapsed)
            try:
                workload.check(op, out, random.Random(seed * 1_000_003 + idx))
            except Exception as exc:  # a wrong output, or one the checks cannot read
                failed += 1
                wrong += 1
                messages.append(f"op {idx} ({op.kind}): {type(exc).__name__}: {exc}")
        rounds += 1
        if tracer:
            round_layers.append(tracer.summary(first_span))
            round_counts.append(dict(tracer.counts))
    return dict(times=times, rounds=rounds, layers=round_layers, counts=round_counts,
                attempted=attempted, failed=failed, wrong=wrong, messages=messages)


def op_times(result: dict) -> list[float]:
    """Each op's least time over the rounds: one latency sample per op of
    the list.  On a shared host the same op's CPU time swings between two
    speeds as neighbours load the physical core (see README); the least of
    several rounds is the time of the work itself."""
    return [min(t) for t in result["times"] if t]


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))]


def end_to_end(name: str, setups: list, result: dict) -> dict:
    lat = op_times(result)
    if name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "items_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": percentile(lat, 90) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


def probe_ms(code: str, inner: bool) -> float:
    """Median over PROBES fresh interpreters started like the CLI's children:
    wall time of the whole process, or the time the child reports itself."""
    env = child_env()
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        r = subprocess.run([CHILD[0], "-S", "-c", code], capture_output=True, env=env, cwd=ROOT,
                           timeout=60, check=True)
        times.append(float(r.stdout) if inner else time.perf_counter() - start)
    return statistics.median(times) * 1e3


def per_layer(name: str, result: dict) -> tuple[dict, list[str]]:
    """Per-round layer figures: counts must repeat exactly from round to
    round; times are the median over rounds."""
    problems = []
    rounds = result["layers"]
    metrics = {}
    for fn in FUNCTIONS:
        calls = [r.get(fn, (0, 0, 0))[0] for r in rounds]
        if len(set(calls)) != 1:
            problems.append(f"{fn}: calls differ between rounds: {calls}")
        metrics[f"{fn}.calls"] = {"value": calls[0], "unit": "count"}
        metrics[f"{fn}.busy_ms"] = {"value": statistics.median(r.get(fn, (0, 0, 0))[1] for r in rounds) / 1e6,
                                    "unit": "ms"}
        metrics[f"{fn}.self_ms"] = {"value": statistics.median(r.get(fn, (0, 0, 0))[2] for r in rounds) / 1e6,
                                    "unit": "ms"}
    for counter in (*COUNTERS, MAX_BITS):
        values = [c.get(counter, 0) for c in result["counts"]]
        if len(set(values)) != 1:
            problems.append(f"{counter}: differs between rounds: {values}")
        metrics[counter] = {"value": values[0], "unit": "bits" if counter == MAX_BITS else
                            ("bytes" if counter == "cli.output_bytes" else "count")}
    interpreter = import_cli = 0.0
    if name == "cli":
        interpreter = probe_ms("pass", inner=False)
        import_cli = probe_ms("import time; t = time.perf_counter(); import friezelotus.cli; "
                              "print(time.perf_counter() - t)", inner=True)
    metrics["process.interpreter_ms"] = {"value": interpreter, "unit": "ms"}
    metrics["process.import_cli_ms"] = {"value": import_cli, "unit": "ms"}
    return metrics, problems


def overhead(workload, seed: int, seconds: float) -> dict:
    """Tracing overhead: untraced and traced rounds alternate in one process,
    so that a slow spell of the host falls on both; each side's figures come
    from its own rounds, as in ``end_to_end``."""
    tracer = Tracer()
    sides = {False: [[] for _ in workload.ops], True: [[] for _ in workload.ops]}
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 2 * MIN_ROUNDS or time.perf_counter() < deadline:
        traced = rounds % 2 == 1
        if traced:
            tracer.install()
        result = measure(workload, seed, 0, tracer if traced else None, min_rounds=1)
        tracer.uninstall()
        tracer.spans.clear()
        for mine, new in zip(sides[traced], result["times"]):
            mine.extend(new)
        rounds += 1
    report = {}
    for traced, times in sides.items():
        lat = op_times({"times": times})
        report["traced" if traced else "untraced"] = {
            "items_per_s": len(lat) / sum(lat), "latency_p50_ms": statistics.median(lat) * 1e3}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="only run the oracle self-test")
    ap.add_argument("--overhead", action="store_true",
                    help="alternate untraced and traced rounds and print both (in-process workloads)")
    args = ap.parse_args(argv)
    if not (SRC / "friezelotus" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.selftest or args.workload is None:
        return selftest.main(import_program())
    # every check must be able to fire before its verdict counts
    missed, _ = selftest.run_all(import_program())
    if args.overhead:
        if args.workload == "cli":
            ap.error("--overhead needs an in-process workload")
        _, workload = set_up(args.workload, args.seed)
        print(json.dumps(overhead(workload, args.seed, args.seconds)))
        return 0
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, workload = set_up(args.workload, args.seed)
        setups.append(elapsed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        if args.workload == "cli":
            workload.inprocess = True
        tracer.install()
    result = measure(workload, args.seed, args.seconds, tracer)
    problems = result["messages"] + [f"self-test: {c}" for c in missed]
    if tracer:
        metrics, layer_problems = per_layer(args.workload, result)
        problems += layer_problems
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "rounds": result["rounds"]})
    else:
        metrics = end_to_end(args.workload, setups, result)
    for line in problems[:20]:
        print(line, file=sys.stderr)
    correct = result["wrong"] == 0 and not missed and not (tracer and layer_problems)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
