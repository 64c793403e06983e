"""Steadiness of the benchmark: run each workload on several seeds and print
every end-to-end metric's spread beside its bound.

    python3 bench/steady.py [--runs 10] [--seconds 20] [--workloads a,b] [--first-seed 1]

The spread is the distance between the first and third quartiles of the
runs (``statistics.quantiles(values, n=4)``) as a share of their median.
Runs are sequential, one process at a time; results are also written to
``bench/out/steady-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    r = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       capture_output=True, text=True, cwd=ROOT, timeout=600)
    if r.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {r.returncode}:\n{r.stderr}")
    return json.loads(r.stdout.splitlines()[-1])


def spread(values) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def steadiness(spec: dict, workloads, runs: int, seconds: float, first_seed: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for w in workloads:
        results = [run(w, seed, seconds, 0) for seed in range(first_seed, first_seed + runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{w}: correct {all(r['correct'] for r in results)}, failed share {shares}, "
              f"attempted {[r['attempted'] for r in results]}")
        report[w] = {"results": results, "metrics": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median, iqr = spread(values)
            flag = "ok" if iqr < bound / 3 else ("within bound" if iqr <= bound else "OVER")
            print(f"  {name:16s} median {median:12.4f}  spread {iqr:7.2%}  bound {bound:5.0%}  {flag}")
            report[w]["metrics"][name] = {"median": median, "spread": iqr, "bound": bound,
                                          "values": values}
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    report = steadiness(spec, workloads, args.runs, args.seconds, args.first_seed)
    OUT.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    (OUT / f"steady-{stamp}.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
