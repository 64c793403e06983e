"""Reference figures for the scaling limits the roadmap records.

    python3 bench/baselines.py [--repeats 3]

Times, in process: ``polygon_of_lotus`` at m = 3003 (slope 3001/3000) and
``reduction_chain`` at m = 203 (slope 201/200); and as fresh processes
started like the benchmark's CLI children (``python -S -m friezelotus``):
``partials --rational 401/400``, ``lotus --rational 100000/1`` and
``hj 11/8``.  It also times a bare interpreter with and without ``-S``,
which shows what site-packages' ``.pth`` files add to every start.
Prints the median of the repeats and writes ``bench/out/baselines.json``.
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
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from workloads import CHILD, child_env  # noqa: E402


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    from friezelotus.contfrac import Rational
    from friezelotus.lotus import lotus_of_slope, polygon_of_lotus
    from friezelotus.transform import reduction_chain

    big = lotus_of_slope(Rational(3001, 3000))
    mid = lotus_of_slope(Rational(201, 200))
    env = child_env()

    def child(argv):
        return lambda: subprocess.run(argv, capture_output=True, env=env, cwd=ROOT,
                                      timeout=600, check=True)

    cases = {
        "polygon_of_lotus m=3003 (in process)": lambda: polygon_of_lotus(big),
        "reduction_chain m=203 (in process)": lambda: reduction_chain(mid),
        "partials --rational 401/400": child(CHILD + ["partials", "--rational", "401/400"]),
        "lotus --rational 100000/1": child(CHILD + ["lotus", "--rational", "100000/1"]),
        "hj 11/8": child(CHILD + ["hj", "11/8"]),
        "bare interpreter, python -S -c pass": child([sys.executable, "-S", "-c", "pass"]),
        "bare interpreter, python -c pass": child([sys.executable, "-c", "pass"]),
    }
    report = {}
    for name, fn in cases.items():
        runs = [timed(fn) for _ in range(args.repeats)]
        report[name] = statistics.median(runs)
        print(f"{name:40s} {report[name] * 1e3:10.1f} ms   (runs: "
              + ", ".join(f"{r * 1e3:.1f}" for r in runs) + ")", flush=True)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "baselines.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
