"""Fresh interpreters, started as the ``friezelotus`` command starts one.

Every CLI call pays for its imports, so importing the CLI must not load
the heavy standard modules the package avoids, and a subcommand loads only
the package modules it runs; and one call through ``python -m friezelotus``
covers ``__main__``, which the in-process replay of the golden corpus skips.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def fresh(*args: str, stdin: str | None = None,
          env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    return subprocess.run([sys.executable, "-S", *args], env=env, input=stdin,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_heavy_modules():
    proc = fresh("-c", "import sys, friezelotus.cli; print(' '.join(sorted(sys.modules)))")
    loaded = set(proc.stdout.split())
    assert "friezelotus.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "typing", "inspect", "fractions", "decimal"})


def loaded(*argv: str) -> tuple[subprocess.CompletedProcess, set[str]]:
    """One fresh ``friezelotus`` process and the modules it imported, read
    from its ``-X importtime`` lines."""
    proc = fresh("-X", "importtime", "-m", "friezelotus", *argv)
    return proc, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}


def test_a_subcommand_loads_only_what_it_runs():
    beyond_the_parser = {"json", "friezelotus.lotus", "friezelotus.frieze",
                         "friezelotus.resolution", "friezelotus.render",
                         "friezelotus.transform", "friezelotus.polyparse"}
    for argv, code in ((["hj", "11/8"], 0), (["mutate", "--rational", "3/2"], 2),
                       (["flip", "--rational", "3/2"], 2)):
        proc, modules = loaded(*argv)
        assert proc.returncode == code and "friezelotus.contfrac" in modules
        assert modules.isdisjoint(beyond_the_parser), (argv, modules & beyond_the_parser)
    # a quiddity's frieze needs no lotus, and its JSON is written by hand
    for tail in ([], ["--json"]):
        proc, modules = loaded("frieze", "--quiddity", "1,2,2,3,2,1,3,4", *tail)
        assert proc.returncode == 0 and "friezelotus.frieze" in modules
        assert modules.isdisjoint({"json", "friezelotus.lotus", "friezelotus.resolution",
                                   "friezelotus.polyparse"})


def test_fresh_process_reproduces_golden_entry():
    cases = json.loads((TESTS / "golden_cli.json").read_text(encoding="utf-8"))
    case = next(c for c in cases if c["argv"] == ["hj", "11/8"])
    proc = fresh("-m", "friezelotus", *case["argv"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["code"], case["stdout"], case["stderr"])


def test_deep_nesting_is_one_line_on_stderr():
    # the parser's nesting ceiling, and the JSON decoder's recursion limit,
    # each give one diagnostic line with no traceback
    for argv, stdin in ((["--poly", "(" * 5000 + "x" + ")" * 5000], None),
                        (["--poly", "(" * 101 + "x" + ")" * 101], None),
                        (["--stdin"], "[" * 100_000)):
        proc = fresh("-m", "friezelotus", "graph", *argv, stdin=stdin)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


def test_count_is_bounded_with_the_digit_limit_off():
    # PYTHONINTMAXSTRDIGITS=0 lifts the interpreter's limit; the count then
    # keeps the default one, refused by the early bound or after computing
    limit = sys.int_info.default_max_str_digits
    off = {"PYTHONINTMAXSTRDIGITS": "0"}
    for n in ("1000000", "7155"):
        start = time.perf_counter()
        proc = fresh("-m", "friezelotus", "count", n, env=off)
        assert time.perf_counter() - start < 5
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            1, "", f"error: the count for n = {n} has more than {limit} digits\n")
    proc = fresh("-m", "friezelotus", "count", "7152", env=off)
    assert proc.returncode == 0 and len(proc.stdout) == limit + 1
