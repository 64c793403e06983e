"""Fresh interpreters, started as the ``friezelotus`` command starts one.

Every CLI call pays for its imports, so importing the CLI must not load
the heavy standard modules the package avoids; and one call through
``python -m friezelotus`` covers ``__main__``, which the in-process replay
of the golden corpus skips.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_heavy_modules():
    proc = fresh("-c", "import sys, friezelotus.cli; print(' '.join(sorted(sys.modules)))")
    loaded = set(proc.stdout.split())
    assert "friezelotus.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "typing", "inspect", "fractions", "decimal"})


def test_fresh_process_reproduces_golden_entry():
    cases = json.loads((TESTS / "golden_cli.json").read_text(encoding="utf-8"))
    case = next(c for c in cases if c["argv"] == ["hj", "11/8"])
    proc = fresh("-m", "friezelotus", *case["argv"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["code"], case["stdout"], case["stderr"])
