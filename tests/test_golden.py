"""Replay the recorded CLI corpus in process.

``golden_cli.json`` holds, for each invocation, its argv, the text fed to
``--stdin`` (or null), the exit code, and everything written to stdout and
stderr.  Every invocation must reproduce all three byte for byte.
"""

import contextlib
import io
import json
from pathlib import Path

from friezelotus.cli import run

CORPUS = Path(__file__).with_name("golden_cli.json")


def test_golden_cli_corpus(monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    cases = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert len(cases) >= 100
    mismatches = []
    for case in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code, text = run(case["argv"], stdin_text=case["stdin"])
        got = (code, out.getvalue() + text, err.getvalue())
        if got != (case["code"], case["stdout"], case["stderr"]):
            mismatches.append(case["argv"])
    assert not mismatches
