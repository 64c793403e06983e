import contextlib
import io
import json
import random
import sys
import time
from itertools import product
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from friezelotus.cli import _dump, frieze_to_json, lotus_to_json, run
from friezelotus.contfrac import MAX_VERTICES, Rational, hj_expand
from friezelotus.frieze import MAX_FRIEZE_ENTRIES, Frieze, _check_quiddity, frieze_from_quiddity
from friezelotus.lotus import lotus_of_slope, lotus_of_slopes, polygon_of_lotus
from friezelotus.polygon import polygon_of_cf, quiddity_of
from friezelotus.render import MAX_GRID_LINES, render_frieze_text

from conftest import fan_quiddity, frieze_by_rows, outcome


def test_hj_running():
    code, out = run(["hj", "11/8"])
    assert code == 0
    assert out == "[2,2,3,2]\ndual [4,3]\n"


def test_hj_fountain():
    code, out = run(["hj", "6/5"])
    assert code == 0
    assert out == "[2,2,2,2,2]\ndual [6]\n"


def test_hj_value_below_one_has_no_dual():
    code, out = run(["hj", "2/3"])
    assert code == 0
    assert out == "[1,3]\n"


def test_hj_json():
    code, out = run(["hj", "11/8", "--json"])
    doc = json.loads(out)
    assert doc == {"rational": "11/8", "expansion": [2, 2, 3, 2],
                   "dual": [4, 3], "kidoh": {"c": [2, 2], "d": [1, 1]}}


def test_graph_cusp():
    code, out = run(["graph", "--poly", "x^3-y^2"])
    assert code == 0
    assert out == "-3 -1 -2\narrow 2\n"


def test_graph_running():
    code, out = run(["graph", "--poly", "x^11-y^8"])
    assert out.splitlines() == ["-4 -3 -1 -2 -3 -2", "arrow 3"]


def test_count():
    assert run(["count", "3"]) == (0, "3\n")
    assert run(["count", "5"]) == (0, "22\n")
    assert run(["count", "6"]) == (0, "66\n")


def test_count_too_large_to_print(capsys):
    limit = sys.get_int_max_str_digits()
    for argv in (["count", "100000"], ["count", "100000", "--json"]):
        assert run(argv) == (1, "")
        err = capsys.readouterr().err
        assert err == f"error: the count for n = 100000 has more than {limit} digits\n"


@pytest.mark.parametrize("argv, err", [
    (["graph", "--poly", "0"], "error: the zero polynomial is excluded\n"),
    (["partials", "--slopes", "0/1"], "error: the segment lotus has no resolutions\n"),
    (["graph", "--poly", "x)"], "error: unexpected ')' at position 1\n"),
    (["graph", "--poly", "9" * (sys.get_int_max_str_digits() + 1) + "x-y"],
     f"error: integer longer than {sys.get_int_max_str_digits()} digits at position 0\n"),
])
def test_refusals_name_their_cause(argv, err, capsys):
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == err


LONG = "9" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("argv, position", [
    (["hj", LONG], 0),
    (["hj", f"1/{LONG}"], 2),
    (["lotus", "--rational", f" {LONG}/2"], 1),
    (["lotus", "--slopes", f"3/2,{LONG}"], 4),
    (["frieze", "--quiddity", f"1,{LONG},1"], 2),
    (["embed", "--quiddity", f"{LONG},1,1"], 0),
    (["reduce", "--rational", "11/8", "--diagonal", f"1,{LONG}"], 2),
    (["mutate", "--rational", "11/8", "--diagonal", f"x,{LONG}"], 2),
])
def test_numbers_past_the_digit_limit_are_refused_by_position(argv, position, capsys):
    # the interpreter's refusal would echo the whole argument as malformed
    limit = sys.get_int_max_str_digits()
    assert run(argv) == (1, "")
    assert capsys.readouterr().err == (
        f"error: integer longer than {limit} digits at position {position}\n")


@pytest.mark.parametrize("argv, option, position", [
    (["count", LONG], "n", 0),
    (["frieze", "--rational", "3/2", "--periods", LONG], "--periods", 0),
    (["render", "--rational", "3/2", "--format", "text", "--periods", LONG], "--periods", 0),
    (["embed", "--quiddity", "1,1,1", "-k", f"-{LONG}"], "-k", 1),
])
def test_integer_options_past_the_digit_limit_are_refused_by_position(argv, option, position,
                                                                      capsys):
    # still a usage error, but with no echo of the number
    limit = sys.get_int_max_str_digits()
    assert run(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.endswith(f"error: argument {option}: "
                        f"integer longer than {limit} digits at position {position}\n")
    assert len(err) < 500


def test_integer_options_keep_their_other_refusals(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["count", "abc"]) == (2, "")
    assert capsys.readouterr().err == (
        "usage: friezelotus count [-h] [--json] [--out FILE] n\n"
        "friezelotus count: error: argument n: invalid int value: 'abc'\n")
    assert run(["embed", "--quiddity", "1,1,1", "-k", "x"]) == (2, "")
    assert capsys.readouterr().err.endswith("error: argument -k: invalid int value: 'x'\n")
    assert run(["count", "-1"]) == (1, "")
    assert capsys.readouterr().err == "error: n must be >= 1\n"
    assert run(["frieze", "--rational", "3/2", "--periods", "-1"]) == (1, "")
    assert capsys.readouterr().err == "error: periods must be >= 1\n"
    assert run(["embed", "--quiddity", "1,2,2,1,3", "-k", "-1"])[0] == 0


def test_partials_running():
    code, out = run(["partials", "--poly", "x^11-y^8"])
    assert out.splitlines() == ["-4 -3 -1 -2 -3 -2", "-4 -2 -1 -3 -2",
                                "-4 -1 -2 -2", "-3 -1 -2", "-2 -1", "-1"]


def test_embed():
    code, out = run(["embed", "--quiddity", "1,2,2,3,2,1,3,4", "-k", "1"])
    assert out == "(0,1) (1,2) (2,3) (5,7) (8,11) (3,4) (1,1) (1,0)\n"


def test_embed_past_the_frieze_ceiling():
    # m = 3 203: the ear cut validates the quiddity, no frieze is built
    q = quiddity_of(polygon_of_cf(hj_expand(Rational(3201, 3200))))
    code, out = run(["embed", "--quiddity", ",".join(map(str, q))])
    assert code == 0
    assert out.count("(") == 3203 and out.endswith(" (1,0)\n")


def test_embed_refusal_past_the_frieze_ceiling(capsys):
    # m = 3 200: no frieze is built, so the ear cut's message stands
    assert run(["embed", "--quiddity", ",".join(["2"] * 3200)]) == (1, "")
    assert capsys.readouterr().err == (
        "error: not the quiddity of a triangulated polygon (no ear)\n")


def test_frieze_text_and_json():
    code, out = run(["frieze", "--rational", "11/8"])
    assert code == 0
    assert "11" in out
    code, out = run(["frieze", "--quiddity", "1,2,2,3,2,1,3,4", "--json"])
    doc = json.loads(out)
    assert doc["m"] == 8
    assert doc["entries"]["0,5"] == 11
    assert doc["entries"]["1,5"] == 8


def test_frieze_output_is_the_rendered_row_frieze():
    # m = 1 003: text and JSON are the bytes of the row-by-row dict rendered
    q = quiddity_of(polygon_of_lotus(lotus_of_slope(Rational(1001, 1000)))[0])
    q = q[-1:] + q[:-1]  # a slope's frieze starts at (1,0)
    oracle = Frieze(len(q), q, frieze_by_rows(q))
    assert run(["frieze", "--rational", "1001/1000"]) == (0, render_frieze_text(oracle))
    assert run(["frieze", "--rational", "1001/1000", "--json"]) == (0, _dump(frieze_to_json(oracle)))


def test_lotus_plain_and_json():
    code, out = run(["lotus", "--slopes", "3/2,2/1,1/1"])
    assert "petals 3" in out
    assert "marks" in out
    code, out = run(["lotus", "--rational", "3/2", "--json"])
    doc = json.loads(out)
    assert doc == {"petals": [[[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 1], [1, 2]]],
                   "marks": [[2, 3]]}


def test_lotus_graph_pipe_roundtrip():
    code, lotus_json = run(["lotus", "--poly", "x^11-y^8", "--json"])
    assert code == 0
    code, piped = run(["graph", "--stdin"], stdin_text=lotus_json)
    assert code == 0
    direct = run(["graph", "--poly", "x^11-y^8"])[1]
    assert piped == direct


def test_reduce_command():
    code, out = run(["reduce", "--rational", "11/8", "--diagonal", "4,6"])
    assert code == 0
    assert out.splitlines()[0] == "quiddity 2,2,3,1,2,4,1"


def test_mutate_command():
    code, out = run(["mutate", "--poly", "(x^2+y)*(x+y^2)", "--diagonal", "3,5"])
    assert code == 0
    assert "curve x^3 - y" in out


def test_render_svg_to_file(tmp_path):
    target = tmp_path / "lotus.svg"
    code, out = run(["render", "--rational", "3/2", "--format", "svg",
                     "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("<?xml")


def test_out_path_that_cannot_be_written(tmp_path, capsys):
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        assert run(["hj", "11/8", "--out", str(target)]) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_render_dot_and_text():
    code, out = run(["render", "--rational", "3/2", "--format", "dot"])
    assert "graph resolution" in out
    code, out = run(["render", "--quiddity", "1,1,1", "--format", "text"])
    assert len(out.splitlines()) == 4


def test_domain_errors_exit_1(capsys):
    code, out = run(["hj", "0/1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code, _ = run(["frieze", "--quiddity", "2,2,2,2"])
    assert code == 1
    code, _ = run(["graph", "--poly", "(x^2-y)*(x^2-y)"])
    assert code == 1  # degenerate input rejected
    code, _ = run(["count", "0"])
    assert code == 1


def test_usage_errors_exit_2(capsys):
    code, _ = run(["hj"])
    assert code == 2
    code, _ = run(["frieze"])
    assert code == 2
    code, _ = run(["graph", "--poly", "x", "--rational", "2/1"])
    assert code == 2
    code, _ = run(["render", "--rational", "3/2", "--format", "dot", "--json"])
    assert code == 2
    capsys.readouterr()


def test_parse_error_position_reported(capsys):
    code, _ = run(["graph", "--poly", "x^3 - "])
    assert code == 1
    assert "position 6" in capsys.readouterr().err


def test_frieze_from_stdin_lotus():
    code, lotus_json = run(["lotus", "--rational", "11/8", "--json"])
    code, out = run(["frieze", "--stdin", "--json"], stdin_text=lotus_json)
    assert code == 0
    doc = json.loads(out)
    assert doc["quiddity"] == [2, 2, 3, 2, 1, 3, 4, 1]


def test_rational_frieze_matches_the_two_eared_polygon():
    # the frieze of a slope comes from its lotus, labelled from (1,0);
    # polygon_of_cf builds the same polygon from the expansion and its dual
    for n in range(2, 40):
        for q in range(1, n):
            if gcd(n, q) == 1:
                code, out = run(["frieze", "--rational", f"{n}/{q}", "--json"])
                oracle = polygon_of_cf(hj_expand(Rational(n, q)))
                assert code == 0
                assert json.loads(out) == frieze_to_json(frieze_from_quiddity(quiddity_of(oracle)))


def test_rational_frieze_at_most_one_reverses_the_inverse_slope():
    def quiddity(slope):
        code, out = run(["frieze", "--rational", slope, "--json"])
        assert code == 0
        return json.loads(out)["quiddity"]

    for q in range(1, 40):
        for n in range(1, q + 1):
            if gcd(n, q) == 1:
                rev, inverse = quiddity(f"{n}/{q}")[::-1], quiddity(f"{q}/{n}")
                assert any(rev[k:] + rev[:k] == inverse for k in range(len(rev)))
    assert run(["frieze", "--rational", "2/3"]) == run(["frieze", "--quiddity", "2,1,3,1,2"])
    assert run(["render", "--rational", "1/1", "--format", "text"]) == (
        0, "   0   0   0\n     1   1   1\n       1   1   1\n         0   0   0\n")


def test_segment_slopes_have_no_frieze(capsys):
    for slope in ("0/1", "inf"):
        assert run(["frieze", "--rational", slope]) == (1, "")
        assert capsys.readouterr().err == "error: the segment lotus has no polygon\n"


def test_slope_rejections_give_their_reason(capsys):
    for slopes, message in (("1/2,-1/3", "negative slopes are not supported"),
                            ("1/2,3/0", "denominator must be >= 1 (write the infinite "
                                        "slope as inf, or Rational.infinity())"),
                            ("1/2,3/x", "not a rational: '3/x'")):
        assert run(["lotus", "--slopes", slopes]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_empty_option_values_reach_their_parser(capsys):
    for argv, message in (
            (["frieze", "--rational="], "not a rational: ''"),
            (["graph", "--slopes="], "not a rational: ''"),
            (["lotus", "--poly="], "expected a number, 'x', 'y' or '(' at position 0"),
            (["frieze", "--quiddity="], "bad quiddity '': comma-separated integers expected")):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_option_values_may_begin_with_a_minus(capsys):
    # argparse would read these values as options; each reaches its parser
    code, out = run(["graph", "--poly", "-x^2+y"])
    assert code == 0 and out == run(["graph", "--poly=-x^2+y"])[1]
    for argv, message in (
            (["lotus", "--slopes", "-1/2"], "negative slopes are not supported"),
            (["hj", "-3/2"], "negative slopes are not supported"),
            (["frieze", "--quiddity", "-1,2,3"],
             "quiddity entry -1 at position 0 is not positive"),
            (["reduce", "--rational", "3/2", "--diagonal", "-1,2"],
             "(-1, 2) is not a diagonal of the triangulation")):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"
    # every option string is still an option
    assert run(["embed", "--quiddity", "1,1,1", "-k", "-1"]) == (0, "(0,1) (1,1) (1,0)\n")
    assert run(["hj", "-h"]) == (0, "")
    assert capsys.readouterr().out.startswith("usage: friezelotus hj [-h]")
    for argv, option in ((["graph", "--poly", "--rational", "3/2"], "--poly"),
                         (["embed", "--quiddity", "1,1,1", "-k"], "-k"),
                         (["embed", "--quiddity", "-k", "1"], "--quiddity")):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err.endswith(
            f"error: argument {option}: expected one argument\n")


# every subcommand that reads --quiddity, with what else it needs
QUIDDITY_ROUTES = (["frieze"], ["embed"], ["lotus"], ["graph"], ["partials"],
                   ["render", "--format", "text"], ["render", "--format", "dot"],
                   ["render", "--format", "svg"], ["reduce", "--diagonal", "1,3"],
                   ["mutate", "--diagonal", "1,3"])


def assert_refused_alike(q, capsys, routes=QUIDDITY_ROUTES):
    """Every route refuses ``q`` with the one line of the quiddity gate."""
    message = outcome(_check_quiddity, q)
    assert isinstance(message, str)
    for route in routes:
        assert run([*route, "--quiddity", ",".join(map(str, q))]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_a_refused_quiddity_reads_the_same_in_every_subcommand(capsys):
    for m in range(2, 5):
        for q in product(range(-1, 5), repeat=m):
            if isinstance(outcome(_check_quiddity, q), str):
                assert_refused_alike(q, capsys)


def test_a_longer_refused_quiddity_reads_the_same_in_every_subcommand(capsys):
    # a sample of lengths 5..7, entries -1..4: the sweep above, run to
    # length 7, would make some 3.4 M invocations
    rng = random.Random(7)
    refused = 0
    while refused < 300:
        q = tuple(rng.randint(-1, 4) for _ in range(rng.randint(5, 7)))
        if isinstance(outcome(_check_quiddity, q), str):
            assert_refused_alike(q, capsys)
            refused += 1


def test_a_refused_quiddity_past_the_frieze_ceiling_reads_the_same(capsys):
    # the gate comes before the entry ceiling, so a refusal reads alike at
    # every size.  At each length, the quiddity of all ones, and the fan with
    # one entry moved by 1: the move cycles through both signs at the hub,
    # both ears, their neighbours and the middle (every move at every length
    # would be some 5 M invocations)
    routes = (["frieze"], ["render", "--format", "text"], ["embed"], ["lotus"], ["graph"],
              ["partials"])
    for m in range(3163, 3301):
        t = (0, 1, 2, m // 2, m - 2, m - 1)[m % 12 // 2]
        fan = fan_quiddity(m)
        assert_refused_alike((1,) * m, capsys, routes)
        assert_refused_alike(fan[:t] + (fan[t] + (-1, 1)[m % 2],) + fan[t + 1:], capsys, routes)


def test_frieze_of_slopes_is_the_frieze_of_their_lotus_polygon():
    l = lotus_of_slopes([Rational(3, 2), Rational(2, 1)])
    q = quiddity_of(polygon_of_lotus(l)[0])
    code, out = run(["frieze", "--slopes", "3/2,2/1", "--json"])
    assert code == 0
    assert json.loads(out) == frieze_to_json(frieze_from_quiddity(q))


def test_lotus_from_quiddity_input():
    code, out = run(["lotus", "--quiddity", "1,1,1"])
    assert code == 0
    assert "petals 1" in out


def test_version_flag():
    code, out = run(["--version"])
    assert code == 0


def test_lotus_json_shape_is_checked(capsys):
    expected = {
        '{"petals": "x"}':
            'bad lotus JSON: expected {"petals": [...], "marks": [...]}',
        '{"petals": [[[1,0],[0,true]]]}':
            "bad lotus JSON: a point is two integers, got [0, true]",
        '{"petals": [[[1,0],[0,1]]], "marks": [[1, true]]}':
            "bad lotus JSON: a point is two integers, got [1, true]",
        '{"petals": [[[1,0],[0,1.0]]]}':
            "bad lotus JSON: a point is two integers, got [0, 1.0]",
        '{"petals": [[[1,0],[0,1,2]]]}':
            "bad lotus JSON: a point is two integers, got [0, 1, 2]",
        '{"petals": [[[1,0]]]}':
            "bad lotus JSON: a petal is two points, got [[1, 0]]",
        '{"petals": [], "marks": 3}':
            'bad lotus JSON: expected {"petals": [...], "marks": [...]}',
        '[]': 'bad lotus JSON: expected {"petals": [...], "marks": [...]}',
    }
    for text, message in expected.items():
        assert run(["lotus", "--stdin", "--json"], stdin_text=text) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


def test_output_ceiling_rejects_before_building(capsys):
    big = f"{2 ** 200 + 1}/{2 ** 199 + 3}"
    for argv, slope in ((["hj", big], big), (["frieze", "--rational", big], big),
                        (["lotus", "--rational", "2000000/1"], "2000000/1"),
                        (["lotus", "--poly", "x^10000000-y"], "10000000/1")):
        assert run(argv) == (1, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: the slope {slope} gives a polygon of ")
        assert err.endswith(f" vertices, over the limit of {MAX_VERTICES}\n")
        assert err.count("\n") == 1


def test_newton_edge_ceiling_rejects_before_restricting(capsys):
    start = time.perf_counter()
    assert run(["graph", "--poly", "x^1000001-y^1000001"]) == (1, "")
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: the compact Newton edges have lattice length 1000001, "
        f"over the limit of {MAX_VERTICES}\n")


def test_poly_input_takes_the_public_newton_route(capsys):
    # --poly refuses what is_newton_nondegenerate refuses, with its message
    # or as degenerate, and otherwise acts on lotus_of_poly's lotus
    from friezelotus.polyparse import parse_poly
    from friezelotus.resolution import is_newton_nondegenerate, lotus_of_poly
    degenerate = "is degenerate: a compact-edge restriction is not square-free away from the axes"
    for argv in (["lotus", "--poly", "(x^2+y)*(x+y^2)"], ["graph", "--poly", "x^3-y^2"],
                 ["frieze", "--poly", "(x^5-y^2)*(x^3-y)*(x-y)"], ["partials", "--poly", "x^2"],
                 ["graph", "--poly", "(x^2+y)*(x^2+y)"], ["graph", "--poly", "x^1000001-y^1000001"]):
        f = parse_poly(argv[2])
        try:
            accepted = is_newton_nondegenerate(f)
        except ValueError as exc:
            assert run(argv) == (1, "")
            assert capsys.readouterr().err == f"error: {exc}\n"
            continue
        result, err = run(argv), capsys.readouterr().err
        if accepted:
            doc = json.dumps(lotus_to_json(lotus_of_poly(f)))
            assert result == run([argv[0], "--stdin"], doc), argv
            assert err == capsys.readouterr().err
        else:
            assert result == (1, "")
            assert err == f"error: {argv[2]!r} {degenerate}\n"
    # each refusal comes before the next: zero, the edge ceiling, degenerate
    long_square = "(x^1000001-y^1000001)*(x^1000001-y^1000001)"
    for poly, err in (("x-x", "the zero polynomial is excluded"),
                      (long_square, "the compact Newton edges have lattice length 2000002, "
                                    f"over the limit of {MAX_VERTICES}"),
                      ("x^2-2xy+y^2", f"'x^2-2xy+y^2' {degenerate}")):
        assert run(["graph", "--poly", poly]) == (1, "")
        assert capsys.readouterr().err == f"error: {err}\n"


def test_input_usage_is_the_recorded_layout(monkeypatch):
    # the input subcommands print fixed usage text: argparse's own at 80
    # columns up to line breaks, the same whatever the terminal width
    import argparse
    from friezelotus.cli import _build_parser
    for width in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", width)
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        for name in ("frieze", "lotus", "graph", "reduce", "mutate", "partials", "render"):
            p = subparsers[name]
            fixed, p.usage = p.format_usage(), None
            assert fixed.split() == p.format_usage().split()
            assert fixed.splitlines()[1].strip() == (
                "(--quiddity QUIDDITY | --rational RATIONAL | --slopes SLOPES | --poly POLY "
                "| --stdin)")


def test_frieze_entry_ceiling(capsys):
    fan = ",".join(map(str, fan_quiddity(3200)))
    for argv, m in ((["frieze", "--rational", "4001/4000"], 4003),
                    (["frieze", "--quiddity", fan], 3200),
                    (["render", "--format", "text", "--quiddity", fan], 3200)):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == (
            f"error: the frieze of a {m}-gon has {m * (m - 1) // 2} entries, "
            f"over the limit of {MAX_FRIEZE_ENTRIES}\n")


def _slopes_up_to(most: int) -> str:
    return ",".join(f"{n}/{q}" for n in range(1, most + 1) for q in range(1, most + 1)
                    if gcd(n, q) == 1)


def test_partials_are_held_to_the_entry_ceiling(capsys, monkeypatch):
    # the 43 slopes n/q with n, q <= 8 give 9 840 769 stages holding
    # 252 970 817 weights; the refusal comes before any stage is built
    start = time.perf_counter()
    assert run(["partials", "--slopes", _slopes_up_to(8)]) == (1, "")
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"error: the partial resolutions would have over {MAX_FRIEZE_ENTRIES} "
        "weights in all\n")
    # the 23 slopes with n, q <= 6 give 6 724 stages holding 90 856 weights
    import friezelotus.resolution as resolution_module
    monkeypatch.setattr(resolution_module, "MAX_FRIEZE_ENTRIES", 90_856)
    code, out = run(["partials", "--slopes", _slopes_up_to(6)])
    assert code == 0 and out.count("\n") == 6_724
    assert sum(len(line.split()) for line in out.splitlines()) == 90_856
    monkeypatch.setattr(resolution_module, "MAX_FRIEZE_ENTRIES", 90_855)
    assert run(["partials", "--slopes", _slopes_up_to(6)]) == (1, "")
    assert capsys.readouterr().err.count("\n") == 1


def test_count_refused_before_it_is_computed(capsys):
    limit = sys.get_int_max_str_digits()
    for argv in (["count", "10000000"], ["count", "10000000", "--json"]):
        start = time.perf_counter()
        assert run(argv) == (1, "")
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error: the count for n = 10000000 has more than {limit} digits\n")


def test_count_bound_refuses_only_counts_over_the_limit():
    # n just below the early bound take the exact path: under the default
    # limit 7 152 still prints, 7 153 to 7 156 are refused by conversion and
    # 7 157 on by the bound; under the smallest limit the bound never
    # refuses a count that the exact path would print
    saved = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code, out = run(["count", "7152"])
            assert code == 0 and len(out) == 4301
            assert [run(["count", str(n)])[0] for n in range(7153, 7160)] == [1] * 7
        assert err.getvalue().count("\n") == 7
        sys.set_int_max_str_digits(640)
        with contextlib.redirect_stderr(io.StringIO()):
            codes = {n: run(["count", str(n)])[0] for n in range(1000, 1200)}
        sys.set_int_max_str_digits(0)
        for n, code in codes.items():
            assert code == (0 if len(run(["count", str(n)])[1]) <= 641 else 1)
    finally:
        sys.set_int_max_str_digits(saved)


def test_periods_are_held_to_the_entry_ceiling(capsys, monkeypatch):
    for argv in (["frieze", "--rational", "3/2", "--periods", "1000000000"],
                 ["render", "--rational", "3/2", "--format", "text",
                  "--periods", "1000000000"]):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == (
            "error: 1000000000 periods of the frieze of a 5-gon exceed the limit "
            f"of {MAX_FRIEZE_ENTRIES} entries\n")
    # a 5-gon's frieze stores 10 entries a period
    import friezelotus.render as render_module
    monkeypatch.setattr(render_module, "MAX_FRIEZE_ENTRIES", 100)
    assert run(["frieze", "--rational", "3/2", "--periods", "10"])[0] == 0
    assert run(["frieze", "--rational", "3/2", "--periods", "11"]) == (1, "")
    assert capsys.readouterr().err.count("\n") == 1


def test_svg_of_no_finite_size_is_refused(capsys):
    fib = [1, 1]
    while len(fib) < 1600:
        fib.append(fib[-1] + fib[-2])
    for argv, scale in ((["--rational", "3/2", "--scale", "1e308"], "1e+308"),
                        (["--rational", f"{fib[-1]}/{fib[-2]}"], "40")):
        assert run(["render", "--format", "svg", *argv]) == (1, "")
        assert capsys.readouterr().err == (
            f"error: at scale {scale} the drawing's width or height is not finite\n")
    # nor one whose width or height rounds to 0, every point at 0,0
    for scale, shown in (("1e-320", "9.99989e-321"), ("0.0001", "0.0001")):
        argv = ["render", "--rational", "3/2", "--format", "svg", "--scale", scale]
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == (
            f"error: at scale {shown} the drawing's width or height rounds to 0\n")
    # nor one with a mark or weight label of size 0.  The 3/2 drawing is 3 by
    # 4 units: at 0.0002 its width shows as 0.001, but its marks as r="0"
    for weights in ([], ["--weights"]):
        argv = ["render", "--rational", "3/2", "--format", "svg", "--scale", "0.0002", *weights]
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == (
            "error: at scale 0.0002 a mark or weight label's size rounds to 0\n")
    # the triangle's lotus has no marks: only its labels can be refused
    triangle = ["render", "--quiddity", "1,1,1", "--format", "svg", "--scale", "0.0003"]
    code, out = run(triangle)
    assert code == 0 and 'width="0.001" height="0.001"' in out and "<circle" not in out
    assert run([*triangle, "--weights"]) == (1, "")
    assert capsys.readouterr().err == (
        "error: at scale 0.0003 a mark or weight label's size rounds to 0\n")
    # a label sits scale / 10 right of and above its vertex, here (2, 3)
    code, out = run(["render", "--rational", "3/2", "--format", "svg", "--scale", "0.04",
                     "--weights"])
    assert code == 0 and '<circle cx="0.08" cy="0.04" r="0.005" fill="#000000"/>' in out
    assert '<text x="0.084" y="0.036" font-size="0.013">-1</text>' in out
    code, out = run(["render", "--rational", "3/2", "--format", "svg", "--scale", "0.004"])
    assert code == 0 and 'r="0.001"' in out


def test_svg_grid_is_held_to_a_line_ceiling(capsys, monkeypatch):
    # 25 petals of slope 121393/75025 reach x = 75025 and y = 121393, one
    # grid line per lattice unit; the refusal comes before any line is built
    argv = ["render", "--rational", "121393/75025", "--format", "svg"]
    assert run(argv + ["--grid"]) == (1, "")
    assert capsys.readouterr().err == (
        f"error: the lattice grid would need over {MAX_GRID_LINES} lines\n")
    assert run(argv)[0] == 0
    # the 3/2 lotus reaches (2, 3): with the margin, 4 + 5 grid lines
    import friezelotus.render as render_module
    monkeypatch.setattr(render_module, "MAX_GRID_LINES", 9)
    code, out = run(["render", "--rational", "3/2", "--format", "svg", "--grid"])
    assert code == 0 and out.count("<line ") == 9
    monkeypatch.setattr(render_module, "MAX_GRID_LINES", 8)
    assert run(["render", "--rational", "3/2", "--format", "svg", "--grid"]) == (1, "")
    assert capsys.readouterr().err.count("\n") == 1


# ---------------------------------------------------------------------------
# fuzzing the command-line contract over the real grammar

_INPUTS = ("--slopes", "--rational", "--poly", "--quiddity", "--stdin")
_COMMANDS = ("hj", "frieze", "embed", "lotus", "graph", "reduce", "mutate",
             "partials", "count", "render")

# sizes past a ceiling, never just under one: 999998/1 passes every check
# and builds a lotus of 10^6 petals
_huge = st.integers(10 ** 6 + 1, 10 ** 9)
_small = st.integers(-2, 12).map(str)
_rationals = st.one_of(st.builds("{}/{}".format, st.integers(-3, 40), st.integers(-2, 30)),
                       _small, st.sampled_from(["", "x", "1/0", "0/0", "3//2", "inf"]),
                       st.builds("{}/1".format, _huge), st.builds("1/{}".format, _huge))
_quiddities = st.one_of(st.lists(st.integers(0, 5), min_size=1, max_size=9).map(
    lambda q: ",".join(map(str, q))), st.sampled_from(["", ",", "1,,1", "a,b", "-1,2,3", "-"]),
    # over the frieze ceiling, which admits 3 162 vertices
    st.integers(3163, 3300).map(lambda m: ",".join(["1"] * m)))
_polys = st.one_of(
    st.lists(st.builds("x^{}{}y^{}".format, st.integers(0, 9), st.sampled_from("+-"),
                       st.integers(0, 9)), min_size=1, max_size=3).map(
        lambda fs: "*".join(f"({f})" for f in fs)),
    st.sampled_from(["", "x", "x^3 - ", "(x^2-y)*(x^2-y)", "x*y", "2", "x^2+y^2+x*y",
                     "-x^2+y", "-(x^3-y^2)", "-x-y", "-"]),
    st.builds("x^{}-y".format, _huge), st.builds("x^{0}-y^{0}".format, _huge),
    # past the parser's nesting ceiling, closed or not
    st.integers(101, 5000).map(lambda n: "(" * n + "x" + ")" * n),
    st.integers(101, 5000).map(lambda n: "(" * n))


def _chain_doc(turns) -> str:
    """A lotus of 1 + len(turns) petals, each a child of the one before."""
    u, v = (1, 0), (0, 1)
    petals = [[u, v]]
    for right in turns:
        apex = (u[0] + v[0], u[1] + v[1])
        u, v = (apex, v) if right else (u, apex)
        petals.append([u, v])
    return json.dumps({"petals": petals, "marks": [[u[0] + v[0], u[1] + v[1]]]})


_points = st.lists(st.integers(-1, 3), min_size=0, max_size=3)
_lotus_docs = st.one_of(
    st.sampled_from(['{"petals": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]], "marks": [[2, 1]]}',
                     '{"petals": [[[1, 0], [0, 1]], [[1, 1], [1, 2]]], "marks": []}',
                     '{"petals": []}', '{"petals": [], "marks": [[1, 0]]}',
                     '{"petals": [[[1, 0], [0, 1]]], "marks": [[1, 1]]}', "", "[]", "{",
                     '{"petals": null}', '{"petals": [[[0, 1], [1, 0]]]}']),
    st.lists(st.lists(_points, max_size=3), max_size=4).map(
        lambda ps: json.dumps({"petals": ps})),
    st.integers(0, 299).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n, max_size=n)).map(_chain_doc),
    st.text(max_size=20),
    # nested past the JSON decoder's recursion limit
    st.integers(1000, 100_000).map(lambda n: "[" * n))


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = [command]
    if command == "hj":
        argv.append(draw(_rationals))
    elif command == "count":
        argv.append(draw(st.one_of(st.integers(-2, 60).map(str), st.just("x"))))
    else:
        flag = "--quiddity" if command == "embed" else draw(st.sampled_from(_INPUTS))
        value = {"--quiddity": _quiddities, "--rational": _rationals, "--poly": _polys,
                 "--slopes": st.lists(_rationals, min_size=1, max_size=3).map(",".join)}
        argv.append(flag)
        if flag != "--stdin":
            argv.append(draw(value[flag]))
    if command in ("reduce", "mutate"):
        argv += ["--diagonal", draw(st.one_of(
            st.builds("{},{}".format, st.integers(0, 10), st.integers(0, 10)),
            st.sampled_from(["", "1", "1,2,3", "a,b", "-1,2", "-2,-1"])))]
    if command == "embed" and draw(st.booleans()):
        argv += ["-k", draw(_small)]
    if command == "render":
        argv += ["--format", draw(st.sampled_from(["svg", "dot", "text", "png"]))]
        for flag in ("--grid", "--weights"):
            if draw(st.booleans()):
                argv.append(flag)
        if draw(st.booleans()):
            argv += ["--scale", draw(st.sampled_from(
                ["40", "0.5", "0", "-1", "-inf", "nan", "inf", "1e308", "1e-320", "x"]))]
    if command in ("frieze", "render") and draw(st.booleans()):
        argv += ["--periods", draw(_small)]
    if command != "render" and draw(st.booleans()):
        argv.append("--json")
    if draw(st.integers(0, 9)) == 0:  # a stray or missing argument
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--json", "--bogus", "-k", "--rational", "1"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(_argvs(), _lotus_docs)
@example(["count", "10000000"], "")
@example(["frieze", "--rational", "3/2", "--periods", "1000000000"], "")
@example(["render", "--rational", "3/2", "--format", "svg", "--scale", "1e308"], "")
@example(["render", "--rational", "121393/75025", "--format", "svg", "--grid"], "")
@example(["partials", "--slopes", _slopes_up_to(8)], "")
def test_cli_contract_holds_on_random_invocations(argv, stdin_text):
    # exit 0, 1 or 2, never an escaping exception, and a domain error is
    # exactly one line on stderr
    with contextlib.redirect_stderr(io.StringIO()) as err, \
            contextlib.redirect_stdout(io.StringIO()):
        code, _ = run(argv, stdin_text=stdin_text)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
