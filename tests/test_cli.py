import json
import sys

from friezelotus.cli import run
from friezelotus.contfrac import MAX_VERTICES
from friezelotus.frieze import MAX_FRIEZE_ENTRIES


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


def test_partials_running():
    code, out = run(["partials", "--poly", "x^11-y^8"])
    assert out.splitlines() == ["-4 -3 -1 -2 -3 -2", "-4 -2 -1 -3 -2",
                                "-4 -1 -2 -2", "-3 -1 -2", "-2 -1", "-1"]


def test_embed():
    code, out = run(["embed", "--quiddity", "1,2,2,3,2,1,3,4", "-k", "1"])
    assert out == "(0,1) (1,2) (2,3) (5,7) (8,11) (3,4) (1,1) (1,0)\n"


def test_frieze_text_and_json():
    code, out = run(["frieze", "--rational", "11/8"])
    assert code == 0
    assert "11" in out
    code, out = run(["frieze", "--quiddity", "1,2,2,3,2,1,3,4", "--json"])
    doc = json.loads(out)
    assert doc["m"] == 8
    assert doc["entries"]["0,5"] == 11
    assert doc["entries"]["1,5"] == 8


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


def test_frieze_entry_ceiling(capsys):
    for argv, m in ((["frieze", "--rational", "4001/4000"], 4003),
                    (["frieze", "--quiddity", ",".join(["1"] * 3200)], 3200)):
        assert run(argv) == (1, "")
        assert capsys.readouterr().err == (
            f"error: the frieze of a {m}-gon has {m * (m - 1) // 2} entries, "
            f"over the limit of {MAX_FRIEZE_ENTRIES}\n")
