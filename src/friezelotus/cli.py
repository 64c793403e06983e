"""Command-line front end.

Every subcommand takes one input source (--quiddity, --rational, --slopes,
--poly, or --stdin for a lotus JSON produced by another invocation) and
emits human text by default or a stable JSON document with --json.  Exit
codes: 0 success, 1 domain error (one-line diagnostic on stderr), 2 usage
error.

JSON schemas
============
lotus     {"petals": [[[ux,uy],[vx,vy]], ...], "marks": [[x,y], ...]}
frieze    {"m": int, "quiddity": [...], "entries": {"i,j": value, ...}}
graph     {"weights": [...], "arrows": [node, ...]}   (nodes 1-based)
embedding {"vertices": [[x,y], ...]}
"""

from __future__ import annotations

import argparse
import re
import sys

from . import __version__
from .contfrac import Rational, _refuse_long_integer

# Each handler imports the modules it calls when it runs, so a fresh process
# compiles only what its subcommand needs.


def main(argv: list[str] | None = None) -> int:
    code, output = run(sys.argv[1:] if argv is None else argv)
    if output:
        sys.stdout.write(output)
    return code


_PARSERS: dict[str | None, argparse.ArgumentParser] = {}


def run(argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """Dispatch one invocation; returns (exit code, stdout text).

    Usage problems exit 2 via argparse; domain errors return 1 with the
    diagnostic on stderr.
    """
    argv = list(argv)
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = _PARSERS.get(command)
    if parser is None:
        parser = _PARSERS[command] = _build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0), ""
    try:
        output = _COMMANDS[args.command][1](args, stdin_text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 1, ""
        return 0, ""
    return 0, output


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The whole parser, or with ``command`` one that adds arguments only to
    that subcommand's parser.  Every subcommand is registered by name and
    help either way, which is all that parsing ``command`` reads of the
    others, so usage, help and error texts are the same."""
    parser = argparse.ArgumentParser(
        prog="friezelotus",
        description="Exact frieze / triangulation / lotus / resolution-graph calculator.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if command in (None, name):
            _add_arguments(p, name)

    # argparse reads a word that begins with "-" and names no option as a
    # value only when it looks like a negative number; widen that to every
    # such word (-x^2+y, -1/2).  Set after the options are added: argparse
    # tests each option string against the pattern as it is added, and one
    # that matched would turn the rule off.
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile("-[^-]")
    return parser


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    if name == "hj":
        p.add_argument("rational", help="value n/q (or a bare integer)")
    elif name == "embed":
        p.add_argument("--quiddity", required=True, help="comma-separated quiddity")
        p.add_argument("-k", type=_int, default=0, help="quiddity position placed at (0,1)")
    elif name == "count":
        p.add_argument("n", type=_int)
    elif name == "frieze":
        _input_group(p, name, "[--periods PERIODS] [--json] [--out FILE]")
        p.add_argument("--periods", type=_int, default=1, help="periods in the text grid")
    elif name == "render":
        _input_group(p, name, "--format {svg,dot,text} [--periods PERIODS]",
                     "[--scale SCALE] [--grid] [--weights] [--out FILE]")
        p.add_argument("--format", choices=("svg", "dot", "text"), required=True)
        p.add_argument("--periods", type=_int, default=1)
        p.add_argument("--scale", type=float, default=40.0)
        p.add_argument("--grid", action="store_true", help="draw lattice grid lines (svg)")
        p.add_argument("--weights", action="store_true", help="label weights (svg)")
    else:
        takes_diagonal = name in ("reduce", "mutate")
        _input_group(p, name, "--diagonal DIAGONAL " * takes_diagonal + "[--json] [--out FILE]")
        if takes_diagonal:
            p.add_argument("--diagonal", required=True, help="diagonal i,j (vertex labels)")
    if name != "render":
        p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")


def _int(text: str) -> int:
    """``int`` for options, refusing a number past the digit limit by position."""
    try:
        return int(text)
    except ValueError:
        try:
            _refuse_long_integer(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _input_group(p: argparse.ArgumentParser, name: str, *usage_tail: str) -> None:
    """A subcommand's one input source, with usage text fixed as 3.10-3.12
    wrap it at 80 columns: 3.13 would also wrap inside the input group."""
    indent = "\n" + " " * len(f"usage: friezelotus {name} ")
    p.usage = indent.join(("%(prog)s [-h]", "(--quiddity QUIDDITY | --rational RATIONAL"
                           " | --slopes SLOPES | --poly POLY | --stdin)", *usage_tail))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--quiddity", help="comma-separated quiddity, e.g. 1,2,2,3,2,1,3,4")
    group.add_argument("--rational", help="slope n/q")
    group.add_argument("--slopes", help="comma-separated slopes, e.g. 3/2,2/1")
    group.add_argument("--poly", help="polynomial, e.g. \"x^3-y^2\"")
    group.add_argument("--stdin", action="store_true",
                       help="read a lotus JSON document from stdin")


# ---------------------------------------------------------------------------
# input decoding


def _parse_quiddity(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        _refuse_long_integer(text)
        raise ValueError(f"bad quiddity {text!r}: comma-separated integers expected") from exc


def _parse_diagonal(text: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError as exc:
        _refuse_long_integer(text)
        raise ValueError(f"bad diagonal {text!r}: expected i,j") from exc
    return i, j


def _lotus_from_args(args, stdin_text: str | None):
    # the input group is required, so exactly one of these options is set
    if args.stdin:
        return lotus_from_json(stdin_text if stdin_text is not None else sys.stdin.read())
    if args.poly is not None:
        from .polyparse import parse_poly
        from .resolution import is_newton_nondegenerate, lotus_of_poly
        f = parse_poly(args.poly)
        if not is_newton_nondegenerate(f):
            raise ValueError(f"{args.poly!r} is degenerate: a compact-edge restriction "
                             "is not square-free away from the axes")
        return lotus_of_poly(f)
    from .lotus import lotus_of_polygon, lotus_of_slope, lotus_of_slopes
    if args.slopes is not None:
        try:
            return lotus_of_slopes(Rational.parse(s) for s in args.slopes.split(","))
        except ValueError:
            _refuse_long_integer(args.slopes)  # its position in the whole list
            raise
    if args.rational is not None:
        return lotus_of_slope(Rational.parse(args.rational))
    from .frieze import _check_quiddity
    return lotus_of_polygon(_check_quiddity(_parse_quiddity(args.quiddity)), 0)


def _frieze_from_args(args, stdin_text: str | None):
    from .frieze import frieze_from_quiddity
    if args.quiddity is not None:
        return frieze_from_quiddity(_parse_quiddity(args.quiddity))
    from .lotus import polygon_of_lotus
    from .polygon import quiddity_of
    q = quiddity_of(polygon_of_lotus(_lotus_from_args(args, stdin_text))[0])
    if args.rational is not None:
        q = q[-1:] + q[:-1]  # a slope's frieze starts at (1,0), the lotus's last vertex
    return frieze_from_quiddity(q)


# ---------------------------------------------------------------------------
# JSON codecs


def lotus_to_json(l) -> dict:
    return {"petals": [[list(p.u), list(p.v)] for p in sorted(l.petals)],
            "marks": [list(pt) for pt in sorted(l.marks)]}


def lotus_from_json(text: str):
    """Decode a lotus document; ``check_petal`` and ``check_lotus`` check its values."""
    import json

    from .lotus import check_lotus, check_petal
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"bad lotus JSON: {exc}") from exc
    if (type(doc) is not dict or type(doc.get("petals")) is not list
            or type(doc.get("marks", [])) is not list):
        raise ValueError('bad lotus JSON: expected {"petals": [...], "marks": [...]}')
    petals = []
    for pair in doc["petals"]:
        if type(pair) is not list or len(pair) != 2:
            raise ValueError(f"bad lotus JSON: a petal is two points, got {json.dumps(pair)}")
        petals.append(check_petal(_json_point(pair[0]), _json_point(pair[1])))
    marks = frozenset(map(_json_point, doc.get("marks", [])))
    return check_lotus(frozenset(petals), marks)


def _json_point(value) -> tuple[int, int]:
    # exact types, since bool is a subclass of int
    if type(value) is not list or len(value) != 2 or any(type(c) is not int for c in value):
        import json
        raise ValueError(f"bad lotus JSON: a point is two integers, got {json.dumps(value)}")
    return value[0], value[1]


def graph_to_json(g) -> dict:
    return {"weights": list(g.weights), "arrows": [a + 1 for a in sorted(g.arrows)]}


def _frieze_json(f) -> str:
    """The frieze document ``{"m", "quiddity", "entries": {"i,j": value}}``
    as ``_dump`` writes it, in the order ``sort_keys`` gives it: a key "i,j"
    sorts by str(i), then by str(j), as "," sorts below every digit.  Entry
    (i, i+k) comes from the continuant recurrence in k."""
    m, q = f.m, f.quiddity
    order = sorted(range(m), key=str)
    tails = [f'{j}": ' for j in range(m)]
    groups = []
    for i in order:
        if i == m - 1:  # no pair (i, j) with j > i
            continue
        e = [0, 1]  # e[k] = value(i, i+k)
        for a in q[i + 1:m - 1]:
            e.append(a * e[-1] - e[-2])
        head = f'"{i},'
        groups.append(", ".join([head + tails[j] + str(e[j - i]) for j in order if j > i]))
    quiddity = ", ".join(map(str, q))
    return f'{{"entries": {{{", ".join(groups)}}}, "m": {m}, "quiddity": [{quiddity}]}}\n'


def _dump(doc) -> str:
    import json
    return json.dumps(doc, separators=(", ", ": "), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_hj(args, stdin_text) -> str:
    from .contfrac import hj_expand, kidoh_dual
    value = Rational.parse(args.rational)
    terms = hj_expand(value)
    kd = kidoh_dual(value) if value.num > value.den else None
    if args.json:
        doc = {"rational": str(value), "expansion": list(terms)}
        if kd is not None:
            doc["dual"] = list(kd.dual)
            doc["kidoh"] = {"c": list(kd.c), "d": list(kd.d)}
        return _dump(doc)
    lines = [_bracket(terms)]
    if kd is not None:
        lines.append(f"dual {_bracket(kd.dual)}")
    return "\n".join(lines) + "\n"


def _bracket(terms) -> str:
    return "[" + ",".join(str(t) for t in terms) + "]"


def _cmd_frieze(args, stdin_text) -> str:
    f = _frieze_from_args(args, stdin_text)
    if args.json:
        return _frieze_json(f)
    from .render import render_frieze_text
    return render_frieze_text(f, args.periods)


def _cmd_embed(args, stdin_text) -> str:
    from .lotus import embed_polygon
    verts = embed_polygon(_parse_quiddity(args.quiddity), args.k)
    if args.json:
        return _dump({"vertices": [list(v) for v in verts]})
    return " ".join(f"({x},{y})" for x, y in verts) + "\n"


def _cmd_lotus(args, stdin_text) -> str:
    return _show_lotus(_lotus_from_args(args, stdin_text), args.json)


def _show_lotus(l, as_json: bool) -> str:
    if as_json:
        return _dump(lotus_to_json(l))
    lines = [f"petals {len(l.petals)}"]
    for p in sorted(l.petals):
        lines.append(f"  {p.u} {p.v} apex {p.apex}")
    if l.marks:
        lines.append("marks " + " ".join(str(pt) for pt in sorted(l.marks)))
    if not l.is_segment:
        from .resolution import curve_of_lotus
        lines.append(f"curve {curve_of_lotus(l)}")
    return "\n".join(lines) + "\n"


def _cmd_graph(args, stdin_text) -> str:
    from .resolution import graph_of_lotus
    g = graph_of_lotus(_lotus_from_args(args, stdin_text))
    if args.json:
        return _dump(graph_to_json(g))
    lines = [" ".join(str(w) for w in g.weights)]
    for a in sorted(g.arrows):
        lines.append(f"arrow {a + 1}")
    return "\n".join(lines) + "\n"


def _cmd_reduce(args, stdin_text) -> str:
    from .lotus import polygon_of_lotus
    from .transform import reduce as reduce_polygon
    l = _lotus_from_args(args, stdin_text)
    poly, _ = polygon_of_lotus(l)
    result = reduce_polygon(poly, _parse_diagonal(args.diagonal))
    if args.json:
        return _dump({"quiddity": list(result.quiddity),
                      "kept": {"m": result.polygon.m,
                               "diagonals": sorted(map(list, result.polygon.diagonals))},
                      "dropped": {"m": result.dropped.m,
                                  "diagonals": sorted(map(list, result.dropped.diagonals))}})
    return (f"quiddity {','.join(map(str, result.quiddity))}\n"
            f"kept {result.polygon.m}-gon, dropped {result.dropped.m}-gon\n")


def _cmd_mutate(args, stdin_text) -> str:
    from .transform import mutate_lotus
    l = _lotus_from_args(args, stdin_text)
    return _show_lotus(mutate_lotus(l, _parse_diagonal(args.diagonal)), args.json)


def _cmd_partials(args, stdin_text) -> str:
    from .resolution import partial_resolutions
    l = _lotus_from_args(args, stdin_text)
    pairs = partial_resolutions(l)
    if args.json:
        return _dump({"partials": [{"weights": list(g.weights),
                                    "petals": len(sub.petals)}
                                   for sub, g in pairs]})
    lines = [" ".join(str(w) for w in g.weights) for _, g in pairs]
    return "\n".join(lines) + "\n"


def _cmd_count(args, stdin_text) -> str:
    n = args.n
    # the interpreter's limit, or its default where the limit is off (0)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    too_long = f"the count for n = {n} has more than {limit} digits"
    ceiling = 10 ** limit
    # the count is at least C_n/2 >= 4**n / (2(2n+1)(n+1)), so once that
    # bound passes the ceiling the count need not be computed to be refused
    if 2 * n - (2 * (2 * n + 1) * (n + 1)).bit_length() >= ceiling.bit_length():
        raise ValueError(too_long)
    from .resolution import count_resolution_graphs
    value = count_resolution_graphs(n)
    if value >= ceiling:
        raise ValueError(too_long)
    if args.json:
        return _dump({"n": n, "count": value})
    return f"{value}\n"


def _cmd_render(args, stdin_text) -> str:
    if args.format == "text":
        from .render import render_frieze_text
        return render_frieze_text(_frieze_from_args(args, stdin_text), args.periods)
    if args.format == "dot":
        from .render import render_graph_dot
        from .resolution import graph_of_lotus
        return render_graph_dot(graph_of_lotus(_lotus_from_args(args, stdin_text)))
    from .render import RenderOptions, render_lotus_svg
    options = RenderOptions(scale=args.scale, show_grid=args.grid,
                            label_weights=args.weights)
    return render_lotus_svg(_lotus_from_args(args, stdin_text), options)


# subcommand -> (help, handler), in the order the help lists them
_COMMANDS = {
    "hj": ("continued-fraction expansion and its dual", _cmd_hj),
    "frieze": ("build and print a frieze", _cmd_frieze),
    "embed": ("embed a quiddity into the lattice", _cmd_embed),
    "lotus": ("petal chain of slopes or a polynomial", _cmd_lotus),
    "graph": ("dual resolution graph", _cmd_graph),
    "reduce": ("cut the polygon along a diagonal", _cmd_reduce),
    "mutate": ("flip a diagonal and re-embed the lotus", _cmd_mutate),
    "partials": ("all partial resolutions", _cmd_partials),
    "count": ("number of weighted A_n resolution chains", _cmd_count),
    "render": ("emit SVG, DOT, or a frieze grid", _cmd_render),
}
