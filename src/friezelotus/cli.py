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
import json
import sys
from collections.abc import Sequence

from . import __version__
from .contfrac import Rational, hj_expand, kidoh_dual
from .frieze import Frieze, frieze_from_quiddity
from .lotus import (Lotus, Petal, embed_polygon, lotus_of_polygon,
                    lotus_of_slope, lotus_of_slopes, polygon_of_lotus)
from .polygon import polygon_from_quiddity, quiddity_of
from .polyparse import parse_poly
from .render import RenderOptions, render_frieze_text, render_graph_dot, render_lotus_svg
from .resolution import (ResolutionGraph, count_resolution_graphs,
                         curve_of_lotus, graph_of_lotus, is_newton_nondegenerate,
                         lotus_of_poly, partial_resolutions)
from .transform import mutate_lotus, reduce as reduce_polygon


def main(argv: Sequence[str] | None = None) -> int:
    code, output = run(list(sys.argv[1:] if argv is None else argv))
    if output:
        sys.stdout.write(output)
    return code


_PARSER: argparse.ArgumentParser | None = None


def run(argv: Sequence[str], stdin_text: str | None = None) -> tuple[int, str]:
    """Dispatch one invocation; returns (exit code, stdout text).

    Usage problems exit 2 via argparse; domain errors return 1 with the
    diagnostic on stderr.
    """
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0), ""
    try:
        output = args.handler(args, stdin_text)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="friezelotus",
        description="Exact frieze / triangulation / lotus / resolution-graph calculator.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hj", help="continued-fraction expansion and its dual")
    p.add_argument("rational", help="value n/q (or a bare integer)")
    _common(p)
    p.set_defaults(handler=_cmd_hj)

    p = sub.add_parser("frieze", help="build and print a frieze")
    _input_opts(p)
    p.add_argument("--periods", type=int, default=1, help="periods in the text grid")
    _common(p)
    p.set_defaults(handler=_cmd_frieze)

    p = sub.add_parser("embed", help="embed a quiddity into the lattice")
    p.add_argument("--quiddity", required=True, help="comma-separated quiddity")
    p.add_argument("-k", type=int, default=0, help="quiddity position placed at (0,1)")
    _common(p)
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("lotus", help="petal chain of slopes or a polynomial")
    _input_opts(p)
    _common(p)
    p.set_defaults(handler=_cmd_lotus)

    p = sub.add_parser("graph", help="dual resolution graph")
    _input_opts(p)
    _common(p)
    p.set_defaults(handler=_cmd_graph)

    p = sub.add_parser("reduce", help="cut the polygon along a diagonal")
    _input_opts(p)
    p.add_argument("--diagonal", required=True, help="diagonal i,j (vertex labels)")
    _common(p)
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("mutate", help="flip a diagonal and re-embed the lotus")
    _input_opts(p)
    p.add_argument("--diagonal", required=True, help="diagonal i,j (vertex labels)")
    _common(p)
    p.set_defaults(handler=_cmd_mutate)

    p = sub.add_parser("partials", help="all partial resolutions")
    _input_opts(p)
    _common(p)
    p.set_defaults(handler=_cmd_partials)

    p = sub.add_parser("count", help="number of weighted A_n resolution chains")
    p.add_argument("n", type=int)
    _common(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("render", help="emit SVG, DOT, or a frieze grid")
    _input_opts(p)
    p.add_argument("--format", choices=("svg", "dot", "text"), required=True)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--scale", type=float, default=40.0)
    p.add_argument("--grid", action="store_true", help="draw lattice grid lines (svg)")
    p.add_argument("--weights", action="store_true", help="label weights (svg)")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")
    p.set_defaults(handler=_cmd_render)

    return parser


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")


def _input_opts(p: argparse.ArgumentParser) -> None:
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
        raise ValueError(f"bad quiddity {text!r}: comma-separated integers expected") from exc


def _parse_diagonal(text: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad diagonal {text!r}: expected i,j") from exc
    return (min(i, j), max(i, j))


def _lotus_from_args(args, stdin_text: str | None) -> Lotus:
    # the input group is required, so exactly one of these options is set
    if args.stdin:
        return lotus_from_json(stdin_text if stdin_text is not None else sys.stdin.read())
    if args.slopes is not None:
        return lotus_of_slopes(Rational.parse(s) for s in args.slopes.split(","))
    if args.rational is not None:
        return lotus_of_slope(Rational.parse(args.rational))
    if args.poly is not None:
        f = parse_poly(args.poly)
        if not is_newton_nondegenerate(f):
            raise ValueError(f"{args.poly!r} is degenerate: a compact-edge restriction "
                             "is not square-free away from the axes")
        return lotus_of_poly(f)
    return lotus_of_polygon(polygon_from_quiddity(_parse_quiddity(args.quiddity)), 0)


def _frieze_from_args(args, stdin_text: str | None) -> Frieze:
    if args.quiddity is not None:
        return frieze_from_quiddity(_parse_quiddity(args.quiddity))
    q = quiddity_of(polygon_of_lotus(_lotus_from_args(args, stdin_text))[0])
    if args.rational is not None:
        q = q[-1:] + q[:-1]  # a slope's frieze starts at (1,0), the lotus's last vertex
    return frieze_from_quiddity(q)


# ---------------------------------------------------------------------------
# JSON codecs


def lotus_to_json(l: Lotus) -> dict:
    return {"petals": [[list(p.u), list(p.v)] for p in sorted(l.petals)],
            "marks": [list(pt) for pt in sorted(l.marks)]}


def lotus_from_json(text: str) -> Lotus:
    """Decode a lotus document; ``Petal`` and ``Lotus`` check its values."""
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
        petals.append(Petal(_json_point(pair[0]), _json_point(pair[1])))
    marks = frozenset(map(_json_point, doc.get("marks", [])))
    return Lotus(frozenset(petals), marks)


def _json_point(value) -> tuple[int, int]:
    # exact types, since bool is a subclass of int
    if type(value) is not list or len(value) != 2 or any(type(c) is not int for c in value):
        raise ValueError(f"bad lotus JSON: a point is two integers, got {json.dumps(value)}")
    return value[0], value[1]


def graph_to_json(g: ResolutionGraph) -> dict:
    return {"weights": list(g.weights), "arrows": [a + 1 for a in sorted(g.arrows)]}


def frieze_to_json(f: Frieze) -> dict:
    return {"m": f.m, "quiddity": list(f.quiddity),
            "entries": {f"{i},{j}": v for (i, j), v in f.entries.items()}}


def _dump(doc) -> str:
    return json.dumps(doc, separators=(", ", ": "), sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_hj(args, stdin_text) -> str:
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
        return _dump(frieze_to_json(f))
    return render_frieze_text(f, args.periods)


def _cmd_embed(args, stdin_text) -> str:
    q = _parse_quiddity(args.quiddity)
    verts = embed_polygon(q, args.k)
    if args.json:
        return _dump({"vertices": [list(v) for v in verts]})
    return " ".join(f"({x},{y})" for x, y in verts) + "\n"


def _cmd_lotus(args, stdin_text) -> str:
    return _show_lotus(_lotus_from_args(args, stdin_text), args.json)


def _show_lotus(l: Lotus, as_json: bool) -> str:
    if as_json:
        return _dump(lotus_to_json(l))
    lines = [f"petals {len(l.petals)}"]
    for p in sorted(l.petals):
        lines.append(f"  {p.u} {p.v} apex {p.apex}")
    if l.marks:
        lines.append("marks " + " ".join(str(pt) for pt in sorted(l.marks)))
    if not l.is_segment:
        lines.append(f"curve {curve_of_lotus(l)}")
    return "\n".join(lines) + "\n"


def _cmd_graph(args, stdin_text) -> str:
    g = graph_of_lotus(_lotus_from_args(args, stdin_text))
    if args.json:
        return _dump(graph_to_json(g))
    lines = [" ".join(str(w) for w in g.weights)]
    for a in sorted(g.arrows):
        lines.append(f"arrow {a + 1}")
    return "\n".join(lines) + "\n"


def _cmd_reduce(args, stdin_text) -> str:
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
    l = _lotus_from_args(args, stdin_text)
    return _show_lotus(mutate_lotus(l, _parse_diagonal(args.diagonal)), args.json)


def _cmd_partials(args, stdin_text) -> str:
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
    value = count_resolution_graphs(n)
    if value >= ceiling:
        raise ValueError(too_long)
    if args.json:
        return _dump({"n": n, "count": value})
    return f"{value}\n"


def _cmd_render(args, stdin_text) -> str:
    if args.format == "text":
        return render_frieze_text(_frieze_from_args(args, stdin_text), args.periods)
    if args.format == "dot":
        return render_graph_dot(graph_of_lotus(_lotus_from_args(args, stdin_text)))
    options = RenderOptions(scale=args.scale, show_grid=args.grid,
                            label_weights=args.weights)
    return render_lotus_svg(_lotus_from_args(args, stdin_text), options)

