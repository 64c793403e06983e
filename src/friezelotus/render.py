"""Deterministic emitters: lotus SVG, frieze text grids, graph DOT."""

from __future__ import annotations

import math
from collections import namedtuple

from .frieze import MAX_FRIEZE_ENTRIES, Frieze, _rows

MAX_GRID_LINES = 10_000


class RenderOptions(namedtuple("RenderOptions", "scale show_grid label_weights")):
    __slots__ = ()

    def __new__(cls, scale: float = 40.0, show_grid: bool = False,
                label_weights: bool = False):
        if not 0 < scale < math.inf:
            raise ValueError("scale must be finite and positive")
        return super().__new__(cls, scale, show_grid, label_weights)


def _fmt(value: float) -> str:
    text = f"{value:.3f}".rstrip("0").rstrip(".")
    return text if text != "-0" else "0"


def render_lotus_svg(l, options: RenderOptions = RenderOptions()) -> str:
    """Standalone SVG of the lotus ``l``: petals as filled triangles at exact
    lattice positions (y axis flipped so lattice up renders up), the lateral
    boundary as a highlighted polyline, marks as filled circles."""
    from .lotus import lateral_boundary, petal_counts
    margin = 1
    boundary = lateral_boundary(l)
    max_x = max(p[0] for p in boundary) + margin
    max_y = max(p[1] for p in boundary) + margin
    scale = options.scale
    try:
        finite = math.isfinite(max(max_x, max_y) * scale)
    except OverflowError:  # a lattice coordinate beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"at scale {scale:g} the drawing's width or height is not finite")
    width, height = _fmt(max_x * scale), _fmt(max_y * scale)
    if "0" in (width, height):
        raise ValueError(f"at scale {scale:g} the drawing's width or height rounds to 0")
    radius, font_size = _fmt(scale / 8), _fmt(scale / 3)
    if (l.marks and radius == "0") or (options.label_weights and font_size == "0"):
        raise ValueError(f"at scale {scale:g} a mark or weight label's size rounds to 0")
    if options.show_grid and max_x + max_y + 2 > MAX_GRID_LINES:
        raise ValueError(f"the lattice grid would need over {MAX_GRID_LINES} lines")

    def at(p: tuple[int, int]) -> str:
        return f"{_fmt(p[0] * scale)},{_fmt((max_y - p[1]) * scale)}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
    ]
    if options.show_grid:
        for gx in range(max_x + 1):
            lines.append(f'  <line x1="{_fmt(gx * scale)}" y1="0" x2="{_fmt(gx * scale)}" '
                         f'y2="{height}" stroke="#dddddd" stroke-width="1"/>')
        for gy in range(max_y + 1):
            lines.append(f'  <line x1="0" y1="{_fmt(gy * scale)}" x2="{width}" '
                         f'y2="{_fmt(gy * scale)}" stroke="#dddddd" stroke-width="1"/>')
    for petal in sorted(l.petals):
        corners = " ".join(at(p) for p in (petal.u, petal.v, petal.apex))
        lines.append(f'  <polygon points="{corners}" fill="#f5c87a" '
                     f'stroke="#333333" stroke-width="1"/>')
    path = " ".join(at(p) for p in boundary)
    lines.append(f'  <polyline points="{path}" fill="none" stroke="#1f4fd8" '
                 f'stroke-width="3"/>')
    if options.label_weights:
        for p, count in zip(boundary[1:], petal_counts(boundary)):
            lines.append(f'  <text x="{_fmt(p[0] * scale + scale / 10)}" '
                         f'y="{_fmt((max_y - p[1]) * scale - scale / 10)}" '
                         f'font-size="{font_size}">{-count}</text>')
    for p in sorted(l.marks):
        cx, cy = p[0] * scale, (max_y - p[1]) * scale
        lines.append(f'  <circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                     f'r="{radius}" fill="#000000"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_frieze_text(f: Frieze, periods: int = 1) -> str:
    """Offset grid: row 0s, row 1s, the interior rows, row 1s, row 0s.

    Row d holds the entries (i, i+d) for i = 0 .. periods*m - 1; consecutive
    rows are shifted by half a cell, entries right-aligned in fixed cells.
    Both the width pass and the grid read the rows of ``frieze._rows``.
    """
    if periods < 1:
        raise ValueError("periods must be >= 1")
    m = f.m
    if periods * (m * (m - 1) // 2) > MAX_FRIEZE_ENTRIES:
        raise ValueError(f"{periods} periods of the frieze of a {m}-gon exceed "
                         f"the limit of {MAX_FRIEZE_ENTRIES} entries")
    # rows 1..m-1 hold every entry, all positive, and row m-d is row d
    # rotated (the glide map), so rows up to m/2 give the widest
    widest = len(str(max(max(row) for row, _ in zip(_rows(f.quiddity), range(m // 2 + 1)))))
    cell = 2 * ((widest + 2) // 2 + 1)
    half = cell // 2
    period = f"%{cell}d" * m
    return "".join(" " * (d * half) + (period % tuple(row)) * periods + "\n"
                   for d, row in enumerate(_rows(f.quiddity)))


def render_graph_dot(g) -> str:
    """Graphviz source for the weighted chain of the resolution graph ``g``;
    arrowheads become unlabeled point nodes attached with directed edges."""
    lines = ["graph resolution {", "  rankdir=LR;", '  node [shape=circle];']
    for t, w in enumerate(g.weights, start=1):
        lines.append(f'  E{t} [label="{w}"];')
    for t in range(1, len(g.weights)):
        lines.append(f"  E{t} -- E{t + 1};")
    for n, a in enumerate(sorted(g.arrows), start=1):
        lines.append(f'  A{n} [shape=point, label=""];')
        lines.append(f"  E{a + 1} -- A{n} [dir=forward];")
    lines.append("}")
    return "\n".join(lines) + "\n"
