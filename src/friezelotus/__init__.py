"""Exact combinatorics of friezes, triangulated polygons, lattice lotuses,
and dual resolution graphs of binomial-product plane curves."""

from .contfrac import (INFINITY, MAX_VERTICES, ZERO, KidohDual, Rational,
                       continuant, hj_evaluate, hj_expand, kidoh_dual)
from .frieze import (Frieze, complete_quiddity, frieze_from_quiddity,
                     frieze_of_triangulation, triangulation_of_frieze)
from .lotus import (BASE_PETAL, Lotus, Petal, embed_polygon, is_sublotus,
                    lateral_boundary, lotus_of_polygon, lotus_of_slope,
                    lotus_of_slopes, pinching_points, polygon_of_lotus)
from .polygon import (TriangulatedPolygon, diagonals_cross,
                      enumerate_triangulations, flip, make_polygon,
                      polygon_of_cf, quiddity_of)
from .polyparse import ParseError, Poly2, parse_poly, poly_to_string, restrict_to_edge
from .render import RenderOptions, render_frieze_text, render_graph_dot, render_lotus_svg
from .resolution import (PlaneCurve, ResolutionGraph, count_resolution_graphs,
                         curve_of_lotus, graph_of_lotus, is_newton_nondegenerate,
                         lotus_of_poly, newton_fan, partial_resolutions)
from .transform import ReductionResult, mutate_lotus, reduce, reduction_chain

__version__ = "0.1.0"

__all__ = [
    "BASE_PETAL", "Frieze", "INFINITY", "KidohDual", "Lotus",
    "MAX_VERTICES", "ParseError", "Petal", "PlaneCurve", "Poly2", "Rational",
    "ReductionResult", "RenderOptions", "ResolutionGraph",
    "TriangulatedPolygon", "ZERO", "complete_quiddity", "continuant",
    "count_resolution_graphs", "curve_of_lotus", "diagonals_cross",
    "embed_polygon", "enumerate_triangulations", "flip",
    "frieze_from_quiddity", "frieze_of_triangulation", "graph_of_lotus",
    "hj_evaluate", "hj_expand", "is_newton_nondegenerate", "is_sublotus",
    "kidoh_dual", "lateral_boundary", "lotus_of_poly", "lotus_of_polygon",
    "lotus_of_slope", "lotus_of_slopes", "make_polygon", "mutate_lotus",
    "newton_fan", "parse_poly", "partial_resolutions", "pinching_points",
    "poly_to_string", "polygon_of_cf", "polygon_of_lotus", "quiddity_of",
    "reduce", "reduction_chain", "render_frieze_text", "render_graph_dot",
    "render_lotus_svg", "restrict_to_edge", "triangulation_of_frieze",
]
