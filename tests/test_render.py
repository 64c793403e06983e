import importlib
import inspect
import pkgutil
import typing
import xml.etree.ElementTree as ET

import pytest

import friezelotus
from friezelotus.contfrac import Rational
from friezelotus.frieze import frieze_from_quiddity
from friezelotus.lotus import BASE_PETAL, Lotus, lotus_of_slope
from friezelotus.polygon import quiddity_of
from friezelotus.render import (RenderOptions, render_frieze_text,
                                render_graph_dot, render_lotus_svg)
from friezelotus.resolution import ResolutionGraph, graph_of_lotus

from conftest import enumerate_triangulations


def test_options_validate():
    for scale in (0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            RenderOptions(scale=scale)


def test_svg_is_wellformed_xml_with_expected_elements():
    svg = render_lotus_svg(lotus_of_slope(Rational(3, 2)))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert svg.count("<polygon") == 3
    assert svg.count("<circle") == 1
    assert svg.count("<polyline") == 1


def test_svg_base_petal():
    svg = render_lotus_svg(Lotus(frozenset({BASE_PETAL})))
    assert svg.count("<polygon") == 1
    assert svg.count("<circle") == 0


def test_svg_running_lotus_boundary_through_tip():
    svg = render_lotus_svg(lotus_of_slope(Rational(11, 8)), RenderOptions(scale=10))
    assert svg.count("<polygon") == 6
    # the tip (8,11) maps to x = 80, y = (12 - 11) * 10 = 10
    assert "80,10" in svg


def test_svg_deterministic():
    l = lotus_of_slope(Rational(11, 8))
    assert render_lotus_svg(l) == render_lotus_svg(l)


def test_svg_grid_and_weights_options():
    svg = render_lotus_svg(lotus_of_slope(Rational(3, 2)),
                           RenderOptions(show_grid=True, label_weights=True))
    assert "<line" in svg and "<text" in svg
    ET.fromstring(svg)


def test_frieze_text_width_zero():
    text = render_frieze_text(frieze_from_quiddity((1, 1, 1)))
    lines = text.splitlines()
    assert len(lines) == 4
    assert set(lines[0].split()) == {"0"}
    assert set(lines[1].split()) == {"1"}
    assert set(lines[2].split()) == {"1"}
    assert set(lines[3].split()) == {"0"}


def test_frieze_text_running_rows():
    f = frieze_from_quiddity((1, 2, 2, 3, 2, 1, 3, 4))
    text = render_frieze_text(f, periods=1)
    lines = text.splitlines()
    assert len(lines) == 9  # 0-row, 1-row, 5 interior, 1-row, 0-row
    assert lines[2].split() == ["2", "2", "3", "2", "1", "3", "4", "1"]
    assert lines[3].split() == ["3", "5", "5", "1", "2", "11", "3", "1"]
    assert lines[5].split() == ["11", "3", "1", "3", "5", "5", "1", "2"]
    assert "11" in lines[3] and "8" in lines[4]


def test_frieze_text_offsets_stagger():
    f = frieze_from_quiddity((1, 2, 2, 3, 2, 1, 3, 4))
    lines = render_frieze_text(f).splitlines()
    indents = [len(line) - len(line.lstrip()) for line in lines]
    assert indents == sorted(indents)
    assert len(set(indents)) == len(indents)


def test_frieze_text_periods():
    f = frieze_from_quiddity((1, 1, 1))
    two = render_frieze_text(f, periods=2)
    assert two.splitlines()[1].split() == ["1"] * 6
    with pytest.raises(ValueError):
        render_frieze_text(f, periods=0)


def spliced_frieze_text(f, periods):
    """Reference renderer: each value's characters spliced into a blank row
    so that it ends at the right edge of its cell."""
    count = periods * f.m
    widest = max(len(str(v)) for v in f.entries.values())
    cell = 2 * ((widest + 2) // 2 + 1)
    half = cell // 2
    out = []
    for d in range(f.m + 1):
        text = [" "] * (d * half + count * cell)
        for i in range(count):
            s = str(f.entry(i, i + d))
            end = d * half + i * cell + cell
            text[end - len(s):end] = list(s)
        out.append("".join(text).rstrip())
    return "\n".join(out) + "\n"


def test_frieze_text_matches_spliced_reference():
    for m in range(3, 10):
        for t in enumerate_triangulations(m):
            f = frieze_from_quiddity(quiddity_of(t))
            for periods in (1, 2, 3):
                assert render_frieze_text(f, periods) == spliced_frieze_text(f, periods)


def test_dot_cusp_graph():
    dot = render_graph_dot(graph_of_lotus(lotus_of_slope(Rational(3, 2))))
    assert dot.count("E1") == 2  # declaration + one chain edge
    assert '[label="-3"]' in dot and '[label="-1"]' in dot and '[label="-2"]' in dot
    assert dot.count("A1") == 2
    assert "E2 -- A1 [dir=forward]" in dot


def test_dot_single_node():
    dot = render_graph_dot(ResolutionGraph((-1,)))
    assert 'E1 [label="-1"]' in dot
    assert "--" not in dot


def test_dot_running_graph():
    dot = render_graph_dot(graph_of_lotus(lotus_of_slope(Rational(11, 8))))
    assert dot.count("[label=") == 6
    for w in ("-4", "-3", "-1", "-2"):
        assert f'[label="{w}"]' in dot


def test_dot_deterministic():
    g = graph_of_lotus(lotus_of_slope(Rational(11, 8)))
    assert render_graph_dot(g) == render_graph_dot(g)


def test_every_annotation_names_something_its_module_has():
    # annotations stay strings until read, so a name a module never
    # imported shows only here: each function, class and method is resolved
    for info in pkgutil.iter_modules(friezelotus.__path__):
        if info.name == "__main__":  # importing it runs the command
            continue
        module = importlib.import_module(f"friezelotus.{info.name}")
        for obj in vars(module).values():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)) \
                    or obj.__module__ != module.__name__:
                continue
            typing.get_type_hints(obj)
            for member in vars(obj).values() if inspect.isclass(obj) else ():
                # staticmethod, property and cached_property wrap a function
                for attr in ("__func__", "fget", "func"):
                    member = getattr(member, attr, member)
                if inspect.isfunction(member):
                    typing.get_type_hints(member)
