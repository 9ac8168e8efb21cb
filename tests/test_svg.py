"""SVG rendering: well-formed, deterministic, path-only output."""

import xml.etree.ElementTree as ET
from fractions import Fraction as Q

from lefbench.disc import WrapSpec
from lefbench.svg import diagram_files, scenario_svg, stage_svg
from lefbench.tower import stage_spiral

import scen

_NS = "{http://www.w3.org/2000/svg}"


def _tags(text):
    root = ET.fromstring(text)
    assert root.tag == f"{_NS}svg"
    return [child.tag for child in root.iter() if child is not root]


def test_scenario_svg_well_formed_paths_only():
    for variant in ("W0", "W1"):
        text = scenario_svg(scen.full_main_fibration(variant))
        tags = _tags(text)
        assert tags and set(tags) == {f"{_NS}path"}


def test_scenario_svg_deterministic():
    a = scenario_svg(scen.full_main_fibration("W1"))
    b = scenario_svg(scen.full_main_fibration("W1"))
    assert a == b


def test_scenario_svg_element_census():
    # aux disc: boundary + 3 vanishing paths + 2 matching paths (the thimble
    # object L reuses a crit path and is not drawn twice) + 3 puncture marks
    text = scenario_svg(scen.aux_fibration("W0"))
    assert len(_tags(text)) == 1 + 3 + 2 + 3


def _stage_svg(f, x, y, spec):
    """The diagram of one stage, its spiral checked as every caller does."""
    spiral = stage_spiral(f, x, y, spec)
    spiral.validate(f.disc)
    return stage_svg(f.disc, f.crit_for(y).path, spiral)


def test_stage_svg_varies_with_level():
    f = scen.full_main_fibration("W1")
    d0 = _stage_svg(f, "b", "b", WrapSpec(0, Q(1, 64), Q(1, 128)))
    d2 = _stage_svg(f, "b", "b", WrapSpec(2, Q(1, 64), Q(1, 128)))
    assert d0 != d2
    assert set(_tags(d0)) == {f"{_NS}path"}
    # more wrapping means a longer spiral polyline
    assert len(d2) > len(d0)


def test_stage_svg_mixed_pair():
    f = scen.full_main_fibration("W0")
    text = _stage_svg(f, "a", "b", WrapSpec(1, Q(1, 64), Q(1, 128)))
    ET.fromstring(text)


def test_diagram_files_walks_the_fiber_chain():
    files = diagram_files(scen.full_main_fibration("W1"))
    assert [name for name, _ in files] == [
        "main-W1-base.svg", "main-W1-fiber-aux-W1.svg"]
    for _, text in files:
        ET.fromstring(text)


def test_diagram_files_plain_fiber():
    files = diagram_files(scen.ts3_fibration())
    assert [name for name, _ in files] == ["ts3-base.svg"]


def test_float_coordinates_fixed_precision():
    text = scenario_svg(scen.aux_fibration("W1"))
    for token in text.split():
        if token.startswith("-0.") or token.startswith("0."):
            digits = token.split(".", 1)[1].rstrip('"/>')
            assert len(digits) == 6
