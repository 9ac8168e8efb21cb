"""SVG rendering: well-formed, deterministic, path-only output."""

import hashlib
import xml.etree.ElementTree as ET
from importlib import resources

import pytest

from lefbench.cli import main
from lefbench.svg import diagram_files, scenario_svg, stage_svg
from lefbench.wrapping import WrapParams, wrap

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


def _stage_svg(f, x, y, m):
    """The diagram of one stage, its spiral checked as every caller does."""
    spiral = wrap(f.crit_for(x).path, m, WrapParams(), f.disc, bend=x == y)
    spiral.validate(f.disc)
    return stage_svg(f.disc, f.crit_for(y).path, spiral)


def test_stage_svg_varies_with_level():
    f = scen.full_main_fibration("W1")
    d0 = _stage_svg(f, "b", "b", 0)
    d2 = _stage_svg(f, "b", "b", 2)
    assert d0 != d2
    assert set(_tags(d0)) == {f"{_NS}path"}
    # more wrapping means a longer spiral polyline
    assert len(d2) > len(d0)


def test_stage_svg_mixed_pair():
    f = scen.full_main_fibration("W0")
    text = _stage_svg(f, "a", "b", 1)
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


# sha256 of every diagram that `all W0.cfg --svg` and `render W1.cfg --svg`
# write, by file name after "main-<variant>-", generated from the Fraction
# vertex drawing before arcs stored integer triples.  The files below are
# the same at every resolution; the wrapped stages follow the grid.
_SVG_ANY_GRID = {
    "base.svg":
        "7d48ca2cc46f24dc8b707278121aecbf963b06e62c4c6f626777cbf490edb9d4",
    "fiber-aux-W0.svg":
        "07abe4e92ef569821c84c7007fd80cfd68342cc37b388153d33559aa8f8bbf58",
    "fiber-aux-W1.svg":
        "413fe1bb238bfdc27be768046ca2f1bc6426ff43b05727981e790facd6f8d8f3",
    "tower-a-a-m0.svg":
        "4948fab33beae46b53043a0a17a66508bbe1abdf842a478cc5905bbeeeb5bcb5",
    "tower-b-b-m0.svg":
        "1af52156c37609aa4326d6cb6bb1288560459964ef7f8865d443456a3df244b1",
}
_SVG_BY_GRID = {
    None: {
        "tower-a-a-m1.svg":
            "3c7d34d071586cab6797d5127b247ae6b266b9668e4ee9a04a0bbfea9c5c34c1",
        "tower-a-a-m2.svg":
            "1cba707feddd7f88d4a6c87c6bbdf8a313c3cc2a8c52f573b0b8ea8ba42462ad",
        "tower-a-a-m3.svg":
            "fabb38245207647223431178bbb7a82a563b70cd40698eebee28a698a897a4e2",
        "tower-a-b-m0.svg":
            "542270e86a88374427d33850d91545e346c93a3db84d3a62550027554276d8de",
        "tower-a-b-m1.svg":
            "d6be4a6ee6bfb8837f7c3e084b17ff1b64afa88042220bde711e4f37b5fcc888",
        "tower-a-b-m2.svg":
            "54cf7a30c9c7fd19b0772c93e3aa22a022da99a92d43989d810c8b40e998fbe7",
        "tower-a-b-m3.svg":
            "92ad1ce15355caf598c360687c5ecfc5463ec331267e42f172d59ea04ae1bdf2",
        "tower-b-b-m1.svg":
            "ea14995bde6e14649702c0a760fd13710a50483be5c7516cb5bd57de6639b3d8",
        "tower-b-b-m2.svg":
            "9017fc05609fd6f06dede4eb58dbc06ec0eff8d353c2aae7c0c5d1b23bf2ff5b",
        "tower-b-b-m3.svg":
            "7eb5f1035d2bf1d52cccc8bba9baf342818c4303e4ba0f85edf449eec9d7ba7f",
    },
    64: {
        "tower-a-a-m1.svg":
            "a072e2108ed6d045257837080c1ae4ece5b25d40e997ce6e81c2959dbd5a5788",
        "tower-a-a-m2.svg":
            "52bb8014ffd6476860e02d333004eeb844d1aadb04fc8d3a0e3ce658147eedce",
        "tower-a-a-m3.svg":
            "4b538d315ea019be03e0be1bdfe120217745992cd9e06c279ab0ded10f45f422",
        "tower-a-b-m0.svg":
            "a62c69fe0bf0db3724f9a547f55c6b443e37d2617a5da120fdfb805906987594",
        "tower-a-b-m1.svg":
            "433526d9120e257444ec71db055f3d256332d2d4a838c8454208a48a5fda2167",
        "tower-a-b-m2.svg":
            "a0d2b6426c759607fc41c19caa3dad94f998e925cd696cc56f1ebd02082226e9",
        "tower-a-b-m3.svg":
            "76ea97ccedf5fcb7e17064cb36fec45ea48bfd8ac37354c796930b73a1f71598",
        "tower-b-b-m1.svg":
            "2d251f4073788aa04fa4d94d33e7c2bca7d6e0bdf45e9a25de4f9fbb39e9ecb7",
        "tower-b-b-m2.svg":
            "5c3187e1c300fa57cb3da34cc2ccd9b2d53f297e8590339a23b771b672a98e21",
        "tower-b-b-m3.svg":
            "87ee1d380cf446a772d462575a03b212c3d175d11a582eb24cc59a888bf8be60",
    },
}


@pytest.mark.parametrize("resolution", [None, 64])
@pytest.mark.parametrize("command, variant", [("all", "W0"), ("render", "W1")])
def test_svg_bytes_are_pinned(command, variant, resolution, tmp_path,
                              capsys):
    cfg = str(resources.files("lefbench") / "scenarios" / f"{variant}.cfg")
    argv = [command, cfg, "--svg", str(tmp_path)]
    if resolution is not None:
        argv += ["--resolution", str(resolution)]
    assert main(argv) == 0
    capsys.readouterr()
    expect = {**_SVG_ANY_GRID, **_SVG_BY_GRID[resolution]}
    other = "W1" if variant == "W0" else "W0"
    del expect[f"fiber-aux-{other}.svg"]
    got = {p.name.removeprefix(f"main-{variant}-"):
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir()}
    assert got == expect
