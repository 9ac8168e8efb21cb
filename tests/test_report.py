"""Report formatting helpers."""

from lefbench.fibration import total_space_homology
from lefbench.report import Report, fmt_group, homology_lines, thimble

import scen


def test_fmt_group():
    assert fmt_group(0, ()) == "0"
    assert fmt_group(1, ()) == "Z"
    assert fmt_group(2, ()) == "Z^2"
    assert fmt_group(0, (2,)) == "Z/2"
    assert fmt_group(1, (2, 4)) == "Z + Z/2 + Z/4"
    assert fmt_group(3, (5,)) == "Z^3 + Z/5"


def test_report_lines_and_render():
    r = Report()
    r.line("alpha", 1)
    r.line("beta", "two")
    assert r.render() == "alpha: 1\nbeta: two\n"


def test_blank_collapses():
    r = Report()
    r.blank()              # leading blank is dropped
    r.line("k", "v")
    r.blank()
    r.blank()              # consecutive blanks collapse
    r.raw("tail")
    assert r.render() == "k: v\n\ntail\n"


def test_homology_lines_ts3():
    table = total_space_homology(scen.ts3_fibration())
    lines = homology_lines(table)
    assert ("H0", "Z") in lines
    assert ("H3", "Z") in lines
    assert ("euler", "0") in lines
    assert ("mod2 H3", "1") in lines
    # sections come in display order: groups, euler, mod-2 ranks
    keys = [k for k, _ in lines]
    assert keys.index("euler") > keys.index("H3")
    assert keys.index("mod2 H0") > keys.index("euler")


def test_homology_lines_main_scenario():
    table = total_space_homology(scen.full_main_fibration("W1"))
    lines = dict(homology_lines(table))
    assert lines["H0"] == "Z"
    assert lines["H2"] == "Z"
    assert lines["H3"] == "Z"
    assert lines["euler"] == "1"


def test_notation_helpers():
    assert thimble("B") == "Th(B)"
