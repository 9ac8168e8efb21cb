"""End-to-end tests for the ``lefbench`` command line tool."""

import errno
import gc
import hashlib
import inspect
import io
import os
import random
import re
import resource
import shutil
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import lefbench
from lefbench import (errors, minpos, oracle, rank_calculus, snf, tower,
                      wrapping)
from lefbench.cli import COMMANDS, main
from lefbench.config import NESTING_LIMIT, load_config
from lefbench.disc import PlanarArc
from lefbench.exactgeom import circle_hpoint, closed_segments_touch
from lefbench.report import fmt_group
from oracles import sympy_invariant_factors

INVALID_CFG = """\
[disc d]
puncture p = -1/2 0
puncture q = 1/2 0
resolution = 16

[fiber F]
dim = 2
homology 0 = 1
homology 1 = 1
class c = 1

[fibration bad]
disc = d
fiber = F
reference-angle = 1/4
crit p = c | 0
crit q = c | 1/2

[run]
fibration = bad
"""


GOLDEN = Path(__file__).parent / "golden" / "w1_all.txt"
GOLDEN_W0 = Path(__file__).parent / "golden" / "w0_all.txt"
GOLDEN_MUTANTS = Path(__file__).parent / "golden" / "mutants.txt"


def shipped(name: str) -> str:
    return str(resources.files("lefbench") / "scenarios" / name)


# --------------------------------------------------------------------------
# happy paths
# --------------------------------------------------------------------------

def test_all_w0(capsys):
    assert main(["all", shipped("W0.cfg")]) == 0
    out = capsys.readouterr().out
    assert "scenario: main-W0" in out
    assert "validation: ok" in out
    assert "HF(A,B): 2" in out
    assert "HF(B, tw_A B): 2" in out
    assert "Hom_FS(Th(B),Th(B)): 1" in out
    assert "Hom_FS(Th(A),Th(B)): 2" in out
    assert "Hom_FS(Th_1(B),Th(B)): 3" in out
    assert "unit fate: Survives" in out
    assert "HW(Th(B),Th(B)): nonzero" in out
    assert "HW(Th(A),Th(A)): nonzero" in out
    assert "HW(Th(A),Th(B)): nonzero" in out
    assert "obstruction: NoConclusion" in out
    assert "[unit-survival]" in out and "[sphere-witness]" in out


def test_w0_with_matching_b_redrawn_above_the_axis(tmp_path, capsys):
    # no puncture lies between the redrawn B and the shipped one, so the
    # two are isotopic rel endpoints and HF(A,B) keeps rank 2; the redrawn
    # B crosses A once, and that crossing goes as a half-bigon
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "b-above.cfg"
    cfg.write_text(re.sub(
        r"^matching B = .*$",
        "matching B = c-left c-right | -1/5 3/10 ; 1/10 1/10", text,
        flags=re.MULTILINE))
    for command in ("floer-ranks", "all"):
        assert main([command, str(cfg)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "HF(A,B): 2\n" in out


def test_all_w1(capsys):
    assert main(["all", shipped("W1.cfg")]) == 0
    out = capsys.readouterr().out
    assert "HF(A,B): 2" in out
    assert "HF(B, tw_A B): 4" in out
    assert "Hom_FS(Th_1(B),Th(B)): 3" in out
    assert "unit fate: Dies" in out
    assert "HW(Th(B),Th(B)): 0" in out
    assert "HW(Th(A),Th(A)): 0" in out
    assert "HW(Th(A),Th(B)): 0" in out
    assert "obstruction: Obstructed" in out
    assert "PROOF TRACE" in out
    assert "[unit-death]" in out and "[module-vanishing]" in out


def test_homology_ts3(capsys):
    assert main(["homology", shipped("ts3.cfg")]) == 0
    out = capsys.readouterr().out
    assert "H0: Z" in out and "H3: Z" in out
    assert "euler: 0" in out
    assert "H1" not in out and "H2" not in out


def test_homology_empty_fibration(capsys):
    assert main(["homology", shipped("empty-fibration.cfg")]) == 0
    out = capsys.readouterr().out
    # no critical values: the total space retracts to the annulus fiber
    assert "critical values: 0" in out
    assert "H0: Z" in out and "H1: Z" in out
    assert "euler: 0" in out


def test_floer_ranks_lists_oracle_facts(capsys):
    assert main(["floer-ranks", shipped("W1.cfg")]) == 0
    out = capsys.readouterr().out
    assert "fact: rank(A,B) = 2  [cited:matching-paths-share-two-endpoints]" in out
    assert "fiber fact: label belt (sphere)" in out
    assert "pants image rank: 1" in out


def test_fact_lines_sort_by_kind_pair_and_text(tmp_path, capsys):
    # every kind of fact sorts alike: by kind, then by its unordered pair
    # of labels, then by its printed text, so a fact declared again with
    # its labels swapped prints after its twin wherever it was declared
    text = Path(shipped("W0.cfg")).read_text()
    for old, new in [("rank A B", "rank B A = 2 !assumed swapped"),
                     ("relation = disjoint B L",
                      "relation = disjoint L B !assumed swapped"),
                     ("parity A B", "parity B A = all-same !assumed swapped")]:
        assert text.count(old) == 1
        text = text.replace(old, f"{new}\n{old}")
    cfg = tmp_path / "swapped.cfg"
    cfg.write_text(text)
    assert main(["floer-ranks", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert [line for line in out.splitlines()
            if line.startswith("fact: ")] == [
        "fact: label A (sphere)",
        "fact: label B (sphere)",
        "fact: label L",
        "fact: rank(A,B) = 2  [cited:matching-paths-share-two-endpoints]",
        "fact: rank(B,A) = 2  [assumed:swapped]",
        "fact: disjoint(A,L)  [cited:paths-apart]",
        "fact: disjoint(B,L)  [cited:paths-apart]",
        "fact: disjoint(L,B)  [assumed:swapped]",
        "fact: isotopic(A,B)  [cited:pushed-off-matching-paths]",
        "fact: parity(A,A) = all-same  [assumed:uniform-self-grading]",
        "fact: parity(A,B) = all-same"
        "  [cited:endpoint-generators-share-grading]",
        "fact: parity(B,A) = all-same  [assumed:swapped]",
        "fact: parity(B,B) = all-same  [assumed:uniform-self-grading]",
    ]


def test_hw_sections(capsys):
    assert main(["hw", shipped("W0.cfg")]) == 0
    out = capsys.readouterr().out
    assert "wrap delta: 1/64" in out
    assert "tower Th(B):Th(B) stage m=3: 7 generator(s), u 1, certificate none" in out
    assert "tower Th(A):Th(B) stage m=1: 2 generator(s), u 0, certificate 2" in out
    assert "continuation 0->1: exists; unit image persists" in out


@pytest.mark.parametrize("edits, shown", [
    (("delta = 1/64", "delta = 1/32", "levels = 0 1 2 3", ""),
     "wrap delta: 1/32\nwrap levels: 0 1 2 3\n"),
    (("delta = 1/64", "", "levels = 0 1 2 3", "levels = 0 2"),
     "wrap delta: 1/64\nwrap levels: 0 2\n"),
])
def test_wrap_section_keeps_the_default_of_a_missing_key(edits, shown,
                                                         tmp_path, capsys):
    # a [wrap] section with one key reports the other key's default
    assert main(["hw", str(_edited(tmp_path, "W0", *edits))]) == 0
    assert shown in capsys.readouterr().out


def test_out_writes_file_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "report.txt"
    assert main(["validate", shipped("W0.cfg"), "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("scenario: main-W0\n")


def test_reports_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["all", shipped("W1.cfg"), "--out", str(a)]) == 0
    assert main(["all", shipped("W1.cfg"), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_resolution_override(capsys):
    assert main(["all", shipped("W0.cfg"), "--resolution", "32"]) == 0
    out = capsys.readouterr().out
    assert "unit fate: Survives" in out


def test_w0_report_matches_golden(tmp_path):
    # pins every "unit image persists" note and nonzero HW line; the W1
    # golden pins the "dies" notes and the vanishing ones
    target = tmp_path / "w0_all.txt"
    assert main(["all", shipped("W0.cfg"), "--out", str(target)]) == 0
    assert target.read_bytes() == GOLDEN_W0.read_bytes()


@pytest.mark.parametrize("resolution", [1, 4, 8, 9, 16, 32, 64])
def test_w1_report_is_grid_independent(resolution, tmp_path):
    # the towers count their stages from words, so every boundary grid
    # gives the same report, byte for byte
    target = tmp_path / "w1_all.txt"
    assert main(["all", shipped("W1.cfg"), "--resolution", str(resolution),
                 "--out", str(target)]) == 0
    assert target.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("scenario", ["W0.cfg", "W1.cfg"])
def test_hw_is_grid_independent(scenario, capsys):
    # no spiral is built, so grids too coarse to embed one count the same
    reports = set()
    for resolution in [1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 256]:
        assert main(["hw", shipped(scenario),
                     "--resolution", str(resolution)]) == 0
        reports.add(capsys.readouterr())
    assert len(reports) == 1


def test_deep_levels_keep_the_closed_forms(tmp_path, capsys):
    # 2m+1 generators with u on a self-tower, 2m on a:b, at levels whose
    # spirals a resolution-16 grid cannot embed
    levels = range(0, 49, 12)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(Path(shipped("W1.cfg")).read_text().replace(
        "levels = 0 1 2 3", "levels = " + " ".join(map(str, levels))))
    assert main(["hw", str(cfg), "--resolution", "16"]) == 0
    out = capsys.readouterr().out
    for m in levels:
        for tower, count, u in (("Th(B):Th(B)", 2 * m + 1, 1),
                                ("Th(A):Th(A)", 2 * m + 1, 1),
                                ("Th(A):Th(B)", 2 * m, 0)):
            assert (f"tower {tower} stage m={m}: {count} generator(s),"
                    f" u {u}, certificate") in out


@pytest.mark.parametrize("command", ["render", "all"])
def test_coarse_grid_spiral_is_rejected(command, tmp_path, capsys):
    # at resolution 8 the wrapped spirals self-intersect; the stage
    # diagrams of render and all --svg check each spiral before drawing it
    argv = [command, shipped("W1.cfg"), "--resolution", "8",
            "--svg", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error[NonEmbeddableInput]:")


_CHORDS_DIP = ("error[SpiralCollision]: spiral chords dip to puncture radius;"
               " raise the run disc's resolution or --resolution\n")


def _self_intersects(j):
    return (f"error[NonEmbeddableInput]: arc self-intersects between segments"
            f" 0 and {j} (if this arc is a synthesized spiral, raise the run"
            f" disc's resolution or --resolution)\n")


# resolution -> stderr of ``render --svg`` on W0 and on W1
COARSE_GRID_ERRORS = {1: _CHORDS_DIP, 2: _CHORDS_DIP, 3: _CHORDS_DIP,
                      4: _CHORDS_DIP, 5: _self_intersects(6),
                      6: _self_intersects(7), 7: _self_intersects(8),
                      8: _self_intersects(9)}


@pytest.mark.parametrize("scenario", ["W0.cfg", "W1.cfg"])
@pytest.mark.parametrize("resolution", sorted(COARSE_GRID_ERRORS))
def test_coarse_grid_failure_bytes(scenario, resolution, tmp_path, capsys):
    # the chord check of wrap decides 1-4, the embedding check of the first
    # stage spiral 5-8: pinned byte for byte, first reported pair included
    assert main(["render", shipped(scenario), "--resolution", str(resolution),
                 "--svg", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", COARSE_GRID_ERRORS[resolution])


def test_render_refuses_a_spiral_over_the_vertex_budget(tmp_path, capsys):
    # a render counts its spirals' vertices before it builds one, so the
    # refusal costs no spiral
    cfg = _edited(tmp_path, "W1", "levels = 0 1 2 3", "levels = 0 1000000")
    start = time.process_time()
    assert main(["render", str(cfg), "--svg", str(tmp_path / "svg")]) == 1
    assert time.process_time() - start < 1
    assert capsys.readouterr().err == (
        "error[SpiralTooLong]: the spirals of this render at boundary"
        " resolution 16 need 48000024 vertices, above the budget of 250000;"
        " the deepest is tower b:b at level 1000000\n")


def test_render_budget_bounds_the_sum_of_its_spirals(monkeypatch, tmp_path,
                                                     capsys):
    # every spiral of this render is under the budget, their sum is not:
    # refused before the first is wrapped
    text = Path(shipped("W1.cfg")).read_text()
    assert text.count("resolution = 16\n") == 2
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(text.replace("resolution = 16\n", "resolution = 100000\n"))
    spirals = []
    _count_calls(monkeypatch, wrapping.wrap, spirals)
    start = time.process_time()
    assert main(["render", str(cfg), "--svg", str(tmp_path / "svg")]) == 1
    assert time.process_time() - start < 0.2
    assert not spirals and not (tmp_path / "svg").exists()
    assert capsys.readouterr() == ("", (
        "error[SpiralTooLong]: the spirals of this render at boundary"
        " resolution 100000 need 1812544 vertices, above the budget of"
        " 250000; the deepest is tower a:b at level 3\n"))


@pytest.mark.parametrize("command, resolution, vertices", [
    ("render", 2 ** 62, 83586809083996405808),
    ("all", 10 ** 20 - 1, 1812500000000000000030),
])
def test_render_refuses_spirals_past_sys_maxsize(command, resolution,
                                                 vertices, tmp_path, capsys):
    # a spiral longer than sys.maxsize is counted all the same, and refused
    if command == "render":
        argv = ["render", shipped("W0.cfg"), "--resolution", str(resolution)]
    else:
        argv = ["all", str(_edited(tmp_path, "W0", "resolution = 16\n\n"
                                   "[fibration main-W0]",
                                   f"resolution = {resolution}\n\n"
                                   "[fibration main-W0]"))]
    assert main([*argv, "--svg", str(tmp_path / "svg")]) == 1
    assert not (tmp_path / "svg").exists()
    assert capsys.readouterr() == ("", (
        "error[SpiralTooLong]: the spirals of this render at boundary"
        f" resolution {resolution} need {vertices} vertices, above the"
        " budget of 250000; the deepest is tower a:b at level 3\n"))


@pytest.mark.parametrize("resolution", [8, 32])
@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("scenario", ["W0", "W1"])
def test_resolution_overrides_the_run_disc_only(scenario, command, resolution,
                                                tmp_path, capsys):
    # --resolution N runs as the config whose run disc alone declares
    # resolution N: the same report, error, exit code and diagrams
    run_disc = f"resolution = 16\n\n[fibration main-{scenario}]"
    edited = _edited(tmp_path, scenario, run_disc,
                     run_disc.replace("16", str(resolution)))
    runs = []
    for argv, svg in (([shipped(f"{scenario}.cfg"), "--resolution",
                        str(resolution)], tmp_path / "flag"),
                      ([str(edited)], tmp_path / "line")):
        code = main([command, *argv, "--svg", str(svg)])
        runs.append((code, capsys.readouterr(), sorted(
            (p.name, p.read_bytes()) for p in svg.glob("*.svg"))))
    assert runs[0] == runs[1]
    if command in ("render", "all") and resolution == 32:
        assert runs[0][2], "no diagram compared"


@pytest.mark.parametrize("scenario", ["W0", "W1"])
def test_inner_disc_grid_is_never_read(scenario, tmp_path, capsys):
    # a grid of 3 on the inner disc would fail any spiral drawn on it
    inner = {"W0": "c-out = 0 -1/2", "W1": "c-mid = 0 0"}[scenario]
    edited = _edited(tmp_path, scenario, f"puncture {inner}\nresolution = 16",
                     f"puncture {inner}\nresolution = 3")
    runs = []
    for cfg, svg in ((shipped(f"{scenario}.cfg"), tmp_path / "shipped"),
                     (str(edited), tmp_path / "inner")):
        code = main(["all", cfg, "--svg", str(svg)])
        runs.append((code, capsys.readouterr(), sorted(
            (p.name, p.read_bytes()) for p in svg.glob("*.svg"))))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][2]


_NOT_A_GRID = "resolution must be a positive integer\n"


@pytest.mark.parametrize("resolution", ["0", "-3"])
@pytest.mark.parametrize("command", ["validate", "hw"])
@pytest.mark.parametrize("scenario", ["W0", "W1"])
def test_resolution_flag_below_one_is_refused(scenario, command, resolution,
                                              capsys):
    assert main([command, shipped(f"{scenario}.cfg"),
                 "--resolution", resolution]) == 1
    assert capsys.readouterr() == ("", "error[LefbenchError]: " + _NOT_A_GRID)


@pytest.mark.parametrize("disc, header", [("c-mid = 0 0", 6),
                                          ("b = 1/2 0", 35)])
def test_resolution_line_below_one_is_refused_at_its_disc(disc, header,
                                                          tmp_path, capsys):
    # the inner disc and the run disc alike, located at the disc's header
    old = f"puncture {disc}\nresolution = 16"
    cfg = _edited(tmp_path, "W1", old, old.replace("16", "0"))
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr() == (
        "", f"error[LefbenchError]: {cfg}:{header}: {_NOT_A_GRID}")


def test_all_svg_runs_the_full_check_on_no_spiral(monkeypatch, tmp_path,
                                                    capsys):
    # wrap proves each of the 12 stage spirals legal, and the diagrams
    # check none of them again
    spirals, checked = [], []
    _count_calls(monkeypatch, wrapping.wrap, spirals)
    check = PlanarArc._check

    def counted_check(arc, disc, pairs=None):
        checked.append(arc)
        return check(arc, disc, pairs)
    monkeypatch.setattr(PlanarArc, "_check", counted_check)
    assert main(["all", shipped("W0.cfg"), "--svg", str(tmp_path)]) == 0
    assert len(spirals) == 12 and checked
    assert not {id(s) for s in spirals} & {id(a) for a in checked}


def test_render_tests_segment_pairs_linearly_in_the_level(monkeypatch,
                                                         tmp_path, capsys):
    # the wedge proof tests O(m) segment pairs where the full check of a
    # spiral tests O(m^2): doubling the top level at most x2.3 the tests
    touched = []
    _count_calls(monkeypatch, closed_segments_touch, touched)
    counts = {}
    for top in (96, 192):
        cfg = _edited(tmp_path, "W1", "levels = 0 1 2 3", f"levels = 0 {top}")
        touched.clear()
        assert main(["render", str(cfg), "--resolution", "64",
                     "--svg", str(tmp_path / f"svg-{top}")]) == 0
        counts[top] = len(touched)
    assert 0 < counts[192] <= 2.3 * counts[96]


def test_render_w0_tests_no_chord_exactly_at_resolution_16(monkeypatch,
                                                         tmp_path, capsys):
    # the bow bound clears every chord of W0's 12 stage spirals from the
    # puncture radius, so wrap's exact chord test never runs
    spirals, tested = [], []
    _count_calls(monkeypatch, wrapping.wrap, spirals)
    _count_calls(monkeypatch, wrapping.segment_near_origin, tested)
    assert main(["render", shipped("W0.cfg"), "--resolution", "16",
                 "--svg", str(tmp_path)]) == 0
    assert len(spirals) == 12 and tested == []


@pytest.mark.parametrize("old", ["reference-angle = 3/4", "resolution = 16"])
def test_overlong_number_is_a_config_error(old, tmp_path, capsys):
    # int() refuses a token longer than the interpreter's digit limit;
    # loading reports it at its line rather than let ValueError out
    key = old.split(" = ")[0]
    cfg = tmp_path / "long.cfg"
    cfg.write_text(Path(shipped("W0.cfg")).read_text().replace(
        old, f"{key} = {'1' * 5000}", 1))
    assert main(["validate", str(cfg)]) == 1
    line = 20 if key == "reference-angle" else 9
    assert capsys.readouterr() == (
        "", f"error[ConfigError]: {cfg}:{line}: a number of 5000 digits is"
        f" beyond the limit of {sys.get_int_max_str_digits()} digits\n")


def _count_calls(monkeypatch, fn, seen):
    """Append the result of every call of fn to seen, whichever module's
    binding of fn the call goes through."""
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        seen.append(result)
        return result
    for name, mod in list(sys.modules.items()):
        if name.startswith("lefbench"):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)


def test_hw_derives_each_quantity_once(monkeypatch, tmp_path, capsys):
    fs_calls, verdicts, spirals, validated, checked = [], [], [], [], []
    stages, ranks, crossings = [], [], []
    _count_calls(monkeypatch, rank_calculus.fs_hom_ranks, fs_calls)
    _count_calls(monkeypatch, rank_calculus.unit_survives, verdicts)
    _count_calls(monkeypatch, wrapping.wrap, spirals)
    _count_calls(monkeypatch, tower.build_stage, stages)
    _count_calls(monkeypatch, oracle.matching_floer_rank, ranks)
    _count_calls(monkeypatch, minpos.compute_crossings, crossings)
    validate, check = PlanarArc.validate, PlanarArc._check

    def counted_validate(arc, disc, pairs=None):
        validated.append(arc)
        return validate(arc, disc, pairs)

    def counted_check(arc, disc, pairs=None):
        checked.append((arc, disc))
        return check(arc, disc, pairs)
    monkeypatch.setattr(PlanarArc, "validate", counted_validate)
    monkeypatch.setattr(PlanarArc, "_check", counted_check)
    # the towers count words and wrap no spiral; the stage diagrams of
    # all --svg wrap one per stage, which wrap proves legal and nothing
    # validates again
    for argv in (["hw", shipped("W1.cfg")],
                 ["all", shipped("W0.cfg"), "--svg", str(tmp_path)]):
        for seen in (fs_calls, verdicts, spirals, validated, checked, stages,
                     ranks, crossings):
            seen.clear()
        assert main(argv) == 0
        assert len(fs_calls) == 1
        # one verdict per diagonal thimble, derived by the rank calculus;
        # the towers report it and derive none of their own
        assert len(verdicts) == 2
        assert len(spirals) == (0 if argv[0] == "hw" else 3 * 4)
        for spiral in spirals:
            assert not any(arc is spiral for arc in validated)
        # a passed check is remembered: the full check runs once per
        # distinct (arc, disc), however often the arc is validated
        pairs = {(id(arc), id(disc)) for arc, disc in checked}
        assert len(pairs) == len(checked) <= len(validated)
        # no surgeries: one crossing search per rank, and none on the
        # vanishing paths, whose segment boxes are apart in both
        # fibrations (Fibration.path_findings)
        assert len(stages) == 3 * 4 and ranks
        assert len(crossings) == len(ranks)
        if argv[0] == "all":
            assert len(checked) < len(validated)


def test_deep_hw_builds_and_checks_no_spiral(monkeypatch, tmp_path, capsys):
    # at level 192 hw wraps nothing and checks only the arcs the config
    # declares: the vanishing and matching paths of both fibrations
    wraps, checked = [], []
    _count_calls(monkeypatch, wrapping.wrap, wraps)
    check = PlanarArc._check

    def counted_check(arc, disc, pairs=None):
        checked.append(arc)
        return check(arc, disc, pairs)
    monkeypatch.setattr(PlanarArc, "_check", counted_check)
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(Path(shipped("W1.cfg")).read_text().replace(
        "levels = 0 1 2 3", "levels = 192"))
    assert main(["hw", str(cfg)]) == 0
    assert "stage m=192: 385 generator(s), u 1" in capsys.readouterr().out
    assert wraps == []
    f = load_config(str(cfg)).fibration
    aux = f.fiber.fibration
    declared = ([c.path for g in (f, aux) for c in g.crits]
                + [mo.path for mo in aux.objects])
    assert checked and all(arc in declared for arc in checked)


def test_hw_counts_a_stage_in_constant_time(tmp_path, capsys):
    # the level enters a stage only through its closed form
    cfg = tmp_path / "far.cfg"
    cfg.write_text(Path(shipped("W1.cfg")).read_text().replace(
        "levels = 0 1 2 3", "levels = 0 1000000000000"))
    assert main(["hw", str(cfg)]) == 0
    out = capsys.readouterr().out
    for name in ("Th(B):Th(B)", "Th(A):Th(A)"):
        assert (f"tower {name} stage m=1000000000000: 2000000000001"
                " generator(s), u 1, certificate none") in out
    assert ("tower Th(A):Th(B) stage m=1000000000000: 2000000000000"
            " generator(s), u 0") in out


def test_all_reduces_one_attachment_matrix_per_fibration(monkeypatch,
                                                         capsys):
    # the homology section and the inner matching classes it needs read
    # one handle model per fibration of the bifibration
    forms = []
    _count_calls(monkeypatch, snf.smith_form, forms)
    assert main(["all", shipped("W1.cfg")]) == 0
    assert len(forms) == 2


# --------------------------------------------------------------------------
# rendering
# --------------------------------------------------------------------------

def test_render_writes_well_formed_svgs(tmp_path, capsys):
    outdir = tmp_path / "svg"
    assert main(["render", shipped("W1.cfg"), "--svg", str(outdir)]) == 0
    out = capsys.readouterr().out
    names = [line.split(": ", 1)[1] for line in out.splitlines()
             if line.startswith("svg: ")]
    assert "main-W1-base.svg" in names
    assert "main-W1-fiber-aux-W1.svg" in names
    assert "main-W1-tower-b-b-m3.svg" in names
    assert len(names) == 2 + 3 * 4       # two discs + three towers x four levels
    for name in names:
        ET.fromstring((outdir / name).read_text())


def test_render_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    assert main(["render", shipped("W0.cfg"), "--svg", str(d1),
                 "--out", str(tmp_path / "r1.txt")]) == 0
    assert main(["render", shipped("W0.cfg"), "--svg", str(d2),
                 "--out", str(tmp_path / "r2.txt")]) == 0
    files = sorted(p.name for p in d1.iterdir())
    assert files == sorted(p.name for p in d2.iterdir())
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_render_requires_svg_dir(capsys):
    assert main(["render", shipped("W0.cfg")]) == 1
    assert "error[ConfigError]" in capsys.readouterr().err


@pytest.mark.parametrize("variant", ["W0", "W1"])
def test_render_and_all_draw_the_same_svgs(variant, tmp_path, capsys):
    # render wraps its own spirals; all --svg draws the towers' spirals
    d1, d2 = tmp_path / "render", tmp_path / "all"
    cfg = shipped(f"{variant}.cfg")
    assert main(["render", cfg, "--svg", str(d1)]) == 0
    assert main(["all", cfg, "--svg", str(d2)]) == 0
    files = sorted(p.name for p in d1.iterdir())
    assert len(files) == 2 + 3 * 4
    assert files == sorted(p.name for p in d2.iterdir())
    for name in files:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_all_honors_svg(tmp_path, capsys):
    outdir = tmp_path / "svg"
    assert main(["all", shipped("W0.cfg"), "--svg", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "svg: main-W0-base.svg" in out
    assert (outdir / "main-W0-base.svg").exists()


# --------------------------------------------------------------------------
# failure modes and exit codes
# --------------------------------------------------------------------------

def test_validation_failure_exit_one(tmp_path, capsys):
    cfg = tmp_path / "invalid.cfg"
    cfg.write_text(INVALID_CFG)
    assert main(["validate", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "validation: FAILED" in out
    assert "violation: [bad] vanishing path of 'p'" in out


# p's vanishing path runs through q, and r's path crosses it: the same
# failing arc is checked by itself and again against each other path
THROUGH_PUNCTURE_CFG = """\
[disc d]
puncture p = -1/2 0
puncture q = 1/4 0
puncture r = 0 1/2
resolution = 16

[fiber F]
dim = 2
homology 0 = 1
homology 1 = 1
class c = 1

[fibration through]
disc = d
fiber = F
reference-angle = 1/4
crit p = c | 0
crit q = c | 7/8
crit r = c | 3/4

[run]
fibration = through
"""


_SMOOTHING = ("note: [{}] corner smoothing along the boundary is a no-op at"
              " this combinatorial level\n")


def _validate_ok(name, *inner):
    notes = "".join(_SMOOTHING.format(n) for n in (name,) + inner)
    return (f"scenario: {name}\ncommand: validate\nviolations: 0\n{notes}"
            "validation: ok\n")


# config -> (exit code, stdout of ``validate``)
VALIDATE_BYTES = {
    "W0": (0, _validate_ok("main-W0", "aux-W0")),
    "W1": (0, _validate_ok("main-W1", "aux-W1")),
    "ts3": (0, _validate_ok("ts3")),
    "empty-fibration": (0, _validate_ok("no-crits")),
    "invalid": (1, (
        "scenario: bad\ncommand: validate\nviolations: 3\n"
        "violation: [bad] vanishing path of 'p': arc passes through puncture"
        " 'q' at (1/2, 0)\n"
        "violation: [bad] vanishing path of 'q': arc passes through puncture"
        " 'p' at (-1/2, 0)\n"
        "violation: [bad] vanishing paths of 'p' and 'q': arc passes through"
        " puncture 'q' at (1/2, 0)\n"
        + _SMOOTHING.format("bad") + "validation: FAILED\n")),
    "through-puncture": (1, (
        "scenario: through\ncommand: validate\nviolations: 3\n"
        "violation: [through] vanishing path of 'p': arc passes through"
        " puncture 'q' at (1/4, 0)\n"
        "violation: [through] vanishing paths of 'p' and 'q': arc passes"
        " through puncture 'q' at (1/4, 0)\n"
        "violation: [through] vanishing paths of 'p' and 'r': arc passes"
        " through puncture 'q' at (1/4, 0)\n"
        + _SMOOTHING.format("through") + "validation: FAILED\n")),
}


@pytest.mark.parametrize("name", sorted(VALIDATE_BYTES))
def test_validate_bytes(name, tmp_path, capsys):
    # a failing arc raises the same error each time it is checked, and the
    # report lists the violations in the order the checks meet them
    fixtures = {"invalid": INVALID_CFG, "through-puncture": THROUGH_PUNCTURE_CFG}
    if name in fixtures:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(fixtures[name])
    else:
        cfg = shipped(f"{name}.cfg")
    code, out = VALIDATE_BYTES[name]
    assert main(["validate", str(cfg)]) == code
    assert capsys.readouterr() == (out, "")


def test_all_aborts_on_validation_failure(tmp_path, capsys):
    cfg = tmp_path / "invalid.cfg"
    cfg.write_text(INVALID_CFG)
    assert main(["all", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "validation: FAILED" in out
    assert "euler" not in out            # later sections never ran


def test_missing_config_exit_one(tmp_path, capsys):
    # a file that is not UTF-8 text cannot be read either
    undecodable = tmp_path / "utf16.cfg"
    undecodable.write_bytes(b"\xff\xfe" + "[disc]\n".encode("utf-16-le"))
    for argv in (["all", "/no/such/file.cfg"], ["validate", str(undecodable)]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[ConfigError]:") and err.count("\n") == 1


@pytest.mark.parametrize("given, code", [
    ("W1.cfg/", "ENOTDIR"), ("./d/", "EISDIR"), ("d//", "EISDIR"),
    ("d/.", "EISDIR"), ("./missing.cfg", "ENOENT")])
def test_config_path_is_opened_as_given(given, code, tmp_path, monkeypatch,
                                        capsys):
    # pathlib.Path would read "W1.cfg/" as the file "W1.cfg" and "./d/" as
    # "d"; the path is opened, and cited, as given
    monkeypatch.chdir(tmp_path)
    shutil.copy(shipped("W1.cfg"), "W1.cfg")
    (tmp_path / "d").mkdir()
    assert main(["validate", "./W1.cfg"]) == 0
    capsys.readouterr()
    assert main(["validate", given]) == 1
    n = getattr(errno, code)
    assert capsys.readouterr() == (
        "", f"error[ConfigError]: {given}: cannot read config ([Errno {n}]"
        f" {os.strerror(n)}: {given!r})\n")


def test_unwritable_svg_dir_exit_one(tmp_path, capsys):
    # --svg names an existing file, or a directory under one
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for argv in (["render", shipped("W1.cfg"), "--svg", str(blocker)],
                 ["all", shipped("W0.cfg"), "--svg", str(blocker / "svg")]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error[ConfigError]: --svg ")
        assert err.count("\n") == 1


def test_undecidable_exit_two(capsys):
    assert main(["floer-ranks", shipped("ts3.cfg")]) == 2
    assert "error[Undecidable]" in capsys.readouterr().err
    assert main(["hw", shipped("empty-fibration.cfg")]) == 2
    assert "error[Undecidable]" in capsys.readouterr().err


def test_hw_without_towers_exit_two(tmp_path, capsys):
    text = Path(shipped("W0.cfg")).read_text()
    kept = [l for l in text.splitlines() if not l.startswith("towers")]
    cfg = tmp_path / "no-towers.cfg"
    cfg.write_text("\n".join(kept) + "\n")
    assert main(["hw", str(cfg)]) == 2
    assert "error[IncompleteBasis]" in capsys.readouterr().err


def test_t_contact_matching_paths_reduce(tmp_path, capsys):
    # B's middle vertex touches A's straight middle: a bigon whose two
    # corners are one point of A.  Surgery cuts off B's tip, and the W0
    # values stand.
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "t-contact.cfg"
    cfg.write_text(text.replace(
        "matching A = c-left c-right | -3/20 1/5 ; 3/20 1/5",
        "matching A = c-left c-right | -1/8 1/10 ; 1/8 1/10").replace(
        "matching B = c-left c-right | -3/20 -1/5 ; 3/20 -1/5",
        "matching B = c-left c-right | -1/16 -1/5 ; 0 1/10 ; 1/16 -1/5"))
    assert main(["floer-ranks", str(cfg)]) == 0
    out = capsys.readouterr().out
    for line in ("HF(A,B): 2", "HF(B, tw_A B): 2",
                 "Hom_FS(Th(B),Th(B)): 1", "Hom_FS(Th(A),Th(B)): 2",
                 "Hom_FS(Th_1(B),Th(B)): 3"):
        assert line + "\n" in out


def test_inconsistent_oracle_exit_three(tmp_path, capsys):
    text = Path(shipped("W1.cfg")).read_text()
    cfg = tmp_path / "bad-rank.cfg"
    cfg.write_text(text.replace("rank A B = 2 ", "rank A B = 4 "))
    assert main(["floer-ranks", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[Inconsistent]:")


def test_parse_time_contradiction_exit_three(tmp_path, capsys):
    # with the isotopy fact in play the bad rank is already contradictory
    # inside the oracle itself, and the error carries the config line
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "bad-rank.cfg"
    cfg.write_text(text.replace("rank A B = 2 ", "rank A B = 4 "))
    assert main(["floer-ranks", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[Inconsistent]:")
    assert "bad-rank.cfg:" in err


def test_tower_names_unknown_puncture(tmp_path, capsys):
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "bad-tower.cfg"
    cfg.write_text(text.replace("towers = b:b a:a a:b", "towers = b:z"))
    assert main(["hw", str(cfg)]) == 1
    assert "error[ConfigError]" in capsys.readouterr().err


def test_hw_refuses_crossing_vanishing_paths(tmp_path, capsys):
    # a's path doglegs across b's, so the two are no cut system for the
    # words that count b:b (validate reports the same crossing)
    text = Path(shipped("W1.cfg")).read_text()
    cfg = tmp_path / "cross.cfg"
    cfg.write_text(text.replace("crit a = A | 1/2",
                                "crit a = A | 1/4 | 3/4 -1/4 ; 3/4 1/4")
                   .replace("towers = b:b a:a a:b", "towers = b:b"))
    assert main(["hw", str(cfg)]) == 1
    assert capsys.readouterr() == ("", (
        "error[LefbenchError]: vanishing paths of 'a' and 'b' cross 1"
        " time(s) in minimal position; a tower stage is counted on disjoint"
        " vanishing paths\n"))


@pytest.mark.parametrize("command", ["floer-ranks", "hw"])
def test_shared_boundary_end_prints_its_angle(command, tmp_path, capsys):
    # both crits carry the thimble L, whose path ends at angle 3/4; the
    # rank of L against itself compares that path with itself
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "thimbles.cfg"
    cfg.write_text(text.replace("crit a = A | 1/2", "crit a = L | 1/2")
                   .replace("crit b = B | 0", "crit b = L | 0")
                   .replace("[oracle main-W0]\n",
                            "[oracle main-W0]\nrank L L = 2 !cited s\n"))
    assert main([command, str(cfg)]) == 1
    assert capsys.readouterr() == ("", (
        "error[SharedBoundaryEndpoint]: arcs share boundary endpoint"
        " angle(s) 3/4\n"))


@pytest.mark.parametrize("edit, line, degree", [
    ("homology 1 = 1\nhomology 7 = 1", 16, 7),
    ("homology -1 = 1", 15, -1)])
def test_homology_degree_outside_fiber_dimension(edit, line, degree,
                                                 tmp_path, capsys):
    # W1's circle-cotangent fiber has dim = 2, so its degrees are 0..2
    cfg = tmp_path / "degree.cfg"
    cfg.write_text(Path(shipped("W1.cfg")).read_text().replace(
        "homology 1 = 1", edit, 1))
    assert main(["homology", str(cfg)]) == 1
    assert capsys.readouterr() == ("", (
        f"error[ConfigError]: {cfg}:{line}: homology degree {degree} is"
        " outside 0..2, the dimension range of the fiber\n"))


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_rejects_unknown_tower_puncture(command, tmp_path,
                                                      capsys):
    # loading refuses the towers line, before any command reads the config
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "bad-tower.cfg"
    cfg.write_text(text.replace("towers = b:b a:a a:b", "towers = b:b z:a"))
    line = text.splitlines().index("towers = b:b a:a a:b") + 1
    argv = [command, str(cfg)]
    if command == "render":
        argv += ["--svg", str(tmp_path / "svg")]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", (
        f"error[ConfigError]: {cfg}:{line}: tower z:a names puncture 'z',"
        " which has no critical value\n"))


def _violation(x, y, why):
    return (f"violation: [main-W0] tower {x}:{y}: vanishing path of {x!r}"
            f" cannot be wrapped: {why}\n")


@pytest.mark.parametrize("puncture, value, lines", [
    # the straight path from a to the boundary point at angle 7/3 (= 1/3)
    # is legal, but it does not lie on a ray from the origin
    ("a", "A | 7/3",
     [_violation(x, y, "terminal segment of the arc is not radial")
      for x, y in (("a", "a"), ("a", "b"))]),
    # radial, but two segments: a self-tower cannot bend it off b
    ("b", "B | 0 | 3/4 0",
     [_violation("b", "b", "left-bend wrapping requires a radial normal"
                 " form path (one straight segment from puncture to"
                 " boundary)")]),
    # on the ray to the boundary point at 1/4, but from below the origin
    ("a", "A | 1/4 | 0 -1/2",
     [_violation(x, y, "terminal segment must point outward along the ray")
      for x, y in (("a", "a"), ("a", "b"))]),
], ids=["not-radial", "two-segments", "inward"])
def test_validate_refuses_tower_sources_wrap_refuses(puncture, value, lines,
                                                     tmp_path, capsys):
    # validate and all report what hw would end on, tower by tower
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "unwrappable.cfg"
    cfg.write_text(re.sub(rf"^crit {puncture} = .*$",
                          f"crit {puncture} = {value}", text,
                          flags=re.MULTILINE))
    for command in ("validate", "all"):
        assert main([command, str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert f"violations: {len(lines)}\n" in out
        assert [line + "\n" for line in out.splitlines()
                if line.startswith("violation:")] == lines
        assert out.endswith("validation: FAILED\n")
    assert main(["hw", str(cfg)]) == 1
    assert capsys.readouterr().err == (
        "error[LefbenchError]: " + lines[0].split("wrapped: ")[1])


def _edited(tmp_path, scenario, old, new, *more):
    """A copy of a shipped scenario with its one line old replaced by new,
    and likewise for each further (old, new) pair in more."""
    text = Path(shipped(f"{scenario}.cfg")).read_text()
    for old, new in [(old, new), *zip(more[::2], more[1::2])]:
        assert text.count(old + "\n") == 1
        text = text.replace(old + "\n", new + "\n")
    cfg = tmp_path / "edited.cfg"
    cfg.write_text(text)
    return cfg


@pytest.mark.parametrize("old, new, command, error", [
    ("crit b = B | 0", "crit b = B | 0\ncrit  b = B | 0", "validate",
     "ConfigError]: {cfg}:46: duplicate key 'crit b'"),
    ("crit b = B | 0", "crit b = B | 0\ncrit\tb = B | 0", "validate",
     "ConfigError]: {cfg}:46: duplicate key 'crit b'"),
    ("crit b = B | 0", "crit b = B | 0\ncrit  b = B | 0", "homology",
     "ConfigError]: {cfg}:46: duplicate key 'crit b'"),
    # the fiber's homology table refuses it, citing the [fiber] header
    ("homology 0 = 1", "homology 0 = 1\nhomology 00 = 3", "homology",
     "LefbenchError]: {cfg}:12: duplicate homology degree 0"),
    ("towers = b:b a:a a:b", "towers = b:b a:a a:b b:b", "hw",
     "ConfigError]: {cfg}:66: duplicate tower 'b:b'"),
], ids=["crit-spaces", "crit-tab", "crit-homology", "homology-degree",
        "tower"])
def test_one_declaration_spelled_twice_is_a_duplicate(old, new, command,
                                                      error, tmp_path,
                                                      capsys):
    # a key is compared with its whitespace collapsed, a homology degree as
    # an integer, and a tower as its pair of punctures
    cfg = _edited(tmp_path, "W1", old, new)
    assert main([command, str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error[{error.format(cfg=cfg)}\n")


@pytest.mark.parametrize("scenario, old, new, command, code, line", [
    # a vanishing path with a zero-length segment is a violation
    ("W1", "crit a = A | 1/2", "crit a = A | 1/2 | -1/2 0", "validate", 1,
     "violation: [main-W1] vanishing path of 'a': zero-length segment at"
     " vertex 0"),
    ("W1", "parity A B = all-same !cited endpoint-generators-share-grading",
     "parity A B = sometimes !cited endpoint-generators-share-grading",
     "floer-ranks", 1,
     "error[LefbenchError]: {cfg}:47: parity must be 'all-same' or"
     " 'mixed'"),
    # W0 declares A and B isotopic; a witness now says they are not
    ("W0", "relation = disjoint B L !cited paths-apart",
     "relation = disjoint B L !cited paths-apart\n"
     "relation = witness A B L !cited witness-schema", "floer-ranks", 3,
     "error[Inconsistent]: {cfg}:46: labels 'A', 'B' declared both"
     " isotopic and non-isomorphic"),
    ("W1", "[disc aux-disc]", "[disc aux-disc", "validate", 1,
     "error[ConfigError]: {cfg}:6: unterminated section header"),
    ("W1", "[disc aux-disc]", "[disc aux disc]", "validate", 1,
     "error[ConfigError]: {cfg}:6: section header needs a kind and at most"
     " one name"),
    ("W1", "[wrap]", "[wrap main]", "validate", 1,
     "error[ConfigError]: {cfg}:59: [wrap] takes no name"),
    ("W1", "[disc aux-disc]", "[disc]", "validate", 1,
     "error[ConfigError]: {cfg}:6: [disc] needs a name"),
    ("W1", "homology 0 = 1", "homology 0 =", "validate", 1,
     "error[ConfigError]: {cfg}:14: homology line needs a free rank"),
    ("W1", "crit a = A | 1/2", "crit a = A", "validate", 1,
     "error[ConfigError]: {cfg}:44: crit value is 'LABEL | ANGLE' with"
     " optional '| mid points'"),
    ("W1", "matching A = c-left c-right | -3/20 1/5 ; 3/20 1/5",
     "matching A = c-left", "validate", 1,
     "error[ConfigError]: {cfg}:27: matching value is 'P Q' with optional"
     " '| mid points'"),
    ("W1", "thimble L = crit c-mid", "thimble L = c-mid", "validate", 1,
     "error[ConfigError]: {cfg}:29: thimble value is 'crit P'"),
    # an empty mid list is no mid point
    ("W1", "crit a = A | 1/2", "crit a = A | 1/2 |", "validate", 0,
     "validation: ok"),
    # a and b both end at the reference angle 0, a from above
    ("W1", "crit a = A | 1/2", "crit a = A | 0 | -1/2 1/2 ; 1/2 1/2",
     "validate", 1,
     "note: [main-W1] vanishing paths of 'a' and 'b' share the reference"
     " endpoint"),
    ("W1", "crit a = A | 1/2", "crit a = A | 0 | -1/2 1/2 ; 1/2 1/2 ; 3/4 0",
     "validate", 1,
     "violation: [main-W1] vanishing paths of 'a' and 'b' reach the"
     " reference endpoint along one line, so their order there is"
     " undecided"),
], ids=["zero-length-segment", "parity-value", "isotopic-and-witness",
        "unterminated-header", "header-words", "wrap-named", "disc-unnamed",
        "homology-empty", "crit-no-angle", "matching-one-end",
        "thimble-no-crit", "crit-empty-mids", "shared-reference-end",
        "shared-reference-line"])
def test_rules_reached_through_main(scenario, old, new, command, code, line,
                                    tmp_path, capsys):
    cfg = _edited(tmp_path, scenario, old, new)
    assert main([command, str(cfg)]) == code
    out, err = capsys.readouterr()
    assert line.format(cfg=cfg) + "\n" in out + err


_BELT2 = ("crit c-right = belt | 7/8", "crit c-right = belt2 | 7/8",
          "class belt = 1", "class belt = 1\nclass belt2 = 1",
          "label belt = sphere", "label belt = sphere\nlabel belt2 = sphere")


@pytest.mark.parametrize("edits, command, code, lines", [
    # only the first word of a fiber names the total-space form
    (("[fiber circle-cotangent]", "[fiber total-spaced]",
      "fiber = circle-cotangent", "fiber = total-spaced"), "validate", 0,
     ["validation: ok"]),
    (("fiber = total-space aux-W0", "fiber = total-space"), "validate", 1,
     ["error[ConfigError]: {cfg}:39: fiber is 'total-space NAME'"]),
    (("fiber = circle-cotangent", "fiber = nosuch"), "validate", 1,
     ["error[ConfigError]: {cfg}:17: unknown fiber 'nosuch'"]),
    (("thimble L = crit c-out", "thimble A = crit c-out"), "validate", 1,
     ["error[ConfigError]: {cfg}:28: duplicate object name 'A'"]),
    # b's label names an object of the inner fibration that the outer
    # oracle does not declare (blank lines keep the line numbers)
    (("crit b = B | 0", "crit b = L | 0", "label L = plain", "",
      "relation = disjoint A L !cited paths-apart", "",
      "relation = disjoint B L !cited paths-apart", ""), "validate", 1,
     ["violation: [main-W0] cycle label 'L' of 'b' is not declared"]),
    # matching paths close up over two labels the oracle declares isotopic
    (_BELT2[:-1] + (_BELT2[-1] + "\nrelation = isotopic belt belt2"
                    " !cited same-belt",), "validate", 0,
     ["validation: ok"]),
    (_BELT2, "validate", 1,
     [f"violation: [aux-W0] object {o!r}: cycle labels 'belt', 'belt2' are"
      " not declared isotopic, so the two thimbles do not close up to a"
      " matching cycle" for o in "AB"]),
    # a's label Z names no inner object, so the thimble pair has no rank
    (("crit a = A | 1/2", "crit a = Z | 1/2", "label A = sphere",
      "label A = sphere\nlabel Z = sphere\nrelation = isotopic Z B"
      " !cited z-is-b"), "floer-ranks", 2,
     ["error[MissingClass]: labels 'Z', 'B' do not both name objects on"
      " 'aux-W0'"]),
    # the thimble L misses B, so the evaluation class is forced to zero
    (("crit a = A | 1/2", "crit a = L | 1/2", "label L = plain",
      "label L = sphere"), "floer-ranks", 0,
     ["warning: NonzeroEvViolation: the evaluation class must be nonzero,"
      " but the thimble pair has rank 0, forcing a zero evaluation map"]),
], ids=["fiber-named-total-spaced", "total-space-no-name", "unknown-fiber",
        "duplicate-object", "crit-label-undeclared", "isotopic-labels",
        "labels-not-isotopic", "label-names-no-object", "nonzero-ev"])
def test_w0_edits_reached_through_main(edits, command, code, lines,
                                       tmp_path, capsys):
    cfg = _edited(tmp_path, "W0", *edits)
    assert main([command, str(cfg)]) == code
    out, err = capsys.readouterr()
    shown = (out + err).splitlines()
    assert all(line.format(cfg=cfg) in shown for line in lines), shown


def test_report_that_cannot_be_written_is_one_error_line(tmp_path, capsys):
    # --out names a directory
    assert main(["validate", shipped("W1.cfg"), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[ReportWrite]: ") and err.count("\n") == 1


# the exit code each error class ends a run with
EXIT_CODES = {
    "LefbenchError": 1, "ConfigError": 1, "NonEmbeddableInput": 1,
    "DegenerateTangency": 1, "SharedBoundaryEndpoint": 1,
    "SpiralCollision": 1, "SpiralTooLong": 1,
    "MissingClass": 2, "UnresolvedSign": 2, "UnknownPair": 2,
    "MissingParity": 2, "Undecidable": 2, "IncompleteBasis": 2,
    "InvalidWitness": 3, "ImageTooLarge": 3, "Inconsistent": 3,
}


@pytest.mark.parametrize("cls", [
    c for _, c in inspect.getmembers(errors, inspect.isclass)
    if issubclass(c, errors.LefbenchError)], ids=lambda c: c.__name__)
def test_error_exit_code(cls, monkeypatch, capsys):
    def fail(*_args):
        raise cls("boom")
    monkeypatch.setattr("lefbench.cli.run_command", fail)
    assert main(["validate", shipped("W0.cfg")]) == EXIT_CODES[cls.__name__]
    assert capsys.readouterr().err == f"error[{cls.__name__}]: boom\n"


# a rational token of a config: a signed integer or fraction standing alone
RATIONAL = re.compile(r"(?<![\w/.-])-?\d+(?:/\d+)?(?![\w/.])")


# the first two labels of an oracle fact line
FACT_LABELS = re.compile(r"^(?:rank|parity|relation = \w+) (\S+) (\S+)",
                         re.MULTILINE)


def config_mutants(text):
    """Each line deleted in turn, then each rational token replaced by 0,
    -1 and 7/3, then each oracle fact line with its first two labels
    swapped (a fact on a label and itself gives none)."""
    lines = text.splitlines(keepends=True)
    for i in range(len(lines)):
        yield "".join(lines[:i] + lines[i + 1:])
    for m in RATIONAL.finditer(text):
        for token in ("0", "-1", "7/3"):
            yield text[:m.start()] + token + text[m.end():]
    for m in FACT_LABELS.finditer(text):
        i, j = m.group(1), m.group(2)
        if i != j:
            yield text[:m.start(1)] + f"{j} {i}" + text[m.end(2):]


def mutant_outcome(scenario, k, code, out, err, cfg):
    """The golden line of mutant k: scenario, index, exit code, and the
    sha256 of stdout + stderr with the config path written as mutant.cfg."""
    digest = hashlib.sha256(
        (out + err).replace(str(cfg), "mutant.cfg").encode()).hexdigest()
    return f"{scenario} {k} {code} {digest}"


@pytest.mark.parametrize("scenario", ["W0", "W1"])
def test_mutated_configs_end_in_exit_code(scenario, tmp_path, capsys):
    # any input ends in exit 0-3: a failed validation report or one
    # LefbenchError line, and no other exception escapes main; each
    # mutant's exit code and output bytes are pinned in GOLDEN_MUTANTS
    text = Path(shipped(f"{scenario}.cfg")).read_text()
    cfg = tmp_path / "mutant.cfg"
    mutants = list(config_mutants(text))
    assert len(mutants) > 150
    outcomes = []
    for k, mutant in enumerate(mutants):
        cfg.write_text(mutant)
        code = main(["all", str(cfg)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), k
        if code and "validation: FAILED" not in out:
            assert err.startswith("error[") and err.count("\n") == 1, k
        outcomes.append(mutant_outcome(scenario, k, code, out, err, cfg))
    pinned = [line for line in GOLDEN_MUTANTS.read_text().splitlines()
              if line.split()[0] == scenario]
    assert outcomes == pinned


# one random edit of a config: (kind, index, replacement token); the index
# is taken modulo the number of lines or rational tokens
EDITS = st.tuples(
    st.sampled_from(["delete", "duplicate", "replace"]),
    st.integers(0, 10 ** 4),
    st.one_of(st.sampled_from(["0", "-1", "7/3", ""]),
              st.fractions(-2, 2, max_denominator=64).map(str)))


def apply_edit(text, edit):
    kind, k, token = edit
    if kind == "replace":
        hits = list(RATIONAL.finditer(text))
        if not hits:
            return text
        m = hits[k % len(hits)]
        return text[:m.start()] + token + text[m.end():]
    lines = text.splitlines(keepends=True)
    i = k % len(lines)
    repeat = [] if kind == "delete" else [lines[i]]
    return "".join(lines[:i] + repeat + lines[i:])


@settings(max_examples=150, deadline=None)
@given(scenario=st.sampled_from(["W0", "W1"]),
       edits=st.lists(EDITS, min_size=1, max_size=4))
def test_random_config_edits_end_in_exit_code(tmp_path_factory, scenario,
                                              edits):
    # the exception contract of test_mutated_configs_end_in_exit_code, over
    # random sequences of line deletions, line duplications and token
    # replacements
    text = Path(shipped(f"{scenario}.cfg")).read_text()
    for e in edits:
        text = apply_edit(text, e)
    cfg = tmp_path_factory.getbasetemp() / "edited.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["all", str(cfg)])
    assert code in (0, 1, 2, 3)
    if code and "validation: FAILED" not in out.getvalue():
        message = err.getvalue()
        assert message.startswith("error[") and message.count("\n") == 1, message


# a 'key = value' line of a config: (key and '= ', first value token, rest)
KEY_VALUE = re.compile(r"^([^#\[\s][^=\n]*= *)(\S+)(.*)$")


def key_value_variants(text):
    """Each 'key = value' line of text in three variants: its first value
    token replaced by 0, ' 0 2' appended to it, and its first value token
    replaced by a 20-digit number, large but within int()'s digit limit."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        m = KEY_VALUE.match(line.rstrip("\n"))
        if m:
            for new in (f"{m[1]}0{m[3]}\n", f"{m[0]} 0 2\n",
                        f"{m[1]}{'9' * 20}{m[3]}\n"):
                yield "".join(lines[:i] + [new] + lines[i + 1:])


@pytest.mark.parametrize("scenario", ["W0", "W1", "ts3"])
def test_key_value_variants_end_in_exit_code(scenario, tmp_path, capsys):
    # the exception contract of test_mutated_configs_end_in_exit_code over
    # a zero or a 20-digit first value and a trailing '0 2' on each line:
    # '0 2' after a homology line declares a zero torsion invariant
    text = Path(shipped(f"{scenario}.cfg")).read_text()
    cfg = tmp_path / "variant.cfg"
    variants = list(key_value_variants(text))
    assert len(variants) >= 28
    assert any(re.search(r"^homology \d+ = 1 0 2$", v, re.MULTILINE)
               for v in variants)
    for k, variant in enumerate(variants):
        cfg.write_text(variant)
        code = main(["all", str(cfg)])
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3), k
        if code and "validation: FAILED" not in out:
            assert err.startswith("error[") and err.count("\n") == 1, (k, err)
        else:
            assert err == "", (k, err)


# a hostile edit of a config: a rational token replaced by a huge (beyond
# int()'s digit limit), zero, negative or malformed value, or a 'key =
# value' line inserted, its key possibly empty; the index is taken modulo
# the number of tokens or lines
HOSTILE_EDITS = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 10 ** 4), st.sampled_from([
        "1" * 4400, "-1/" + "7" * 4400, "0", "0/5", "-0", "-1", "-7/3",
        "1/0", "0.5", "x", ""])),
    st.tuples(st.just("insert"), st.integers(0, 10 ** 4), st.builds(
        "{} = {}\n".format,
        st.sampled_from(["", "puncture z", "resolution", "dim",
                         "homology 1", "class z", "crit a", "matching M",
                         "thimble T", "label z", "rank A B", "relation",
                         "delta", "levels", "towers", "fibration"]),
        st.sampled_from(["", "0", "-1", "5", "0 0", "a:a", "crit a",
                         "x !cited s", "2 !assumed s"]))))


@settings(max_examples=150, deadline=None)
@given(scenario=st.sampled_from(["W0", "W1", "ts3", "empty-fibration"]),
       edits=st.lists(HOSTILE_EDITS, min_size=1, max_size=3))
@example(scenario="W0", edits=[("insert", 5, " = 5\n")])
def test_hostile_edits_end_in_one_error_line(tmp_path_factory, scenario,
                                             edits):
    # every command on the edited config ends in exit 0-3, a nonzero exit
    # in a failed validation report or one error line, and a refused
    # render within a fixed CPU time
    text = Path(shipped(f"{scenario}.cfg")).read_text()
    for kind, k, new in edits:
        if kind == "replace":
            text = apply_edit(text, (kind, k, new))
        else:
            lines = text.splitlines(keepends=True)
            i = k % (len(lines) + 1)
            text = "".join(lines[:i] + [new] + lines[i:])
    base = tmp_path_factory.getbasetemp()
    cfg = base / "hostile.cfg"
    cfg.write_text(text)
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        start = time.process_time()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(cfg), "--svg", str(base / "svg")])
        if command == "render" and code:
            assert time.process_time() - start < 1
        assert code in (0, 1, 2, 3)
        if code and "validation: FAILED" not in out.getvalue():
            message = err.getvalue()
            assert message.startswith("error[") and message.count("\n") == 1, message
        else:
            assert not err.getvalue()


HELP_80 = """\
usage: lefbench [-h] [--out FILE] [--svg DIR] [--resolution N]
                {validate,homology,floer-ranks,hw,render,all} config

Exact-rank workbench for bifibered Lefschetz scenarios over the disc.

positional arguments:
  {validate,homology,floer-ranks,hw,render,all}
  config                scenario config file

options:
  -h, --help            show this help message and exit
  --out FILE            write the report here
  --svg DIR             write SVG diagrams here
  --resolution N        override the run disc's boundary grid resolution
"""


def _exit(argv, capsys):
    """(exit code, stdout, stderr) of a main call that exits."""
    with pytest.raises(SystemExit) as ei:
        main(argv)
    return (ei.value.code, *capsys.readouterr())


# main parses with one parser for the whole process: a second call gives
# the same bytes as the first
def test_usage_errors_exit_one(capsys):
    cases = [
        (["frobnicate", shipped("W0.cfg")],
         "lefbench: error: argument command: invalid choice: 'frobnicate'"
         " (choose from 'validate', 'homology', 'floer-ranks', 'hw',"
         " 'render', 'all')\n"),
        (["all"],
         "lefbench: error: the following arguments are required: config\n"),
        (["validate", shipped("W0.cfg"), "--resolution", "x"],
         "lefbench: error: argument --resolution: invalid int value: 'x'\n"),
    ]
    for argv, err in cases:
        for _ in range(2):
            assert _exit(argv, capsys) == (1, "", err)


def test_help_is_formatted_on_each_call(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert _exit(["--help"], capsys) == (0, HELP_80, "")
    monkeypatch.setenv("COLUMNS", "60")
    code, out, _ = _exit(["--help"], capsys)
    assert code == 0 and ("Exact-rank workbench for bifibered Lefschetz"
                          " scenarios\nover the disc.\n") in out


def test_options_of_one_call_do_not_reach_the_next(tmp_path, capsys):
    svg, out = tmp_path / "svg", tmp_path / "report.txt"
    assert main(["render", shipped("W0.cfg"), "--svg", str(svg),
                 "--out", str(out)]) == 0
    assert out.exists() and any(svg.iterdir())
    shutil.rmtree(svg)
    out.unlink()
    assert main(["all", shipped("W0.cfg")]) == 0
    assert capsys.readouterr().out == GOLDEN_W0.read_text()
    assert not svg.exists() and not out.exists()


def _fan_config(n: int) -> str:
    """n punctures on y = 0, each with a vanishing path (x, 0) -> (x, -1/8)
    -> (9x/8 + 1/100, -1/4) -> the boundary at angle tau; x and tau grow
    together, so the paths are disjoint (the benchmark's fans)."""
    lines = ["[disc d]"]
    lines += [f"puncture p{i} = {3 * i - 24}/40 0" for i in range(n)]
    lines += ["resolution = 16", "", "[fiber f]", "dim = 2",
              "homology 0 = 1", "homology 1 = 1", "class belt = 1", "",
              "[fibration fan]", "disc = d", "fiber = f",
              "reference-angle = 1/4"]
    for i in range(n):
        x = Fraction(3 * i - 24, 40)
        lines.append(f"crit p{i} = belt | {29 + i}/50 | {x} -1/8 ;"
                     f" {x * Fraction(9, 8) + Fraction(1, 100)} -1/4")
    return "\n".join(lines + ["", "[run]", "fibration = fan", ""])


class _Sink:
    def write(self, text):
        return len(text)


# A tuple built from an iterator of unknown length (a generator, an
# enumerate) is allocated at length 10 and resized, so it leaves the
# length-10 free list and returns to the free list of its final length.
# Only a full collection empties the tuple free lists; with the parser
# built once, repeated requests leave no cyclic garbage and so trigger
# none, and each such tuple per request would pile up there for good.
def test_repeated_requests_leave_no_blocks_behind(tmp_path):
    fan = tmp_path / "fan.cfg"
    fan.write_text(_fan_config(16))
    w0 = shipped("W0.cfg")
    # A through 19 mid points, alternately above and below B: 21 vertices,
    # so a slice of all but one of them is a tuple of length 20, which
    # CPython 3.11 puts on a free list that it never takes from
    xs = [Fraction(-3, 20) + Fraction(3, 10) * Fraction(i, 20)
          for i in range(1, 20)]
    mids = " ; ".join(f"{x} {'1/40' if i % 2 else '-11/40'}"
                      for i, x in enumerate(xs, 1))
    zigzag = _edited(tmp_path, "W0",
                     "matching A = c-left c-right | -3/20 1/5 ; 3/20 1/5",
                     f"matching A = c-left c-right | {mids}")
    kinds = [["validate", str(fan)], ["homology", str(fan)],
             ["validate", w0], ["floer-ranks", w0],
             ["floer-ranks", str(zigzag)]]
    growth = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        with redirect_stdout(_Sink()):
            for argv in kinds:
                for _ in range(20):  # lets the interpreter's caches settle
                    assert main(argv) == 0
            for argv in kinds:
                windows = []
                for _ in range(3):
                    gc.collect(1)  # a full collection would empty the lists
                    before = sys.getallocatedblocks()
                    for _ in range(50):
                        main(argv)
                    gc.collect(1)
                    windows.append(sys.getallocatedblocks() - before)
                growth[argv[0], Path(argv[1]).name] = min(windows)
    finally:
        if enabled:
            gc.enable()
    # one tuple a call left on a free list would give 50 in every window, as
    # a 20-tuple slice of the zig-zag's vertices did; the parser built on
    # every call gave 300 and more.  The interpreter itself can leave up to
    # about one block a call over the first 50 to 250 calls of a process
    # (config loading and segment boxes alone show it, whatever the hash
    # seed), so every kind warms up before any is measured, and the least of
    # three consecutive windows is the one that counts
    assert max(growth.values()) < 25, growth


def test_module_invocation():
    # the child process imports the same sources as this one
    src = Path(lefbench.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "lefbench.cli", "validate", shipped("W0.cfg")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert "validation: ok" in proc.stdout


# a matching object whose cycle labels the oracle does not declare
UNDECLARED_LABELS_CFG = """\
[disc d]
puncture l = -1/2 0
puncture r = 1/2 0

[fiber f]
dim = 2
homology 0 = 1
homology 1 = 1
class p = 1
class q = 1

[fibration F]
disc = d
fiber = f
reference-angle = 0
crit l = p | 1/2
crit r = q | 0

[objects F]
matching M = l r | 0 1/4

[oracle F]
label z = sphere

[run]
fibration = F
"""


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # validate reports undeclared labels as violations, and a contradiction
    # of both sphere self-ranks names the first declared label, whatever
    # the order of string hashes
    undeclared = tmp_path / "undeclared.cfg"
    undeclared.write_text(UNDECLARED_LABELS_CFG)
    contradiction = tmp_path / "contradiction.cfg"
    w0 = Path(shipped("W0.cfg")).read_text()
    assert "rank A B = 2 " in w0
    contradiction.write_text(w0.replace("rank A B = 2 ", "rank A B = 0 "))
    src = Path(lefbench.__file__).resolve().parents[1]
    for cfg, code in ((undeclared, 1), (contradiction, 3)):
        runs = {(proc.returncode, proc.stdout, proc.stderr) for proc in (
            subprocess.run(
                [sys.executable, "-m", "lefbench.cli", "validate", str(cfg)],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(src),
                     "PYTHONHASHSEED": str(seed)})
            for seed in range(1, 7))}
        assert len(runs) == 1
        [(got, out, err)] = runs
        assert got == code
        if code == 1:
            assert "violations: 5\n" in out and err == ""
        else:
            assert out == "" and err.startswith(
                "error[Inconsistent]: ") and "rank(A,A) forced to both 0" in err


def _cpu_limited(argv: list[str], seconds: int = 1):
    """``lefbench argv`` in a child process whose CPU time is capped at
    ``seconds``: a run past the cap is killed (a negative return code)
    rather than left to hang the suite.  One child runs at a time."""
    src = Path(lefbench.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "lefbench.cli", *argv], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU,
                                              (seconds, seconds)))


def _seeded_classes_config(n: int, rng) -> tuple[str, list[list[int]]]:
    """n punctures at half the unit circle's points of angles i/n, each with
    the radial vanishing path out to angle i/n, over a fiber with H1 = Z^n
    and n classes of n entries in [-9, 9] drawn from rng: (config text,
    the classes)."""
    classes = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    lines = ["[disc d]"]
    for i in range(n):
        x, y, w = circle_hpoint(i, n)
        lines.append(f"puncture p{i} = {Fraction(x, 2 * w)}"
                     f" {Fraction(y, 2 * w)}")
    lines += ["resolution = 16", "", "[fiber f]", "dim = 2",
              "homology 0 = 1", f"homology 1 = {n}"]
    lines += [f"class k{i} = {' '.join(map(str, c))}"
              for i, c in enumerate(classes)]
    lines += ["", "[fibration g]", "disc = d", "fiber = f",
              f"reference-angle = 1/{2 * n}"]
    lines += [f"crit p{i} = k{i} | {i}/{n}" for i in range(n)]
    return "\n".join(lines + ["", "[run]", "fibration = g", ""]), classes


def _chain_config(n: int) -> str:
    """Fibrations f0 ... fn over one disc with punctures p = (-1/2, 0) and
    q = (1/2, 0), each with a matching object M = p q: f0 over a circle
    fiber, and each later one over the total space of the one before, its
    two critical values labelled M.  [run] names fn, so total-space fibers
    nest n deep."""
    lines = ["[disc d]", "puncture p = -1/2 0", "puncture q = 1/2 0", "",
             "[fiber F]", "dim = 2", "homology 0 = 1", "homology 1 = 1",
             "class c = 1", ""]
    for k in range(n + 1):
        fiber, label = (("F", "c") if k == 0
                        else (f"total-space f{k - 1}", "M"))
        lines += [f"[fibration f{k}]", "disc = d", f"fiber = {fiber}",
                  "reference-angle = 1/4", f"crit p = {label} | 1/2",
                  f"crit q = {label} | 0", "", f"[objects f{k}]",
                  "matching M = p q", ""]
    return "\n".join(lines + ["[run]", f"fibration = f{n}", ""])


def test_seeded_class_matrix_homology_within_a_second_of_cpu(tmp_path):
    # a 1.4 KB config whose 14 x 14 attachment matrix grew without bound
    # in an unreduced Smith elimination
    text, classes = _seeded_classes_config(14, random.Random(12))
    cfg = tmp_path / "classes.cfg"
    cfg.write_text(text)
    proc = _cpu_limited(["homology", str(cfg)])
    assert proc.returncode == 0, proc.stderr
    factors = sympy_invariant_factors(classes)
    h1 = fmt_group(14 - len(factors), tuple([d for d in factors if d > 1]))
    assert f"\nH1: {h1}\n" in proc.stdout and factors[-1] > 10 ** 15


def test_nested_total_spaces_homology_within_a_second_of_cpu(tmp_path):
    # each level's matching classes are read from its handle model, not
    # derived again through every level below
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(_chain_config(24))
    proc = _cpu_limited(["homology", str(cfg)])
    assert proc.returncode == 0, proc.stderr
    assert "fiber: total-space(f23)\n" in proc.stdout


def test_total_space_nesting_is_bounded(tmp_path):
    deep = tmp_path / "deep.cfg"
    deep.write_text(_chain_config(NESTING_LIMIT + 1))
    header = deep.read_text().splitlines().index(
        f"[fibration f{NESTING_LIMIT + 1}]") + 1
    proc = _cpu_limited(["validate", str(deep)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error[ConfigError]: {deep}:{header}: total-space fibers"
        f" nest {NESTING_LIMIT + 1} deep, more than the limit of"
        f" {NESTING_LIMIT}\n")
    limit = tmp_path / "limit.cfg"
    limit.write_text(_chain_config(NESTING_LIMIT))
    for command in COMMANDS:
        extra = ["--svg", str(tmp_path / "svg")] if command == "render" else []
        proc = _cpu_limited([command, str(limit), *extra])
        assert proc.returncode in (0, 1, 2, 3), (command, proc.stderr)
        assert proc.stderr == "" or proc.stderr.startswith("error["), command
        if command in ("validate", "homology"):
            assert proc.returncode == 0, (command, proc.stderr)


def test_a_byte_order_mark_before_the_config_is_read_past(tmp_path, capsys):
    cfg = tmp_path / "W0.cfg"
    cfg.write_text("\ufeff" + Path(shipped("W0.cfg")).read_text(),
                   encoding="utf-8")
    assert main(["all", str(cfg)]) == 0
    assert capsys.readouterr().out == GOLDEN_W0.read_text()
