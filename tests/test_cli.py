"""End-to-end tests for the ``lefbench`` command line tool."""

import inspect
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import pytest

import lefbench
from lefbench import errors, rank_calculus, wrapping
from lefbench.cli import main
from lefbench.disc import PlanarArc

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


def test_hw_sections(capsys):
    assert main(["hw", shipped("W0.cfg")]) == 0
    out = capsys.readouterr().out
    assert "wrap delta: 1/64" in out
    assert "tower Th(B):Th(B) stage m=3: 7 generator(s), u 1, certificate none" in out
    assert "tower Th(A):Th(B) stage m=1: 2 generator(s), u 0, certificate 2" in out
    assert "continuation 0->1: exists; unit image persists" in out


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


@pytest.mark.parametrize("resolution", [9, 16, 32, 64])
def test_w1_report_is_grid_independent(resolution, tmp_path):
    # every boundary grid fine enough to embed the spirals gives the same
    # report, byte for byte
    target = tmp_path / "w1_all.txt"
    assert main(["all", shipped("W1.cfg"), "--resolution", str(resolution),
                 "--out", str(target)]) == 0
    assert target.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("command", ["hw", "render", "all"])
def test_coarse_grid_spiral_is_rejected(command, tmp_path, capsys):
    # at resolution 8 the wrapped spirals self-intersect; each consumer of a
    # spiral (tower stage, stage diagram) must check it before use
    argv = [command, shipped("W1.cfg"), "--resolution", "8"]
    if command == "render":
        argv += ["--svg", str(tmp_path)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error[NonEmbeddableInput]:")


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
    fs_calls, spirals, validated = [], [], []
    _count_calls(monkeypatch, rank_calculus.fs_hom_ranks, fs_calls)
    _count_calls(monkeypatch, wrapping.wrap, spirals)
    check = PlanarArc.validate

    def counted_validate(arc, disc):
        validated.append(arc)
        return check(arc, disc)
    monkeypatch.setattr(PlanarArc, "validate", counted_validate)
    # the stage diagrams of all --svg draw the spirals the towers wrapped
    for argv in (["hw", shipped("W1.cfg")],
                 ["all", shipped("W0.cfg"), "--svg", str(tmp_path)]):
        for seen in (fs_calls, spirals, validated):
            seen.clear()
        assert main(argv) == 0
        assert len(fs_calls) == 1
        assert len(spirals) == 3 * 4              # three towers x four levels
        for spiral in spirals:
            assert sum(arc is spiral for arc in validated) == 1


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


def test_all_aborts_on_validation_failure(tmp_path, capsys):
    cfg = tmp_path / "invalid.cfg"
    cfg.write_text(INVALID_CFG)
    assert main(["all", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "validation: FAILED" in out
    assert "euler" not in out            # later sections never ran


def test_missing_config_exit_one(capsys):
    assert main(["all", "/no/such/file.cfg"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error[ConfigError]:")


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


@pytest.mark.parametrize("command", ["render", "hw", "all"])
def test_every_command_rejects_unknown_tower_puncture(command, tmp_path,
                                                      capsys):
    text = Path(shipped("W0.cfg")).read_text()
    cfg = tmp_path / "bad-tower.cfg"
    cfg.write_text(text.replace("towers = b:b a:a a:b", "towers = b:b z:a"))
    argv = [command, str(cfg)]
    if command == "render":
        argv += ["--svg", str(tmp_path / "svg")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error[ConfigError]: tower z:a names puncture 'z', which has no"
        " critical value\n")


# the exit code each error class ends a run with
EXIT_CODES = {
    "LefbenchError": 1, "ConfigError": 1, "NonEmbeddableInput": 1,
    "DegenerateTangency": 1, "SharedBoundaryEndpoint": 1,
    "SpiralCollision": 1,
    "MissingClass": 2, "UnresolvedSign": 2, "UnknownPair": 2,
    "MissingParity": 2, "Undecidable": 2, "IncompleteBasis": 2,
    "MissingFate": 2,
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


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate", shipped("W0.cfg")])
    assert ei.value.code == 1
    with pytest.raises(SystemExit) as ei:
        main(["all"])
    assert ei.value.code == 1


def test_module_invocation():
    # the child process imports the same sources as this one
    src = Path(lefbench.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "lefbench.cli", "validate", shipped("W0.cfg")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert "validation: ok" in proc.stdout
