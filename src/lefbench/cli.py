"""The ``lefbench`` command line tool.

    lefbench <command> <config> [--out report.txt] [--svg dir] [--resolution N]

Commands: validate, homology, floer-ranks, hw, render, all.  run_command
derives the rank analysis once per run and hands it to the report sections
that read it; only the diagrams of ``render`` and ``all --svg`` wrap
spirals.  Exit codes: 0 success; 1 unusable input (config errors,
validation failures, I/O); 2 undecidable (the oracle facts do not
determine an answer); 3 internal inconsistency (the facts contradict each
other or the geometry).  Each error class carries its own code (errors.py).
main builds its parser once per process, on its first call (``_parser``),
so repeated calls leave no discarded parser behind as cyclic garbage.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ScenarioConfig, load_config
from .errors import (ConfigError, IncompleteBasis, LefbenchError,
                     SpiralTooLong)
from .fibration import Fibration, TotalSpaceFiber, total_space_homology
from .fibration import validate as validate_fibration
from .rank_calculus import ScenarioRanks, analyze
from .report import Report, homology_lines, thimble
from .svg import diagram_files, stage_svg
from .tower import build_tower
from .wrapping import (VERTEX_BUDGET, WrapParams, grid_resolution,
                       source_annulus, spiral_vertex_count, wrap)

COMMANDS = ("validate", "homology", "floer-ranks", "hw", "render", "all")


# --------------------------------------------------------------------------
# report sections
# --------------------------------------------------------------------------

def _section_validate(r: Report, cfg: ScenarioConfig) -> bool:
    report = validate_fibration(cfg.fibration)
    violations = report.violations or tuple(_unwrappable_towers(cfg))
    r.line("violations", len(violations))
    for v in violations:
        r.line("violation", v)
    for n in report.notes:
        r.line("note", n)
    r.line("validation", "FAILED" if violations else "ok")
    return not violations


def _unwrappable_towers(cfg: ScenarioConfig):
    """On a fibration that validates, a violation per [run] tower whose
    source fails the checks wrap makes before it builds a spiral."""
    f = cfg.fibration
    for cx, cy in cfg.towers:
        try:
            source_annulus(cx.path, f.disc, bend=cx == cy)
        except LefbenchError as e:
            yield (f"[{f.name}] tower {cx.puncture}:{cy.puncture}: vanishing"
                   f" path of {cx.puncture!r} cannot be wrapped: {e}")


def _section_homology(r: Report, f: Fibration) -> None:
    r.line("fibration", f.name)
    r.line("fiber", f.fiber.name)
    r.line("critical values", len(f.crits))
    for key, value in homology_lines(total_space_homology(f)):
        r.line(key, value)


def _section_floer(r: Report, f: Fibration, out: ScenarioRanks) -> None:
    for fact in f.oracle.fact_lines():
        r.line("fact", fact)
    if isinstance(f.fiber, TotalSpaceFiber):
        inner = f.fiber.fibration
        if inner.oracle is not None:
            for fact in inner.oracle.fact_lines():
                r.line("fiber fact", fact)
    a, b = out.labels
    r.line(f"HF({a},{b})", out.hf_pair)
    r.line("pants image rank", out.pants_image)
    r.line(f"HF({b}, tw_{a} {b})", out.twist)
    r.line(f"Hom_FS({thimble(b)},{thimble(b)})", out.fs.hom_bb)
    r.line(f"Hom_FS({thimble(a)},{thimble(b)})", out.fs.hom_ab)
    r.line(f"Hom_FS(Th_1({b}),{thimble(b)})", out.fs.hom_b1b)
    for w in out.fs.warnings:
        r.line("warning", w)


def _section_hw(r: Report, cfg: ScenarioConfig, out: ScenarioRanks) -> None:
    f = cfg.fibration
    if not cfg.towers:
        raise IncompleteBasis(
            "the [run] section requests no towers, so no wrapped verdict"
            " can be assembled")
    r.line("wrap delta", cfg.wrap.delta)
    r.line("wrap levels", " ".join(str(m) for m in cfg.wrap.levels))
    for cx, cy in cfg.towers:
        lx, ly = cx.cycle_label, cy.cycle_label
        name = f"tower {thimble(lx)}:{thimble(ly)}"
        stages = build_tower(f, cx, cy, cfg.wrap, out.fs)
        for s in stages:
            cert = ("none" if s.rank_certificate is None
                    else s.rank_certificate)
            r.line(f"{name} stage m={s.m}",
                   f"{s.count} generator(s), u {s.u_count},"
                   f" certificate {cert}")
        if cx == cy:
            # a self-tower (one crit twice, as in build_stage) reports the
            # fate of its unit, which every continuation map carries along
            nonzero = out.hw[lx]
            note = "exists; unit image " + ("persists" if nonzero else "dies")
        else:
            nonzero, note = out.hw_mixed, "exists"
        for lo, hi in zip(stages, stages[1:]):
            r.line(f"{name} continuation {lo.m}->{hi.m}", note)
        r.line(f"HW({thimble(lx)},{thimble(ly)})",
               "nonzero" if nonzero else "0")
    r.line("unit fate", "Survives" if out.hw[out.labels[1]] else "Dies")
    r.line("obstruction", "Obstructed" if out.obstructed else "NoConclusion")


def _section_trace(r: Report, out: ScenarioRanks) -> None:
    r.blank()
    r.raw("PROOF TRACE")
    for i, step in enumerate(out.trace, 1):
        r.raw(f"  {i}. [{step.tag}] {step.text}")


def _render_svgs(cfg: ScenarioConfig, outdir: str) -> list[str]:
    """Write the discs and a diagram per stage, its spiral wrapped here, and
    proved legal by wrap, which raises the full check's error on a grid too
    coarse.  A render over VERTEX_BUDGET spiral vertices builds none."""
    f = cfg.fibration
    stages = [(cx, cy, m) for cx, cy in cfg.towers for m in cfg.wrap.levels]
    sizes = [spiral_vertex_count(cx.path, m, cfg.wrap, bend=cx == cy)
             for cx, cy, m in stages]
    if sum(sizes) > VERTEX_BUDGET:
        cx, cy, m = stages[sizes.index(max(sizes))]
        raise SpiralTooLong(
            f"the spirals of this render at boundary resolution"
            f" {cfg.wrap.resolution} need {sum(sizes)} vertices,"
            f" above the budget of {VERTEX_BUDGET}; the deepest is tower"
            f" {cx.puncture}:{cy.puncture} at level {m}")
    files = list(diagram_files(f))
    for cx, cy, m in stages:
        spiral = wrap(cx.path, m, cfg.wrap, f.disc, bend=cx == cy)
        files.append((f"{cfg.name}-tower-{cx.puncture}-{cy.puncture}-m{m}.svg",
                      stage_svg(f.disc, cy.path, spiral)))
    d = Path(outdir)
    try:
        d.mkdir(parents=True, exist_ok=True)
        for name, text in files:
            (d / name).write_text(text, encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"--svg {outdir}: cannot write diagrams ({e})"
                          ) from None
    return [name for name, _ in files]


# --------------------------------------------------------------------------
# command driver
# --------------------------------------------------------------------------

def run_command(command: str, cfg: ScenarioConfig,
                svg_dir: str | None = None) -> tuple[str, int]:
    """Execute one command of COMMANDS, the only ones main's parser
    admits; returns (report text, exit code)."""
    r = Report()
    r.line("scenario", cfg.name)
    r.line("command", command)
    code = 0

    if command == "validate":
        if not _section_validate(r, cfg):
            code = 1
    elif command == "homology":
        _section_homology(r, cfg.fibration)
    elif command == "floer-ranks":
        _section_floer(r, cfg.fibration, analyze(cfg.fibration))
    elif command == "hw":
        _section_hw(r, cfg, analyze(cfg.fibration))
    elif command == "render":
        if svg_dir is None:
            raise ConfigError("the render command needs --svg DIR")
        for name in _render_svgs(cfg, svg_dir):
            r.line("svg", name)
    elif command == "all":
        if not _section_validate(r, cfg):
            return r.render(), 1
        r.blank()
        _section_homology(r, cfg.fibration)
        r.blank()
        out = analyze(cfg.fibration)
        _section_floer(r, cfg.fibration, out)
        r.blank()
        _section_hw(r, cfg, out)
        _section_trace(r, out)
        if svg_dir is not None:
            r.blank()
            for name in _render_svgs(cfg, svg_dir):
                r.line("svg", name)
    return r.render(), code


class _Parser(argparse.ArgumentParser):
    # usage problems are input problems: exit 1, not argparse's default 2
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> _Parser:
    p = _Parser(prog="lefbench",
                description="Exact-rank workbench for bifibered Lefschetz"
                            " scenarios over the disc.")
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("config", help="scenario config file")
    p.add_argument("--out", metavar="FILE", help="write the report here")
    p.add_argument("--svg", metavar="DIR", help="write SVG diagrams here")
    p.add_argument("--resolution", type=int, metavar="N",
                   help="override the run disc's boundary grid resolution")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.resolution is not None:
            cfg = ScenarioConfig(cfg.fibration, WrapParams(
                *cfg.wrap[:2], grid_resolution(args.resolution)), cfg.towers)
        text, code = run_command(args.command, cfg, args.svg)
    except LefbenchError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return e.exit_code

    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as e:
            print(f"error[ReportWrite]: {e}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
