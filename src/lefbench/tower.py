"""Stage-by-stage bookkeeping for the direct system of wrapped thimble
complexes.

A stage at wrapping level m records the generator inventory of the complex
between one thimble wrapped m turns and another held fixed: one fiber block
per interior crossing of the two base paths, plus the distinguished
generator u at a shared critical endpoint; it keeps the spiral it wrapped
(stage_spiral), which the stage diagrams draw.  No differentials are computed
here - exactness certificates are read off the directed ranks (FsHomRanks)
that the caller has already derived with the rank calculus, and the stage
merely checks that its inventory is large enough and of the right parity to
carry them.  Tower assembly folds the stages into a single wrapped-group
verdict driven by the fate of u.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .disc import PlanarArc, WrapSpec
from .errors import (ConfigError, Inconsistent, LefbenchError, MissingFate,
                     Undecidable)
from .exactgeom import Pt
from .fibration import Crit, Fibration
from .minpos import intersection_profile, minimal_position
from .oracle import RankResult
from .rank_calculus import FsHomRanks, TraceStep, UnitFate, hw_verdict, HWVerdict
from .wrapping import wrap

ORDINARY = "ordinary"
CRITICAL_U = "critical_u"

NO_ARROWS_AT_U = (
    "no arrows between the critical generator u and any other generator")
ARROWS_STAY_IN_BLOCK = (
    "arrows between ordinary generators stay within the fiber block over a"
    " single base crossing")


@dataclass(frozen=True)
class Generator:
    point: Pt
    multiplicity: int
    tag: str

    def __post_init__(self):
        if self.tag not in (ORDINARY, CRITICAL_U):
            raise LefbenchError(f"unknown generator tag {self.tag!r}")
        if self.multiplicity < 1:
            raise LefbenchError("generators carry positive multiplicity")
        if self.tag == CRITICAL_U and self.multiplicity != 1:
            raise LefbenchError("the critical generator is a single class")


@dataclass(frozen=True)
class WrappedComplexStage:
    m: int
    generators: tuple[Generator, ...]
    rank_certificate: RankResult | None = None
    differential_constraints: tuple[str, ...] = ()
    spiral: PlanarArc | None = None     # as wrapped, before minimal position

    def __post_init__(self):
        if self.m < 0:
            raise LefbenchError("wrapping level is nonnegative")
        cert = self.rank_certificate
        if cert is not None:
            if not cert.exact:
                raise LefbenchError(
                    "only exact ranks certify a stage; a bound certifies"
                    " nothing")
            if cert.value > self.count or (cert.value - self.count) % 2:
                raise Inconsistent(
                    f"stage m={self.m} has {self.count} generators but a"
                    f" rank certificate of {cert.value}; the certified rank"
                    " must not exceed the count and must match its parity")

    @property
    def count(self) -> int:
        return sum(g.multiplicity for g in self.generators)

    @property
    def u_count(self) -> int:
        return sum(1 for g in self.generators if g.tag == CRITICAL_U)

    def inventory(self) -> tuple[tuple[int, str], ...]:
        """Combinatorial content: the sorted (multiplicity, tag) multiset.

        Stable under refinement of the boundary grid, which moves crossing
        points slightly but cannot change what they contribute.
        """
        return tuple(sorted((g.multiplicity, g.tag) for g in self.generators))


def tower_crits(f: Fibration, x: str, y: str) -> tuple[Crit, Crit]:
    """The critical values over the two punctures a tower x:y names."""
    cx, cy = f.crit_for(x), f.crit_for(y)
    if cx is None or cy is None:
        missing = x if cx is None else y
        raise ConfigError(
            f"tower {x}:{y} names puncture {missing!r}, which has no"
            " critical value")
    return cx, cy


def stage_spiral(f: Fibration, x: str, y: str, spec: WrapSpec) -> PlanarArc:
    """x's vanishing path wrapped spec.m turns, bent off its source on a
    self-tower; unvalidated, so the caller checks it once before use."""
    cx, _ = tower_crits(f, x, y)
    return wrap(cx.path, spec, f.disc, bend=x == y)


def build_stage(f: Fibration, x: str, y: str, spec: WrapSpec,
                fs: FsHomRanks) -> WrappedComplexStage:
    """Inventory of the complex between x's thimble wrapped spec.m turns
    and y's thimble, both named by their punctures.

    The rank certificate, where the directed calculus supplies one, is read
    from ``fs``.  The wrapped spiral is validated once, by minimal_position.
    """
    o = f.oracle
    if o is None:
        raise Undecidable(f"fibration {f.name!r} carries no rank oracle")
    cx, cy = tower_crits(f, x, y)
    spiral = stage_spiral(f, x, y, spec)
    a, b = minimal_position(spiral, cy.path, f.disc)
    profile = intersection_profile(a, b, f.disc)

    mult = None
    gens: list[Generator] = []
    for p in profile.interior_crossings:
        if mult is None:
            mult = o.rank_of(cx.cycle_label, cy.cycle_label)
        gens.append(Generator(p, mult, ORDINARY))
    for name in profile.shared_punctures:
        gens.append(Generator(f.disc.point_of(name), 1, CRITICAL_U))

    constraints: list[str] = []
    if any(g.tag == CRITICAL_U for g in gens):
        constraints.append(NO_ARROWS_AT_U)
    if any(g.tag == ORDINARY for g in gens):
        constraints.append(ARROWS_STAY_IN_BLOCK)

    return WrappedComplexStage(
        m=spec.m, generators=tuple(gens),
        rank_certificate=_certificate(fs, x == y, spec.m),
        differential_constraints=tuple(constraints), spiral=spiral)


def _certificate(fs: FsHomRanks, self_pair: bool,
                 m: int) -> RankResult | None:
    """Exact rank from the directed calculus, where it supplies one.

    The calculus certifies the bottom of a self-tower (the unit alone), the
    once-wrapped self-stage (the evaluation cone), and the once-wrapped
    mixed stage (the thimble pair rank).  Higher levels are uncertified.
    """
    wanted = (self_pair and m in (0, 1)) or (not self_pair and m == 1)
    if not wanted:
        return None
    if self_pair:
        value = fs.hom_bb if m == 0 else fs.hom_b1b
    else:
        value = fs.hom_ab
    return RankResult(True, value)


@dataclass(frozen=True)
class ContinuationExists:
    m: int
    n: int
    unit_image_persists: bool

    def __post_init__(self):
        if not self.m < self.n:
            raise LefbenchError("continuation maps increase the level")


@dataclass(frozen=True)
class Tower:
    stages: tuple[WrappedComplexStage, ...]
    continuation: tuple[ContinuationExists, ...]
    fate: UnitFate | None
    verdict: HWVerdict

    def stage(self, m: int) -> WrappedComplexStage:
        for s in self.stages:
            if s.m == m:
                return s
        raise KeyError(m)

    def counts(self) -> tuple[tuple[int, int], ...]:
        return tuple((s.m, s.count) for s in self.stages)


def assemble_tower(stages: Iterable[WrappedComplexStage],
                   fate: UnitFate | None = None,
                   verdict: HWVerdict | None = None) -> Tower:
    """Fold stages into a tower and settle the wrapped-group verdict.

    A self-tower's verdict is its unit's: a supplied fate decides it
    through hw_verdict, with Dies propagated through every continuation
    map.  A mixed tower has no unit; its verdict comes from the module
    rule in the rank calculus and is passed in ready-made.  The only
    towers allowed to go without either are the trivially empty ones,
    which vanish outright.
    """
    ordered = tuple(sorted(stages, key=lambda s: s.m))
    if not ordered:
        raise LefbenchError("a tower needs at least one stage")
    if len({s.m for s in ordered}) != len(ordered):
        raise LefbenchError("duplicate wrapping level")
    for lo, hi in zip(ordered, ordered[1:]):
        if hi.count < lo.count:
            raise Inconsistent(
                f"inventory shrank from level {lo.m} ({lo.count}) to level"
                f" {hi.m} ({hi.count}); wrapping only adds crossings")

    has_u = any(s.u_count for s in ordered)
    if fate is not None:
        if not has_u:
            raise Inconsistent(
                "a unit fate was supplied but no stage contains the"
                " critical generator u")
        if verdict is not None:
            raise LefbenchError("supply a fate or a verdict, not both")
        verdict = hw_verdict(fate)
        if fate is UnitFate.SURVIVES:
            verdict = HWVerdict(True, verdict.steps + (TraceStep(
                "stabilization",
                "per-stage inventories are reported without a stabilization"
                " bound; the unit persists at every computed level"),))
    elif verdict is None:
        if not has_u and all(s.count == 0 for s in ordered):
            verdict = HWVerdict(False, (TraceStep(
                "empty-tower",
                "every stage is empty and there is no critical generator,"
                " so the limit group vanishes outright"),))
        else:
            raise MissingFate(
                "a nonempty tower needs the unit fate (or a module-rule"
                " verdict) from the rank calculus")

    persists = has_u and fate is UnitFate.SURVIVES
    continuation = tuple(
        ContinuationExists(lo.m, hi.m, persists)
        for lo, hi in zip(ordered, ordered[1:]))
    return Tower(ordered, continuation, fate, verdict)


def build_tower(f: Fibration, x: str, y: str, levels: Iterable[int],
                delta: Fraction, bend: Fraction, fs: FsHomRanks,
                fate: UnitFate | None = None,
                verdict: HWVerdict | None = None) -> Tower:
    stages = (build_stage(f, x, y, WrapSpec(m, delta, bend), fs)
              for m in sorted(set(levels)))
    return assemble_tower(stages, fate, verdict)
