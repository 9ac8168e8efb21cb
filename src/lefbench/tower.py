"""Stage-by-stage bookkeeping for the direct system of wrapped thimble
complexes.

A stage at wrapping level m counts the generators of the complex between
one thimble wrapped m turns and another held fixed: one fiber block per
interior crossing of the two base paths, each of the rank of the thimbles'
labels, plus the distinguished generator u at a shared critical endpoint;
it keeps the spiral it wrapped (stage_spiral), which the stage diagrams
draw.  No differentials are computed here, though two rules constrain them:
no arrow joins u to any other generator, and arrows between ordinary
generators stay within the fiber block over a single base crossing.  A
stage's rank certificate is an exact rank, read off the directed ranks
(FsHomRanks) that the caller has already derived with the rank calculus,
and the stage merely checks that its generator count is large enough and of
the right parity to carry it.

A tower x:y is built from the two Crits that tower_crits resolves once (a
self-tower is one crit twice), with wrap parameters the config has checked
and an oracle that analyze has required.  It is the tuple of its stages
in level order, checked to grow with the level and, on a self-tower, to
contain u.
It settles no verdict: the fate of u decides each wrapped group once, in
rank_calculus.analyze, and the report reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .disc import PlanarArc
from .errors import ConfigError, Inconsistent, LefbenchError
from .fibration import Crit, Fibration
from .minpos import intersection_profile
from .rank_calculus import FsHomRanks
from .wrapping import WrapParams, wrap

@dataclass(frozen=True)
class WrappedComplexStage:
    m: int
    crossings: int                       # interior crossings of the paths
    block: int                           # generators over each crossing
    u_count: int                         # shared critical endpoints
    rank_certificate: int | None = None  # an exact rank
    spiral: PlanarArc | None = None      # as wrapped, before minimal position

    def __post_init__(self):
        if self.crossings and self.block < 1:
            raise LefbenchError("generators carry positive multiplicity")
        cert = self.rank_certificate
        if cert is not None and (cert > self.count
                                 or (cert - self.count) % 2):
            raise Inconsistent(
                f"stage m={self.m} has {self.count} generators but a rank"
                f" certificate of {cert}; the certified rank must not"
                " exceed the count and must match its parity")

    @property
    def count(self) -> int:
        return self.crossings * self.block + self.u_count


def tower_crits(f: Fibration, x: str, y: str) -> tuple[Crit, Crit]:
    """The critical values over the two punctures a tower x:y names."""
    cx, cy = f.crit_for(x), f.crit_for(y)
    if cx is None or cy is None:
        missing = x if cx is None else y
        raise ConfigError(
            f"tower {x}:{y} names puncture {missing!r}, which has no"
            " critical value")
    return cx, cy


def stage_spiral(f: Fibration, cx: Crit, cy: Crit, m: int,
                 params: WrapParams) -> PlanarArc:
    """cx's vanishing path wrapped m turns, bent off its source on a
    self-tower (cy is cx); unvalidated, so the caller checks it once before
    use."""
    return wrap(cx.path, m, params, f.disc, bend=cx == cy)


def build_stage(f: Fibration, cx: Crit, cy: Crit, m: int, params: WrapParams,
                fs: FsHomRanks) -> WrappedComplexStage:
    """Generator counts of the complex between cx's thimble wrapped m turns
    and cy's thimble.

    The block rank is asked of the oracle only when the paths cross.  The
    rank certificate, where the directed calculus supplies one, is read
    from ``fs``.  The wrapped spiral is validated once, by
    intersection_profile.
    """
    spiral = stage_spiral(f, cx, cy, m, params)
    profile = intersection_profile(spiral, cy.path, f.disc)

    n = profile.crossing_count
    return WrappedComplexStage(
        m=m, crossings=n,
        block=f.oracle.rank_of(cx.cycle_label, cy.cycle_label) if n else 0,
        u_count=len(profile.shared_punctures),
        rank_certificate=_certificate(fs, cx == cy, m), spiral=spiral)


def _certificate(fs: FsHomRanks, self_pair: bool, m: int) -> int | None:
    """Exact rank from the directed calculus, where it supplies one.

    The calculus certifies the bottom of a self-tower (the unit alone), the
    once-wrapped self-stage (the evaluation cone), and the once-wrapped
    mixed stage (the thimble pair rank).  Higher levels are uncertified.
    """
    wanted = (self_pair and m in (0, 1)) or (not self_pair and m == 1)
    if not wanted:
        return None
    if self_pair:
        return fs.hom_bb if m == 0 else fs.hom_b1b
    return fs.hom_ab


def assemble_tower(stages: Iterable[WrappedComplexStage],
                   self_pair: bool) -> tuple[WrappedComplexStage, ...]:
    """The tower of one pair's stages, given in level order, checked.

    Wrapping only adds crossings, so generator counts never shrink; and a
    self-tower (``self_pair``), whose verdict is the fate of its unit, must
    contain u.
    """
    ordered = tuple(stages)
    for lo, hi in zip(ordered, ordered[1:]):
        if hi.count < lo.count:
            raise Inconsistent(
                f"inventory shrank from level {lo.m} ({lo.count}) to level"
                f" {hi.m} ({hi.count}); wrapping only adds crossings")
    if self_pair and not any(s.u_count for s in ordered):
        raise Inconsistent(
            "a self-tower needs the critical generator u, but no stage"
            " contains it")
    return ordered


def build_tower(f: Fibration, cx: Crit, cy: Crit, params: WrapParams,
                fs: FsHomRanks) -> tuple[WrappedComplexStage, ...]:
    """The checked stages of the tower cx:cy, one per level, in order."""
    stages = (build_stage(f, cx, cy, m, params, fs)
              for m in sorted(params.levels))
    return assemble_tower(stages, cx == cy)
