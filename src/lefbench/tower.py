"""Stage-by-stage bookkeeping for the direct system of wrapped thimble
complexes.

A stage at wrapping level m counts the generators of the complex between
one thimble wrapped m turns and another held fixed: one fiber block per
interior crossing of the two base paths, each of the rank of the thimbles'
labels, plus the distinguished generator u at a shared critical endpoint.
It counts the crossings in closed form and builds no spiral: cut along the
vanishing paths, the disc is one disc, and the wrapped path's reduced word
in the cuts has one letter per crossing with a cut in minimal position
(bigon criterion: Farb-Margalit, A Primer on Mapping Class Groups, 1.2).
Each turn of that word holds every cut once, so the count needs only the
level, the number of cuts and the order of the two paths at a shared end.
No differentials are computed here, though two rules constrain them: no
arrow joins u to any other generator, and arrows between ordinary
generators stay within the fiber block over a single base crossing.  A
stage's rank certificate is an exact rank, read off the directed ranks
(FsHomRanks) that the caller has already derived with the rank calculus,
and the stage merely checks that its generator count is large enough and
of the right parity to carry it.

A tower x:y is built from the Crits over its two punctures, the pair the
config resolved when it was read (a self-tower is one crit twice), with
wrap levels the config has checked and an oracle that analyze has required.
It is the tuple of its stages in level order.  It settles no verdict: the
fate of u decides each wrapped group once, in rank_calculus.analyze, and
the report reads it from there.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Inconsistent, LefbenchError
from .exactgeom import orient
from .fibration import Crit, Fibration
from .rank_calculus import FsHomRanks
from .wrapping import WrapParams, source_annulus

@dataclass(frozen=True)
class WrappedComplexStage:
    m: int
    crossings: int                       # interior crossings of the paths
    block: int                           # generators over each crossing
    u_count: int                         # shared critical endpoints
    rank_certificate: int | None = None  # an exact rank

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


def build_stage(f: Fibration, cx: Crit, cy: Crit, m: int,
                fs: FsHomRanks) -> WrappedComplexStage:
    """Generator counts of the complex between cx's thimble wrapped m turns
    and cy's thimble.  The copy follows its source, a cut, and then the
    boundary counterclockwise from just past the source's end: m turns,
    each passing every cut once, and then, up to delta (below every other
    gap), the cuts tied at cx's end after it, in the order the last
    segments reach that end (cx's turns right to theirs).  These letters
    share one sign, and the leading ones of cx's own cut are half-bigons
    at its puncture: on a lone cut, all of them.  So the copy crosses cy m
    times, unless cx is a lone cut, and once more if cy is tied after cx.
    The block rank is asked of the oracle only when the paths cross."""
    source_annulus(cx.path, f.disc, bend=cx == cy)   # the source check
    bad = next((text for is_violation, text in f.path_findings
                if is_violation), None)
    if bad is not None:
        raise LefbenchError(f"{bad}; a tower stage is counted on disjoint"
                            " vanishing paths")
    (*_, vx, p), (*_, vy, _) = cx.path.hverts, cy.path.hverts
    tied = cx.path.end == cy.path.end and orient(p, vx, vy) < 0
    n = m * (len(f.crits) > 1) + tied
    return WrappedComplexStage(
        m=m, crossings=n,
        block=f.oracle.rank_of(cx.cycle_label, cy.cycle_label) if n else 0,
        u_count=int(cx == cy), rank_certificate=_certificate(fs, cx == cy, m))


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


def build_tower(f: Fibration, cx: Crit, cy: Crit, params: WrapParams,
                fs: FsHomRanks) -> tuple[WrappedComplexStage, ...]:
    """The stages of the tower cx:cy, one per level, in level order.  Each
    level adds a turn, so the counts grow with the level, and on a
    self-tower every stage holds u."""
    return tuple([build_stage(f, cx, cy, m, fs)
                  for m in sorted(params.levels)])
