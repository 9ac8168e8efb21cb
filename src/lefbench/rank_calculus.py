"""Exact-triangle rank bookkeeping, unit fate, and verdicts.

Everything here is ungraded linear algebra over Z/2 at the level of ranks:
an exact triangle with known edge map image rank f relates three ranks by
rank M = k + l - 2f.  The twist triangle and the evaluation-cone triangle
are instances; comparing them decides whether the distinguished unit
generator u survives wrapping, which in turn decides whether the wrapped
groups vanish.  analyze decides each verdict once, as a plain value, and
records each derivation step as a tagged trace step so reports can be
compared literally.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ImageTooLarge, Inconsistent, MissingClass, Undecidable
from .fibration import Fibration, TotalSpaceFiber
from .oracle import FiberOracle, matching_floer_rank


class TraceStep(NamedTuple):
    tag: str
    text: str


def triangle_rank(k: int, l: int, f: int) -> int:
    """Rank of the third object in an exact triangle with edge ranks k, l
    and edge-map image rank f, all nonnegative: the oracle refuses a
    negative rank fact, and every other rank here is a count."""
    if f > min(k, l):
        raise ImageTooLarge(
            f"image rank {f} exceeds min({k}, {l})")
    return k + l - 2 * f


def pair_of_pants_image_rank(o: FiberOracle, a: str, b: str) -> int:
    """Image rank of the product HF(a,b) x HF(b,a) -> HF(b,b).

    Only the two certified situations are decided: isotopic cycles (the
    product is onto the rank-2 group) and witnessed non-isomorphism (the
    image is exactly the span of the fundamental class: it hits it by
    duality and misses the identity because the would-be preimage factors
    through the vanishing witness group).  Everything else is Undecidable.
    """
    if not o.rank_known(b, b) or o.rank_of(b, b) != 2:
        raise Undecidable(
            f"pair-of-pants image rank needs rank({b},{b}) = 2")
    status = o.isomorphic_objects(a, b)
    if status == "yes":
        return 2
    if status == "no":
        return 1
    raise Undecidable(
        f"isomorphism status of ({a},{b}) is unknown; the image rank is"
        " certified in no other case")


NONZERO_EV_WARNING = (
    "NonzeroEvViolation: the evaluation class must be nonzero, but the"
    " thimble pair has rank 0, forcing a zero evaluation map")


class FsHomRanks(NamedTuple):
    hom_bb: int
    hom_ab: int
    hom_b1b: int
    warnings: tuple[str, ...] = ()


def fs_hom_ranks(f: Fibration) -> FsHomRanks:
    """The three directed-category ranks at the bottom of the tower, for
    a fibration with exactly two critical values (analyze checks that).

    hom_bb is rank one, generated by the unit at the single self-contact.
    hom_ab is computed geometrically from the matching data in the fiber
    (an exact rank, or MissingParity) and cross-checked against the
    declared rank when one exists.  hom_b1b is the evaluation-cone triangle
    applied to the square of hom_ab with image rank one (the evaluation
    class is nonzero whenever the pair rank allows it).
    """
    o = f.oracle
    if not isinstance(f.fiber, TotalSpaceFiber):
        raise Undecidable(
            "the thimble pair rank is computed from matching data in the"
            " fiber, which needs the fiber to be a total space")
    aux = f.fiber.fibration
    if aux.oracle is None:
        raise Undecidable("the inner fibration carries no rank oracle")
    label_a, label_b = (c.cycle_label for c in f.crits)
    x = aux.object_named(label_a)
    y = aux.object_named(label_b)
    if x is None or y is None:
        raise MissingClass(
            f"labels {label_a!r}, {label_b!r} do not both name objects on"
            f" {aux.name!r}")
    hom_ab = matching_floer_rank(aux, x, y, aux.oracle)
    if o is not None and o.rank_known(label_a, label_b):
        declared = o.rank_of(label_a, label_b)
        if declared != hom_ab:
            raise Inconsistent(
                f"declared rank({label_a},{label_b}) = {declared} but the"
                f" matching data gives {hom_ab}")

    warnings: tuple[str, ...] = ()
    f_ev = 1 if hom_ab > 0 else 0
    if hom_ab == 0:
        warnings = (NONZERO_EV_WARNING,)
    hom_b1b = triangle_rank(1, hom_ab * hom_ab, f_ev)
    return FsHomRanks(1, hom_ab, hom_b1b, warnings)


def unit_survives(rank_total: int, rank_quotient: int) -> bool:
    """Whether u survives, from the ranks of the total and quotient
    complexes.

    The short exact sequence 0 -> <u> -> C -> C_quot -> 0 has no
    differential out of u, so over Z/2 the total rank is the quotient rank
    plus one (u survives) or minus one (u is hit by the connecting map);
    anything else means the input ranks are wrong.
    """
    if rank_total == rank_quotient + 1:
        return True
    if rank_total == rank_quotient - 1:
        return False
    raise Inconsistent(
        f"total rank {rank_total} and quotient rank {rank_quotient} differ"
        " by something other than one; the unit subcomplex forces a"
        " difference of exactly one")


# --------------------------------------------------------------------------
# whole-scenario analysis
# --------------------------------------------------------------------------

# The fixed-text steps of the verdicts analyze derives from the fate of u.
# A thimble's wrapped self-group is unital, so it vanishes exactly when its
# unit dies.  The mixed group is a module over each diagonal one, so it
# vanishes with either; a nonvanishing one is certified only by a closed
# sphere witness, which the calculus has exactly when the two cycles are
# isotopic (the matching sphere closes up).  A closed exact Lagrangian has
# nonzero self-Floer cohomology, computed by a spectral sequence whose first
# page is built from the wrapped groups of a full thimble basis, so
# vanishing diagonal groups obstruct one.
UNIT_DEATH = TraceStep(
    "unit-death",
    "u is hit by the connecting differential at the first wrapping level"
    " and its continuation images stay exact, so the unit of the limit"
    " group is zero; a unital group with zero unit vanishes")
UNIT_SURVIVAL = TraceStep(
    "unit-survival",
    "u is not a boundary at the first wrapping level and no later"
    " differential can reach it, so the unit persists in the limit and the"
    " group is nonzero")
MODULE_VANISHING = TraceStep(
    "module-vanishing",
    "the mixed wrapped group is a module over the vanishing diagonal group,"
    " so it vanishes as well")
OBSTRUCTED = TraceStep(
    "obstruction",
    "every diagonal wrapped group of the thimble basis vanishes, so the"
    " spectral sequence converging to the self-Floer cohomology of any"
    " closed exact Lagrangian has vanishing first page; such a Lagrangian"
    " would have nonzero self-Floer cohomology, so none exists")
NO_CONCLUSION = TraceStep(
    "obstruction",
    "some diagonal wrapped group is nonzero, so the spectral-sequence page"
    " is nonzero and no obstruction follows")


class ScenarioRanks(NamedTuple):
    labels: tuple[str, str]              # cycle labels of the two thimbles
    hf_pair: int                         # rank between the two cycles
    pants_image: int
    twist: int
    fs: FsHomRanks
    hw: dict[str, bool]                  # HW(Th(x),Th(x)) nonzero, by label
    hw_mixed: bool                       # HW(Th(a),Th(b)) nonzero
    obstructed: bool                     # no closed exact Lagrangian
    trace: tuple[TraceStep, ...]


def _directed_twist(o: FiberOracle, twister: str, twistee: str) -> tuple[int, int, int]:
    """(pair product rank, pants image rank, twist rank) for one direction."""
    k = o.rank_of(twister, twistee) * o.rank_of(twistee, twister)
    pants = 0 if k == 0 else pair_of_pants_image_rank(o, twister, twistee)
    return k, pants, triangle_rank(k, o.rank_of(twistee, twistee), pants)


def analyze(f: Fibration) -> ScenarioRanks:
    """Run the full rank pipeline for a two-thimble scenario, deciding
    every wrapped verdict and recording every trace step.

    The calculus is run once per thimble (each is twisted by the other to
    settle the fate of its own unit).  The reported trace follows the
    distinguished direction: the second thimble twisted by the first.
    """
    o = f.oracle
    if o is None:
        raise Undecidable(f"fibration {f.name!r} carries no rank oracle")
    if len(f.crits) != 2:
        raise Undecidable("the scenario analysis needs exactly two thimbles")
    a, b = (c.cycle_label for c in f.crits)

    trace: list[TraceStep] = []
    k, pants, twist = _directed_twist(o, a, b)
    trace.append(TraceStep(
        "twist-triangle",
        f"rank({a},{b}) x rank({b},{a}) = {k} maps onto an image of rank"
        f" {pants} inside rank({b},{b}) = {o.rank_of(b, b)}, so the twisted"
        f" group has rank {k} + {o.rank_of(b, b)} - 2*{pants} = {twist}"))

    fs = fs_hom_ranks(f)
    trace.append(TraceStep(
        "evaluation-cone",
        f"the once-wrapped thimble is a cone on the evaluation map, giving"
        f" hom ranks ({fs.hom_bb}, {fs.hom_ab}, {fs.hom_b1b}): "
        f"{fs.hom_bb} + {fs.hom_ab}^2 - 2*1 = {fs.hom_b1b}"))

    alive_b = unit_survives(fs.hom_b1b, twist)
    trace.append(TraceStep(
        "unit-fate",
        f"the total complex has rank {fs.hom_b1b} against quotient rank"
        f" {twist}, so the unit generator u"
        f" {'survives' if alive_b else 'dies'}"))
    trace.append(UNIT_SURVIVAL if alive_b else UNIT_DEATH)

    # Same calculus with the roles swapped settles the other diagonal
    # entry.  fs_hom_ranks is symmetric in the two thimbles (the pair rank
    # is an unordered geometric count), so only the twist recomputes.
    _, _, twist_a = _directed_twist(o, b, a)
    hw = {b: alive_b, a: unit_survives(fs.hom_b1b, twist_a)}

    if not (hw[a] and hw[b]):
        hw_mixed = False
        trace.append(MODULE_VANISHING)
    elif o.isomorphic_objects(a, b) == "yes":
        hw_mixed = True
        trace.append(TraceStep(
            "sphere-witness",
            f"the cycles {a} and {b} are isotopic, so the matching sphere"
            " closes up to a closed exact Lagrangian whose Floer group"
            " forces the mixed wrapped group to be nonzero"))
    else:
        raise Undecidable(
            "a nonvanishing mixed wrapped group is certified only through a"
            " closed sphere witness, which needs isotopic cycles")

    obstructed = not any(hw.values())
    trace.append(OBSTRUCTED if obstructed else NO_CONCLUSION)

    return ScenarioRanks(
        labels=(a, b), hf_pair=o.rank_of(a, b), pants_image=pants,
        twist=twist, fs=fs, hw=hw, hw_mixed=hw_mixed, obstructed=obstructed,
        trace=tuple(trace))
