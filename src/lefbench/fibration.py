"""Fibrations over the punctured disc: schema, validation, homology.

A fibration is described combinatorially: a disc with punctures (the critical
values), one vanishing path per puncture carrying a cycle label, and a fiber.
The fiber is either an AbstractFiber (a homology table plus homology classes
for the labelled cycles) or the total space of another fibration, in which
case cycle labels name matching/thimble objects declared on that inner
fibration and their classes are computed rather than declared.

Homology of the total space comes from the handle description: thicken the
fiber, then attach one (dim fiber / 2 + 1)-cell per critical value along its
vanishing cycle class.  Each fibration derives that handle model once: the
fiber's homology, the attachment degree, the attachment matrix's columns
(the vanishing cycle classes) and its invariant factors.  The two degrees
that can change, and the classes of matching objects (their cell cycles),
are all read from it, so a chain of total-space fibers derives each level's
classes once.  It also checks each pair of its vanishing paths once, for
validate to report and for tower stages to require.

Every validation check yields (violation?, text) findings into one list,
which validate prefixes with the fibration's name and splits once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, NamedTuple

from .disc import BoundaryAngle, DiscModel, PlanarArc
from .errors import (Inconsistent, LefbenchError, MissingClass,
                     SharedBoundaryEndpoint, UnresolvedSign)
from .exactgeom import box_pairs, closed_segments_touch, orient
from .minpos import compute_crossings, intersection_profile
from .snf import smith_form

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .oracle import FiberOracle


# --------------------------------------------------------------------------
# homology tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class HomologyTable:
    """Finitely supported integral homology: degree -> (free rank, torsion).

    Torsion invariants are stored in increasing divisibility order, each >= 2.
    Degrees with trivial group are omitted.
    """
    groups: tuple[tuple[int, int, tuple[int, ...]], ...]

    def __post_init__(self):
        seen = set()
        cleaned = []
        for deg, free, torsion in self.groups:
            if deg in seen:
                raise LefbenchError(f"duplicate homology degree {deg}")
            seen.add(deg)
            torsion = tuple(torsion)
            if free < 0:
                raise LefbenchError(f"negative free rank in degree {deg}")
            if any(t < 2 for t in torsion):
                raise LefbenchError(
                    f"torsion invariants in degree {deg} must be >= 2")
            for t, u in zip(torsion, torsion[1:]):
                if u % t:
                    raise LefbenchError(
                        f"torsion invariants in degree {deg} must form a"
                        " divisibility chain")
            if free or torsion:
                cleaned.append((deg, free, torsion))
        cleaned.sort()
        object.__setattr__(self, "groups", tuple(cleaned))

    @staticmethod
    def of(table: Mapping[int, tuple[int, Iterable[int]]]) -> "HomologyTable":
        return HomologyTable(tuple([
            (deg, free, tuple(torsion)) for deg, (free, torsion) in table.items()]))

    def degrees(self) -> tuple[int, ...]:
        return tuple([deg for deg, _, _ in self.groups])

    def free_rank(self, deg: int) -> int:
        for d, free, _ in self.groups:
            if d == deg:
                return free
        return 0

    def torsion(self, deg: int) -> tuple[int, ...]:
        for d, _, torsion in self.groups:
            if d == deg:
                return torsion
        return ()

    def euler(self) -> int:
        return sum((-1) ** deg * free for deg, free, _ in self.groups)

    def mod2_rank(self, deg: int) -> int:
        even_here = sum(1 for t in self.torsion(deg) if t % 2 == 0)
        even_below = sum(1 for t in self.torsion(deg - 1) if t % 2 == 0)
        return self.free_rank(deg) + even_here + even_below

    def mod2_table(self) -> tuple[tuple[int, int], ...]:
        degs = set(self.degrees()) | {d + 1 for d in self.degrees()}
        out = [(d, self.mod2_rank(d)) for d in sorted(degs)]
        return tuple([(d, r) for d, r in out if r])


# --------------------------------------------------------------------------
# fibers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractFiber:
    """Fiber known only through its homology and its labelled cycle classes.

    Cycle classes are integer vectors in a basis of the free middle-degree
    homology.  Fibers here stand for open manifolds truncated to a bounded
    part, so the table is finite by construction.
    """
    name: str
    dim: int
    homology: HomologyTable
    cycle_classes: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.dim < 0 or self.dim % 2:
            raise LefbenchError("fiber dimension must be a nonnegative even integer")
        width = self.homology.free_rank(self.middle_degree)
        for label, vec in self.cycle_classes:
            if len(vec) != width:
                raise LefbenchError(
                    f"cycle class {label!r} has length {len(vec)}, expected"
                    f" {width} (middle-degree free rank)")

    @property
    def middle_degree(self) -> int:
        return self.dim // 2

    def cycle_class(self, label: str) -> tuple[int, ...]:
        for name, vec in self.cycle_classes:
            if name == label:
                return vec
        raise MissingClass(f"no homology class assigned to cycle label {label!r}")

    def has_label(self, label: str) -> bool:
        return any(name == label for name, _ in self.cycle_classes)


class TotalSpaceFiber(NamedTuple):
    """The total space of an inner fibration, used as the fiber of an outer
    one.  Cycle labels of the outer fibration name objects (matching cycles
    or thimbles) declared on the inner fibration; their homology classes are
    computed from the handle model instead of being declared: cell cycles,
    one entry per inner critical value (matching_cycle_class).  They lie in
    the inner kernel, a direct summand of the table's middle free part, and
    the fiber's generators add only zero rows, so their attachment matrix
    has the rank and invariant factors it has in a basis of that part."""
    fibration: "Fibration"

    @property
    def name(self) -> str:
        return f"total-space({self.fibration.name})"

    @property
    def dim(self) -> int:
        return self.fibration.fiber.dim + 2

    @property
    def homology(self) -> HomologyTable:
        return total_space_homology(self.fibration)

    def cycle_class(self, label: str) -> tuple[int, ...]:
        mo = self.fibration.object_named(label)
        if mo is None:
            raise MissingClass(
                f"no object named {label!r} on fibration"
                f" {self.fibration.name!r} to provide a homology class")
        return matching_cycle_class(self.fibration, mo)

    def has_label(self, label: str) -> bool:
        return self.fibration.object_named(label) is not None


Fiber = AbstractFiber | TotalSpaceFiber


# --------------------------------------------------------------------------
# fibrations and their objects
# --------------------------------------------------------------------------

class Crit(NamedTuple):
    """One critical value: its puncture, its vanishing path (running from the
    puncture out to the boundary), and the label of its vanishing cycle."""
    puncture: str
    path: PlanarArc
    cycle_label: str


class MatchingObject(NamedTuple):
    """A Lagrangian object presented over a base path.

    A matching object proper has a path between two critical punctures and
    carries the labels of the two transported vanishing cycles.  A thimble
    presented as an object has a vanishing path (puncture to boundary) and a
    single label (stored on both slots).  The path's endpoints alone tell
    the two apart.
    """
    name: str
    path: PlanarArc
    left_cycle: str
    right_cycle: str


@dataclass(frozen=True)
class Fibration:
    name: str
    disc: DiscModel
    fiber: Fiber
    crits: tuple[Crit, ...]
    reference_angle: BoundaryAngle
    oracle: "FiberOracle | None" = None
    objects: tuple[MatchingObject, ...] = ()

    def crit_for(self, puncture: str) -> Crit | None:
        for c in self.crits:
            if c.puncture == puncture:
                return c
        return None

    def object_named(self, name: str) -> MatchingObject | None:
        for mo in self.objects:
            if mo.name == name:
                return mo
        return None

    @cached_property
    def handle_model(self) -> "HandleModel":
        """The handle description of the total space, derived on first read.
        A failure caches nothing, so the next read raises it again."""
        table = self.fiber.homology
        k = self.fiber.dim // 2 + 1
        if table.torsion(k - 1):
            raise Inconsistent(
                f"fiber {self.fiber.name!r} has torsion in degree {k - 1};"
                " the attachment calculus here requires a free target")
        classes = tuple([self.fiber.cycle_class(c.cycle_label)
                         for c in self.crits])
        return HandleModel(table, k, classes, smith_form(list(zip(*classes))))

    @cached_property
    def path_findings(self) -> tuple[tuple[bool, str], ...]:
        """(violation?, text) of each pair of vanishing paths, in pair
        order (_check_disjoint_paths), derived on first read: validate
        reports them all, and a tower stage refuses the first violation,
        so that the cut disc is one disc.

        One exactgeom.box_pairs sweep over the segments of all the paths
        yields the segment pairs whose box keys meet; of those that belong
        to two different paths, exactgeom.closed_segments_touch decides
        exactly which share a point.  The pairs checked are those with a
        touching segment pair, and those with a path that is no legal arc.
        Any other pair is two legal arcs whose closed segments share no
        point, so they lie a positive distance apart (segments whose boxes
        are apart have a gap in x or y, and the others were tested): no
        infinitesimal shift makes them cross, they share no puncture and
        no boundary end, and so there is nothing to find."""
        paths = [c.path for c in self.crits]
        segs = [(i, a, b) for i, p in enumerate(paths)
                for a, b in zip(p.hverts, p.hverts[1:])]
        touch = set()
        for s, t in box_pairs([box for p in paths for box in p.boxes]):
            (i, a1, a2), (j, b1, b2) = segs[s], segs[t]
            if i != j and (i, j) not in touch and closed_segments_touch(
                    a1, a2, b1, b2):
                touch.add((i, j))
        bad = {i for i, p in enumerate(paths) if not p.is_legal(self.disc)}
        return tuple([found for (i, ci), (j, cj)
                      in combinations(list(enumerate(self.crits)), 2)
                      if (i, j) in touch or i in bad or j in bad
                      for found in _check_disjoint_paths(self, ci, cj)])


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

class ValidationReport(NamedTuple):
    violations: tuple[str, ...]
    notes: tuple[str, ...]


def _label_declared(f: Fibration, label: str) -> bool:
    return f.fiber.has_label(label) and (f.oracle is None
                                         or label in f.oracle.labels)


def validate(f: Fibration) -> ValidationReport:
    """Check the structural invariants that loading leaves open.

    Config loading already guarantees that every critical value sits on a
    declared puncture of its own (one ``crit P`` line per puncture) and
    that its path runs from that puncture to a boundary angle, and that
    every puncture an object ends at carries a critical value.  Checked
    here: each path and object is a legal arc in the disc, cycle labels
    are declared, vanishing paths are disjoint apart from a shared
    reference endpoint, and a matching path closes up over isotopic labels.
    Each check yields (violation?, text) findings into one list, in that
    order, closed by the corner-smoothing note; validate prefixes them
    with the fibration's name and splits them into violations and notes
    once.  A bifibration's inner report, so prefixed, follows.
    """
    findings: list[tuple[bool, str]] = []
    for c in f.crits:
        try:
            c.path.validate(f.disc)
        except LefbenchError as exc:
            findings.append((True, f"vanishing path of {c.puncture!r}: {exc}"))
        if not _label_declared(f, c.cycle_label):
            findings.append((True, f"cycle label {c.cycle_label!r} of"
                             f" {c.puncture!r} is not declared"))
    findings += f.path_findings
    findings += [(True, text) for mo in f.objects
                 for text in _check_object(f, mo)]
    findings.append((False, "corner smoothing along the boundary is a no-op"
                     " at this combinatorial level"))

    split: dict[bool, list[str]] = {True: [], False: []}
    for is_violation, text in findings:
        split[is_violation].append(f"[{f.name}] {text}")
    if isinstance(f.fiber, TotalSpaceFiber):
        inner = validate(f.fiber.fibration)
        split[True] += inner.violations
        split[False] += inner.notes
    return ValidationReport(tuple(split[True]), tuple(split[False]))


def _check_disjoint_paths(f: Fibration, ci: Crit, cj: Crit
                          ) -> Iterator[tuple[bool, str]]:
    """(violation?, text) findings on the vanishing paths of ci and cj, a
    violation unless they are disjoint: in minimal position, or apart from
    a shared reference end p, which their last segments reach along two
    lines that order the paths there."""
    a, b = ci.path, cj.path
    pair = f"vanishing paths of {ci.puncture!r} and {cj.puncture!r}"
    try:
        n = intersection_profile(a, b, f.disc)
    except SharedBoundaryEndpoint:
        if a.end != f.reference_angle:
            yield True, f"{pair} share a non-reference boundary endpoint"
            return
        yield False, f"{pair} share the reference endpoint"
        p = a.hverts[-1]
        if orient(p, a.hverts[-2], b.hverts[-2]) == 0:
            yield True, (f"{pair} reach the reference endpoint along one"
                         " line, so their order there is undecided")
        elif any(c.hpoint != p for c in compute_crossings(a, b)):
            yield True, f"{pair} cross away from the reference endpoint"
        return
    except LefbenchError as exc:
        yield True, f"{pair}: {exc}"
        return
    if n:
        yield True, f"{pair} cross {n} time(s) in minimal position"


def _check_object(f: Fibration, mo: MatchingObject) -> Iterator[str]:
    """Violation texts of object mo: its arc, its labels, its closing up."""
    try:
        mo.path.validate(f.disc)
    except LefbenchError as exc:
        yield f"object {mo.name!r}: {exc}"
        return
    for label in dict.fromkeys((mo.left_cycle, mo.right_cycle)):
        if not _label_declared(f, label):
            yield f"object {mo.name!r}: cycle label {label!r} is not declared"
    if (not isinstance(mo.path.end, BoundaryAngle)
            and mo.left_cycle != mo.right_cycle):
        # a matching path (no boundary end: config starts every object at a
        # puncture) closes up only over isotopic labels; the oracle is asked
        # about the labels it declares, and an undeclared one is reported
        # above
        o, labels = f.oracle, (mo.left_cycle, mo.right_cycle)
        if not (o is not None and o.labels.issuperset(labels)
                and o.isomorphic_objects(*labels) == "yes"):
            yield (f"object {mo.name!r}: cycle labels {mo.left_cycle!r},"
                   f" {mo.right_cycle!r} are not declared isotopic, so the"
                   " two thimbles do not close up to a matching cycle")


# --------------------------------------------------------------------------
# homology of the total space
# --------------------------------------------------------------------------

class HandleModel(NamedTuple):
    """The fiber's homology, the attachment degree k = dim fiber / 2 + 1,
    the attachment matrix's columns (classes[j] is the vanishing cycle class
    of critical value j in the free part of H_{k-1}(fiber)) and its
    invariant factors, as many as its rank."""
    fiber_homology: HomologyTable
    k: int
    classes: tuple[tuple[int, ...], ...]
    factors: tuple[int, ...]


def total_space_homology(f: Fibration) -> HomologyTable:
    """Integral homology of the fiber with one k-cell per critical value
    attached along its vanishing cycle class, k = dim fiber / 2 + 1.

    Read from the handle model: H_k gains the kernel of the attachment
    matrix (n - rank classes for n critical values), and H_{k-1} becomes
    its cokernel (free rank that of H_{k-1}(fiber) minus rank, torsion the
    invariant factors above 1).  The Euler characteristic changes by
    (-1)^k (n - rank) + (-1)^(k-1) (-rank) = (-1)^k n, the cell count, by
    this construction, so nothing checks it again;
    tests/oracles.attachment_homology is the independent route.
    """
    if not f.crits:
        return f.fiber.homology
    model = f.handle_model
    table, k, factors = model.fiber_homology, model.k, model.factors
    rank = len(factors)
    groups: dict[int, tuple[int, tuple[int, ...]]] = {
        deg: (free, torsion) for deg, free, torsion in table.groups}
    free_k, tors_k = groups.get(k, (0, ()))
    groups[k] = (free_k + len(f.crits) - rank, tors_k)
    groups[k - 1] = (table.free_rank(k - 1) - rank,
                     tuple([d for d in factors if d > 1]))

    return HomologyTable.of(groups)


def matching_cycle_class(f: Fibration, mo: MatchingObject) -> tuple[int, ...]:
    """Class of a matching object in the middle homology of the total space.

    The class is its cell cycle, one entry per critical value: a signed sum
    of the two cells indexed by its endpoint critical values; the sign
    convention puts +1 on the cell entered through the path's end puncture.
    Its part in the fiber's free middle-degree generators is zero, so no
    entry stands for them.  The two end classes are the attachment columns
    of the end critical values (HandleModel.classes), so the cycle, (-1, 1)
    over equal classes and (1, 1) over opposite ones, is a kernel vector of
    the attachment matrix by construction.  Orientation data invisible to
    the combinatorics raises UnresolvedSign rather than guessing.
    """
    if isinstance(mo.path.end, BoundaryAngle):   # objects start at punctures
        raise LefbenchError(
            f"object {mo.name!r} is a thimble; only matching objects carry a"
            " closed middle-degree class")
    model = f.handle_model
    cells = [0] * len(f.crits)

    idx_l = f.crits.index(f.crit_for(mo.path.start.name))
    idx_r = f.crits.index(f.crit_for(mo.path.end.name))
    if idx_l == idx_r:
        # the two halves run over the same cell with opposite orientations
        return tuple(cells)

    cl, cr = model.classes[idx_l], model.classes[idx_r]
    if not any(cl) and not any(cr):
        raise UnresolvedSign(
            f"object {mo.name!r}: both vanishing cycle classes vanish, so"
            " the relative orientation of the two thimbles is invisible")
    if cl == cr:
        cells[idx_l], cells[idx_r] = -1, 1
    elif cl == tuple([-x for x in cr]):
        cells[idx_l], cells[idx_r] = 1, 1
    else:
        raise UnresolvedSign(
            f"object {mo.name!r}: endpoint cycle classes {cl} and {cr} are"
            " neither equal nor opposite, so the thimbles do not close up")
    return tuple(cells)
