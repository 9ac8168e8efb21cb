"""Fibrations over the punctured disc: schema, validation, homology.

A fibration is described combinatorially: a disc with punctures (the critical
values), one vanishing path per puncture carrying a cycle label, and a fiber.
The fiber is either an AbstractFiber (a homology table plus homology classes
for the labelled cycles) or the total space of another fibration, in which
case cycle labels name matching/thimble objects declared on that inner
fibration and their classes are computed rather than declared.

Homology of the total space comes from the handle description: thicken the
fiber, then attach one (dim fiber / 2 + 1)-cell per critical value along its
vanishing cycle class.  Only two degrees can change, and both are read off
the Smith normal form of the attachment matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping

from .disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from .errors import (Inconsistent, LefbenchError, MissingClass,
                     SharedBoundaryEndpoint, UnresolvedSign)
from .minpos import intersection_profile
from .snf import cokernel_invariants, kernel_basis, solve_integer

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
            for t, u in zip(torsion, torsion[1:]):
                if u % t:
                    raise LefbenchError(
                        f"torsion invariants in degree {deg} must form a"
                        " divisibility chain")
            if any(t < 2 for t in torsion):
                raise LefbenchError(
                    f"torsion invariants in degree {deg} must be >= 2")
            if free or torsion:
                cleaned.append((deg, free, torsion))
        cleaned.sort()
        object.__setattr__(self, "groups", tuple(cleaned))

    @staticmethod
    def of(table: Mapping[int, tuple[int, Iterable[int]]]) -> "HomologyTable":
        return HomologyTable(tuple(
            (deg, free, tuple(torsion)) for deg, (free, torsion) in table.items()))

    def degrees(self) -> tuple[int, ...]:
        return tuple(deg for deg, _, _ in self.groups)

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
        return tuple((d, r) for d, r in out if r)


# --------------------------------------------------------------------------
# fibers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractFiber:
    """Fiber known only through its homology and its labelled cycle classes.

    Cycle classes are integer vectors in the (free) middle-degree homology
    basis.  Fibers here stand for open manifolds truncated to a bounded part,
    so the table is finite by construction.
    """
    name: str
    dim: int
    homology: HomologyTable
    cycle_classes: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        if self.dim < 0 or self.dim % 2:
            raise LefbenchError("fiber dimension must be a nonnegative even integer")
        width = self.homology.free_rank(self.middle_degree)
        seen = set()
        for label, vec in self.cycle_classes:
            if label in seen:
                raise LefbenchError(f"duplicate cycle label {label!r}")
            seen.add(label)
            if len(vec) != width:
                raise LefbenchError(
                    f"cycle class {label!r} has length {len(vec)}, expected"
                    f" {width} (middle-degree free rank)")

    @property
    def middle_degree(self) -> int:
        return self.dim // 2

    def homology_table(self) -> HomologyTable:
        return self.homology

    def cycle_class(self, label: str) -> tuple[int, ...]:
        for name, vec in self.cycle_classes:
            if name == label:
                return vec
        raise MissingClass(f"no homology class assigned to cycle label {label!r}")

    def has_label(self, label: str) -> bool:
        return any(name == label for name, _ in self.cycle_classes)


@dataclass(frozen=True)
class TotalSpaceFiber:
    """The total space of an inner fibration, used as the fiber of an outer
    one.  Cycle labels of the outer fibration name objects (matching cycles
    or thimbles) declared on the inner fibration; their homology classes are
    computed from the handle model instead of being declared."""
    fibration: "Fibration"

    @property
    def name(self) -> str:
        return f"total-space({self.fibration.name})"

    @property
    def dim(self) -> int:
        return self.fibration.fiber.dim + 2

    def homology_table(self) -> HomologyTable:
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

@dataclass(frozen=True)
class Crit:
    """One critical value: its puncture, its vanishing path (running from the
    puncture out to the boundary), and the label of its vanishing cycle."""
    puncture: str
    path: PlanarArc
    cycle_label: str


@dataclass(frozen=True)
class MatchingObject:
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

    @property
    def principal_label(self) -> str:
        return self.left_cycle


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

    @property
    def attach_degree(self) -> int:
        return self.fiber.dim // 2 + 1


def with_resolution(f: Fibration, n: int) -> Fibration:
    """The same fibration, inner fibrations included, over a boundary grid
    of resolution n."""
    fiber = f.fiber
    if isinstance(fiber, TotalSpaceFiber):
        fiber = TotalSpaceFiber(with_resolution(fiber.fibration, n))
    disc = replace(f.disc, boundary_resolution=n)
    return replace(f, disc=disc, fiber=fiber)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportEntry:
    severity: str   # "violation" | "note"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[ReportEntry, ...]

    @property
    def violations(self) -> tuple[str, ...]:
        return tuple(e.message for e in self.entries if e.severity == "violation")

    @property
    def notes(self) -> tuple[str, ...]:
        return tuple(e.message for e in self.entries if e.severity == "note")

    @property
    def ok(self) -> bool:
        return not self.violations


def _label_declared(f: Fibration, label: str) -> bool:
    if not f.fiber.has_label(label):
        return False
    if f.oracle is not None and label not in f.oracle.labels:
        return False
    return True


def validate(f: Fibration) -> ValidationReport:
    """Check every structural invariant; violations become report entries.

    A bifibration validates its inner fibration as well; inner entries are
    prefixed with the inner fibration's name.
    """
    entries: list[ReportEntry] = []

    def violation(msg: str) -> None:
        entries.append(ReportEntry("violation", f"[{f.name}] {msg}"))

    def note(msg: str) -> None:
        entries.append(ReportEntry("note", f"[{f.name}] {msg}"))

    by_puncture: dict[str, int] = {}
    for c in f.crits:
        by_puncture[c.puncture] = by_puncture.get(c.puncture, 0) + 1
        if c.puncture not in f.disc.names:
            violation(f"critical value at undeclared puncture {c.puncture!r}")
            continue
        try:
            c.path.validate(f.disc)
        except LefbenchError as exc:
            violation(f"vanishing path of {c.puncture!r}: {exc}")
        if c.path.puncture_names() != {c.puncture}:
            violation(f"vanishing path of {c.puncture!r} does not end at its"
                      " own puncture")
        if not _label_declared(f, c.cycle_label):
            violation(f"cycle label {c.cycle_label!r} of {c.puncture!r} is"
                      " not declared")
    for name, count in by_puncture.items():
        if count > 1:
            violation(f"two critical points in one fiber: puncture {name!r}"
                      f" carries {count} vanishing paths")

    for i, ci in enumerate(f.crits):
        for cj in f.crits[i + 1:]:
            _check_disjoint_paths(f, ci, cj, violation, note)

    for mo in f.objects:
        _check_object(f, mo, violation)

    note("corner smoothing along the boundary is a no-op at this"
         " combinatorial level")

    if isinstance(f.fiber, TotalSpaceFiber):
        inner = validate(f.fiber.fibration)
        entries.extend(inner.entries)

    return ValidationReport(tuple(entries))


def _check_disjoint_paths(f: Fibration, ci: Crit, cj: Crit,
                          violation, note) -> None:
    try:
        profile = intersection_profile(ci.path, cj.path, f.disc)
    except SharedBoundaryEndpoint:
        shared = ci.path.boundary_angles() & cj.path.boundary_angles()
        if shared == {f.reference_angle.angle}:
            note(f"vanishing paths of {ci.puncture!r} and {cj.puncture!r}"
                 " share the reference endpoint")
        else:
            violation(f"vanishing paths of {ci.puncture!r} and {cj.puncture!r}"
                      " share a non-reference boundary endpoint")
        return
    except LefbenchError as exc:
        violation(f"vanishing paths of {ci.puncture!r} and {cj.puncture!r}:"
                  f" {exc}")
        return
    if profile.crossing_count:
        violation(f"vanishing paths of {ci.puncture!r} and {cj.puncture!r}"
                  f" cross {profile.crossing_count} time(s) in minimal"
                  " position")
    if profile.shared_punctures:
        violation(f"vanishing paths of {ci.puncture!r} and {cj.puncture!r}"
                  " share a puncture endpoint")


def _check_object(f: Fibration, mo: MatchingObject, violation) -> None:
    try:
        mo.path.validate(f.disc)
    except LefbenchError as exc:
        violation(f"object {mo.name!r}: {exc}")
        return
    for label in dict.fromkeys((mo.left_cycle, mo.right_cycle)):
        if not _label_declared(f, label):
            violation(f"object {mo.name!r}: cycle label {label!r} is not"
                      " declared")
    for name in mo.path.puncture_names():
        if f.crit_for(name) is None:
            violation(f"object {mo.name!r}: endpoint puncture {name!r} is"
                      " not a critical value")
    if not mo.path.boundary_angles() and mo.left_cycle != mo.right_cycle:
        # a matching path (no boundary end) closes up only over isotopic
        # labels; the oracle is asked about the labels it declares, and an
        # undeclared one is reported above
        o, labels = f.oracle, (mo.left_cycle, mo.right_cycle)
        if not (o is not None and o.labels.issuperset(labels)
                and o.isomorphic_objects(*labels).kind == "yes"):
            violation(f"object {mo.name!r}: cycle labels {mo.left_cycle!r},"
                      f" {mo.right_cycle!r} are not declared isotopic, so the"
                      " two thimbles do not close up to a matching cycle")


# --------------------------------------------------------------------------
# homology of the total space
# --------------------------------------------------------------------------

def _attachment_matrix(f: Fibration, table: HomologyTable) \
        -> tuple[list[list[int]], int, int]:
    """Rows of the boundary map Z^#crits -> middle fiber homology, plus the
    ambient middle rank and the attachment degree."""
    fiber = f.fiber
    k = f.attach_degree
    ambient = table.free_rank(k - 1)
    if table.torsion(k - 1):
        raise Inconsistent(
            f"fiber {fiber.name!r} has torsion in degree {k - 1}; the"
            " attachment calculus here requires a free target")
    classes = []
    for c in f.crits:
        vec = fiber.cycle_class(c.cycle_label)
        if len(vec) != ambient:
            raise Inconsistent(
                f"class of {c.cycle_label!r} has length {len(vec)},"
                f" expected {ambient}")
        classes.append(vec)
    rows = [[classes[j][i] for j in range(len(classes))] for i in range(ambient)]
    return rows, ambient, k


def total_space_homology(f: Fibration) -> HomologyTable:
    """Integral homology of the fiber with one k-cell per critical value
    attached along its vanishing cycle class, k = dim fiber / 2 + 1.

    Cross-checks the Euler characteristic against the cell count on every
    call and refuses to return on a mismatch.
    """
    fiber_table = f.fiber.homology_table()
    if not f.crits:
        return fiber_table
    rows, ambient, k = _attachment_matrix(f, fiber_table)
    ker = kernel_basis(rows, ncols=len(f.crits))
    co_free, co_torsion = cokernel_invariants(rows, ambient)

    groups: dict[int, tuple[int, tuple[int, ...]]] = {
        deg: (free, torsion) for deg, free, torsion in fiber_table.groups}
    free_k, tors_k = groups.get(k, (0, ()))
    groups[k] = (free_k + len(ker), tors_k)
    groups[k - 1] = (co_free, tuple(co_torsion))

    out = HomologyTable.of(groups)
    expected = fiber_table.euler() + (-1) ** k * len(f.crits)
    if out.euler() != expected:
        raise Inconsistent(
            f"Euler characteristic mismatch for {f.name!r}:"
            f" table gives {out.euler()}, cell count gives {expected}")
    return out


def matching_cycle_class(f: Fibration, mo: MatchingObject) -> tuple[int, ...]:
    """Class of a matching object in the middle homology of the total space.

    The basis is: free middle-degree generators of the fiber first, then the
    kernel basis of the attachment matrix.  The object's class is a signed
    sum of the two cells indexed by its endpoint critical values; the sign
    convention puts +1 on the cell entered through the path's end puncture.
    Orientation data invisible to the combinatorics raises UnresolvedSign
    rather than guessing.
    """
    if mo.path.boundary_angles():
        raise LefbenchError(
            f"object {mo.name!r} is a thimble; only matching objects carry a"
            " closed middle-degree class")
    start, end = mo.path.endpoints()
    assert isinstance(start, Puncture) and isinstance(end, Puncture)
    crit_l = f.crit_for(start.name)
    crit_r = f.crit_for(end.name)
    if crit_l is None or crit_r is None:
        raise LefbenchError(
            f"object {mo.name!r} ends at a puncture with no critical value")

    fiber_table = f.fiber.homology_table()
    rows, ambient, k = _attachment_matrix(f, fiber_table)
    ker = kernel_basis(rows, ncols=len(f.crits))
    fiber_part = (0,) * fiber_table.free_rank(k)

    idx_l = f.crits.index(crit_l)
    idx_r = f.crits.index(crit_r)
    if idx_l == idx_r:
        # the two halves run over the same cell with opposite orientations
        return fiber_part + (0,) * len(ker)

    cl = f.fiber.cycle_class(mo.left_cycle)
    cr = f.fiber.cycle_class(mo.right_cycle)
    if not any(cl) and not any(cr):
        raise UnresolvedSign(
            f"object {mo.name!r}: both vanishing cycle classes vanish, so"
            " the relative orientation of the two thimbles is invisible")
    cells = [0] * len(f.crits)
    if cl == cr:
        cells[idx_l], cells[idx_r] = -1, 1
    elif cl == tuple(-x for x in cr):
        cells[idx_l], cells[idx_r] = 1, 1
    else:
        raise UnresolvedSign(
            f"object {mo.name!r}: endpoint cycle classes {cl} and {cr} are"
            " neither equal nor opposite, so the thimbles do not close up")

    if not ker:
        raise Inconsistent(
            f"object {mo.name!r}: attachment matrix has trivial kernel yet a"
            " cell cycle was produced")
    basis_rows = [[vec[i] for vec in ker] for i in range(len(f.crits))]
    coords = solve_integer(basis_rows, cells)
    if coords is None:
        raise Inconsistent(
            f"object {mo.name!r}: cell cycle is not an integer combination"
            " of the kernel basis")
    return fiber_part + tuple(coords)
