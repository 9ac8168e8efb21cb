"""Disc model and embedded polyline arcs.

The base of every fibration is the closed unit disc with finitely many
punctures (marked interior points, the critical values).  Arcs are embedded
rational polylines whose endpoints are either punctures or exact boundary
angles; see exactgeom.circle_point for how angles are realized.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .errors import LefbenchError, NonEmbeddableInput
from .exactgeom import (Pt, Q, angle_norm, box_pairs, circle_point, norm2,
                        orient, point_on_segment, segments_overlap_collinear)


class ArcKind(enum.Enum):
    PATH = "path"                  # no endpoint constraints (test arcs)
    VANISHING = "vanishing"        # one puncture end, one boundary end
    MATCHING = "matching"          # two puncture ends
    WRAPPED = "wrapped"            # vanishing shape, produced by wrap()


@dataclass(frozen=True)
class Puncture:
    """Endpoint anchored at a named puncture of the disc."""
    name: str


@dataclass(frozen=True)
class BoundaryAngle:
    """Endpoint on the unit circle at an exact turn fraction."""
    angle: Fraction

    def __post_init__(self):
        object.__setattr__(self, "angle", angle_norm(Q(self.angle)))

    @property
    def point(self) -> Pt:
        return circle_point(self.angle)


Endpoint = Puncture | BoundaryAngle


@dataclass(frozen=True)
class DiscModel:
    """Closed unit disc with named punctures strictly inside.

    boundary_resolution is the number of polyline vertices per full turn used
    when synthesizing wrapping spirals.
    """
    punctures: tuple[tuple[str, Pt], ...]
    boundary_resolution: int = 16

    def __post_init__(self):
        seen: dict[str, Pt] = {}
        pts = set()
        for name, p in self.punctures:
            if name in seen:
                raise LefbenchError(f"duplicate puncture name {name!r}")
            if p in pts:
                raise LefbenchError(f"coincident punctures at {p}")
            if norm2(p) >= 1:
                raise LefbenchError(
                    f"puncture {name!r} at {p} is not strictly inside the unit circle")
            seen[name] = p
            pts.add(p)
        if self.boundary_resolution < 1:
            raise LefbenchError("boundary_resolution must be a positive integer")

    def point_of(self, name: str) -> Pt:
        for n, p in self.punctures:
            if n == name:
                return p
        raise LefbenchError(f"unknown puncture {name!r}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.punctures)

    def items(self) -> Iterator[tuple[str, Pt]]:
        return iter(self.punctures)


@dataclass(frozen=True)
class WrapSpec:
    """How far to wrap: m full counterclockwise turns plus offset delta.

    delta must stay strictly below the minimal angular gap between declared
    boundary endpoints of the scenario; config loading enforces that, wrap()
    itself only needs delta > 0.  bend is the extra counterclockwise offset
    applied to a wrapped copy near a shared puncture (the local left-bend);
    it must be strictly smaller than delta.
    """
    m: int
    delta: Fraction
    bend: Fraction

    def __post_init__(self):
        object.__setattr__(self, "delta", Q(self.delta))
        object.__setattr__(self, "bend", Q(self.bend))
        if self.m < 0:
            raise LefbenchError("wrap level m must be >= 0")
        if not 0 < self.delta < 1:
            raise LefbenchError("wrap offset delta must lie strictly in (0, 1)")
        if not 0 < self.bend < self.delta:
            raise LefbenchError("bend must lie strictly in (0, delta)")


@dataclass(frozen=True)
class PlanarArc:
    """Embedded polyline arc in the punctured disc.

    vertices run from the start endpoint to the end endpoint; the first and
    last vertex are exactly the endpoint anchors.  Interior vertices are
    strictly inside the disc and never sit on a puncture; no segment passes
    through a puncture.  Construction does not validate (arcs are assembled
    piecewise by config loading and wrapping); ``validate`` checks the lot.
    """
    vertices: tuple[Pt, ...]
    start: Endpoint
    end: Endpoint
    kind: ArcKind = ArcKind.PATH
    wrap_level: int | None = None
    wrap_offset: Fraction | None = None

    # -- basic geometry ------------------------------------------------

    def segments(self) -> list[tuple[Pt, Pt]]:
        return [(self.vertices[i], self.vertices[i + 1])
                for i in range(len(self.vertices) - 1)]

    def endpoints(self) -> tuple[Endpoint, Endpoint]:
        return (self.start, self.end)

    def puncture_names(self) -> set[str]:
        return {e.name for e in self.endpoints() if isinstance(e, Puncture)}

    def boundary_angles(self) -> set[Fraction]:
        return {e.angle for e in self.endpoints() if isinstance(e, BoundaryAngle)}

    def canonical_key(self):
        """Deterministic total order key, independent of construction order."""
        return tuple((v.x, v.y) for v in self.vertices)

    def with_vertices(self, vertices: tuple[Pt, ...]) -> "PlanarArc":
        return PlanarArc(vertices, self.start, self.end, self.kind,
                         self.wrap_level, self.wrap_offset)

    # -- validation ------------------------------------------------------

    def validate(self, disc: DiscModel) -> None:
        vs = self.vertices
        if len(vs) < 2:
            raise LefbenchError("arc needs at least two vertices")
        for i in range(len(vs) - 1):
            if vs[i] == vs[i + 1]:
                raise LefbenchError(f"zero-length segment at vertex {i}")

        self._check_endpoint(disc, self.start, vs[0])
        self._check_endpoint(disc, self.end, vs[-1])

        for v in vs[1:-1]:
            if norm2(v) >= 1:
                raise LefbenchError(
                    f"interior vertex {v} is not strictly inside the disc")

        anchored = self.puncture_names()
        segs = self.segments()
        for name, p in disc.items():
            for i, (a, b) in enumerate(segs):
                if point_on_segment(p, a, b):
                    at_start = i == 0 and p == vs[0] and name in anchored
                    at_end = i == len(vs) - 2 and p == vs[-1] and name in anchored
                    if not (at_start or at_end):
                        raise LefbenchError(
                            f"arc passes through puncture {name!r} at {p}")

        self._check_embedded()
        self._check_kind()

    def _check_endpoint(self, disc: DiscModel, e: Endpoint, v: Pt) -> None:
        if isinstance(e, Puncture):
            if disc.point_of(e.name) != v:
                raise LefbenchError(
                    f"endpoint vertex {v} does not match puncture {e.name!r}")
        else:
            if e.point != v:
                raise LefbenchError(
                    f"endpoint vertex {v} does not realize boundary angle {e.angle}")

    def _check_embedded(self) -> None:
        """Reject any contact of two segments beyond consecutive joints.

        Two closed segments can share a point only if their closed bounding
        boxes meet, so the pairs that exactgeom.box_pairs skips need no
        test.  Consecutive segments always meet at their joint, and the
        pairs come in (i, j) order, so the first contact reported is the one
        a scan over all pairs would report.
        """
        segs = self.segments()
        for i, j in box_pairs(segs):
            (a1, a2), (b1, b2) = segs[i], segs[j]
            if j == i + 1:
                # consecutive segments share exactly the joint vertex
                if segments_overlap_collinear(a1, a2, b1, b2):
                    raise NonEmbeddableInput(
                        f"arc folds back onto itself at vertex {a2}")
                continue
            if _closed_segments_touch(a1, a2, b1, b2):
                # closed arc endpoints may coincide only for loops, which
                # we do not model
                raise NonEmbeddableInput(
                    f"arc self-intersects between segments {i} and {j}"
                    " (if this arc is a synthesized spiral, raise the"
                    " disc boundary_resolution)")

    def _check_kind(self) -> None:
        kinds = sorted(type(e).__name__ for e in self.endpoints())
        if self.kind in (ArcKind.VANISHING, ArcKind.WRAPPED):
            if kinds != ["BoundaryAngle", "Puncture"]:
                raise LefbenchError(
                    f"{self.kind.value} arc needs one puncture and one boundary endpoint")
        elif self.kind is ArcKind.MATCHING:
            if kinds != ["Puncture", "Puncture"]:
                raise LefbenchError("matching arc needs two puncture endpoints")
        if self.kind is ArcKind.WRAPPED and (
                self.wrap_level is None or self.wrap_offset is None):
            raise LefbenchError("wrapped arc must carry its wrap level and offset")


def _closed_segments_touch(a1: Pt, a2: Pt, b1: Pt, b2: Pt) -> bool:
    """Exact: the closed segments share at least one point."""
    d1 = orient(a1, a2, b1)
    d2 = orient(a1, a2, b2)
    d3 = orient(b1, b2, a1)
    d4 = orient(b1, b2, a2)
    if d1 != d2 and d3 != d4:
        return True
    for p, a, b in ((b1, a1, a2), (b2, a1, a2), (a1, b1, b2), (a2, b1, b2)):
        if point_on_segment(p, a, b):
            return True
    return False


def radial_split(arc: PlanarArc) -> tuple[Fraction, Fraction]:
    """For an arc ending at the boundary with a radial terminal segment,
    return (angle, radius of the penultimate vertex along that ray).

    Raises when the terminal segment is not exactly radial (collinear with
    the origin, pointing outward).
    """
    if not isinstance(arc.end, BoundaryAngle):
        raise LefbenchError("arc does not end on the boundary")
    vb = arc.vertices[-1]
    vp = arc.vertices[-2]
    origin = Pt(Q(0), Q(0))
    if orient(origin, vb, vp) != 0:
        raise LefbenchError("terminal segment of the arc is not radial")
    # vp = c * vb with |vb| = 1, so c is the (rational) dot product
    c = vp.x * vb.x + vp.y * vb.y
    if not 0 <= c < 1:
        raise LefbenchError("terminal segment must point outward along the ray")
    if Pt(c * vb.x, c * vb.y) != vp:
        raise LefbenchError("terminal segment of the arc is not radial")
    return arc.end.angle, c
