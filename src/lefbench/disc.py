"""Disc model and embedded polyline arcs.

The base of every fibration is the closed unit disc with finitely many
punctures (marked interior points, the critical values).  Arcs are embedded
rational polylines whose endpoints are either punctures or exact boundary
angles; see exactgeom.circle_hpoint for how angles are realized.  An arc
stores its vertices as reduced homogeneous integer triples (hverts) and
builds its Fraction points (vertices) and its segment boxes on first use;
it validates once per disc.  A disc keeps its punctures' x floor keys
sorted (DiscModel.puncture_keys), so an arc tests only the punctures whose
key falls in a segment's x key range, found by bisection.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from .errors import LefbenchError, NonEmbeddableInput
from .exactgeom import (KEY_BITS, Hpt, Pt, Q, box_pairs, circle_hpoint,
                        first_contact, point, point_on_segment, reduced,
                        segment_box)


class Puncture(NamedTuple):
    """Endpoint anchored at a named puncture of the disc."""
    name: str


@dataclass(frozen=True)
class BoundaryAngle:
    """Endpoint on the unit circle at an exact turn fraction (int or
    Fraction), reduced into [0, 1) on integers; kept as given if there.
    Its realized point, a reduced triple, is set as hpoint when it is built
    and is no field: ==, hashing and repr read the angle alone."""
    angle: Fraction

    def __post_init__(self):
        n, d = self.angle.as_integer_ratio()
        if not 0 <= n < d:
            object.__setattr__(self, "angle", Q(n % d, d))
        self.__dict__["hpoint"] = reduced(*circle_hpoint(n, d))


Endpoint = Puncture | BoundaryAngle


@dataclass(frozen=True)
class DiscModel:
    """Closed unit disc with named punctures strictly inside.

    Each puncture is its name and its point as a reduced triple
    (exactgeom.reduced), the form arcs store their vertices in.  Its points by
    name are gathered when it is built; its points in order and their sorted
    x floor keys, on first use.
    """
    punctures: tuple[tuple[str, Hpt], ...]

    def __post_init__(self):
        seen = set()
        for name, hp in self.punctures:
            if hp in seen:
                raise LefbenchError(f"coincident punctures at {point(hp)}")
            x, y, w = hp
            if x * x + y * y >= w * w:
                raise LefbenchError(
                    f"puncture {name!r} at {point(hp)} is not strictly"
                    " inside the unit circle")
            seen.add(hp)
        self.__dict__["_named"] = dict(reversed(self.punctures))  # first wins

    def hpoint_of(self, name: str) -> Hpt:
        if name not in self._named:
            raise LefbenchError(f"unknown puncture {name!r}")
        return self._named[name]

    @cached_property
    def hpoints(self) -> tuple[Hpt, ...]:
        """The punctures' points, in declaration order."""
        return tuple([hp for _, hp in self.punctures])

    @cached_property
    def puncture_keys(self) -> tuple[list[int], list[int]]:
        """The punctures' x floor keys (exactgeom.segment_box of the point)
        in increasing order, and the declaration index of each."""
        order = sorted((segment_box(hp, hp)[0], i)
                       for i, hp in enumerate(self.hpoints))
        return [k for k, _ in order], [i for _, i in order]


@dataclass(frozen=True)
class PlanarArc:
    """Embedded polyline arc in the punctured disc.

    hverts are the vertices as reduced homogeneous integer triples
    (exactgeom.reduced), from the start endpoint to the end
    endpoint.  The endpoints alone say what the arc is: a vanishing path
    runs from a puncture to a boundary angle, a matching path joins two
    punctures, and a wrapped path (wrapping.wrap) is a vanishing path.

    The first and last vertex are the endpoints' points by construction,
    and nothing checks them again: config loading builds each path as its
    puncture's point, its mid points and its end's point (a boundary
    angle's hpoint or the other puncture's point), and wrapping.wrap
    starts at its source's first vertex and ends at its tail angle's
    hpoint.  ``validate`` checks the rest: no zero-length segment,
    interior vertices strictly inside the disc, no puncture on a segment
    but the end segment it anchors, and no contact of two segments.
    """
    hverts: tuple[Hpt, ...]
    start: Endpoint
    end: Endpoint

    # -- basic geometry ------------------------------------------------

    @cached_property
    def vertices(self) -> tuple[Pt, ...]:
        """The vertices as Fraction points, built on first use."""
        return tuple([point(h) for h in self.hverts])

    @cached_property
    def boxes(self) -> list[tuple]:
        """exactgeom.segment_box of each segment, paired from the floor
        keys of each vertex, computed once: the input of box_pairs (the
        arc's own pairs) and box_pairs_between (pairs with another arc)."""
        keys = [((x << KEY_BITS) // w, (y << KEY_BITS) // w)
                for x, y, w in self.hverts]
        return [((xp, xq) if xp <= xq else (xq, xp))
                + ((yp, yq) if yp <= yq else (yq, yp))
                for (xp, yp), (xq, yq) in zip(keys, keys[1:])]

    # -- validation ------------------------------------------------------

    def validate(self, disc: DiscModel, pairs: list | None = None) -> None:
        """Raise LefbenchError unless the arc is legal in disc.  A pass is
        recorded against disc, by identity (arcs and discs are frozen), so a
        repeat call returns at once; a failure records nothing.  Given pairs,
        only they are tested for contact: wrapping.wrap passes those its
        proof leaves open, and a fibration a vanishing path's own pairs from
        its one sweep (Fibration.path_sweep), those box_pairs would list."""
        if self.__dict__.get("_valid_in") is disc:
            return
        self._check(disc, pairs)
        self.__dict__["_valid_in"] = disc

    def is_legal(self, disc: DiscModel, pairs: list | None = None) -> bool:
        """Whether validate passes."""
        try:
            self.validate(disc, pairs)
        except LefbenchError:
            return False
        return True

    def _check(self, disc: DiscModel, pairs: list | None = None) -> None:
        """Raise the first violation of the class docstring's rules.

        A puncture is tested against a segment only if its x floor key
        lies in the segment's x key range, bisected in
        DiscModel.puncture_keys: the key is monotone, so a point on a
        closed segment has its key in the segment's range, and the
        punctures skipped are off the segment.  Of the punctures hit, the
        one with the lowest declaration index is reported, as a scan of
        every puncture over every segment would.  The cost is
        O(S log P + candidates) for S segments and P punctures.
        """
        hs = self.hverts
        for i in range(len(hs) - 1):
            if hs[i] == hs[i + 1]:
                raise LefbenchError(f"zero-length segment at vertex {i}")

        for i, (x, y, w) in enumerate(hs[1:-1], 1):
            if x * x + y * y >= w * w:
                raise LefbenchError(f"interior vertex {self.vertices[i]}"
                                    " is not strictly inside the disc")

        # a puncture may touch only the end segment that it anchors: a
        # puncture end is its puncture's point, and a boundary end is no
        # puncture's
        keys, order = disc.puncture_keys
        hps = disc.hpoints
        last = len(hs) - 2
        hit = len(hps)
        for i, (x0, x1, _, _) in enumerate(self.boxes):
            a, b = hs[i], hs[i + 1]
            for k in order[bisect_left(keys, x0):bisect_right(keys, x1)]:
                hp = hps[k]
                if (k < hit and point_on_segment(hp, a, b)
                        and not (i == 0 and hp == hs[0])
                        and not (i == last and hp == hs[-1])):
                    hit = k
        if hit < len(hps):
            name, hp = disc.punctures[hit]
            raise LefbenchError(
                f"arc passes through puncture {name!r} at {point(hp)}")

        self._check_embedded(pairs)

    def _check_embedded(self, pairs: list | None = None) -> None:
        """Reject the first contact (exactgeom.first_contact) of pairs in
        (i, j) order, by default those whose boxes meet (box_pairs; boxes
        whose keys are apart are apart), as a scan over all pairs would; a
        spiral comes here with the pairs wrap's proof leaves open."""
        hit = first_contact(self.hverts, box_pairs(self.boxes)
                            if pairs is None else pairs)
        if hit is None:
            return
        i, j = hit
        if j == i + 1:
            raise NonEmbeddableInput(
                f"arc folds back onto itself at vertex {self.vertices[j]}")
        # closed arc endpoints may coincide only for loops, not modelled
        raise NonEmbeddableInput(
            f"arc self-intersects between segments {i} and {j}"
            " (if this arc is a synthesized spiral, raise the run"
            " disc's resolution or --resolution)")
