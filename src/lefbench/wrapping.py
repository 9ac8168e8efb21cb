"""Wrapping of thimble paths: boundary-endpoint spiraling.

wrap(a, m, params, disc) advances the boundary endpoint of a radial-ended
arc counterclockwise by m full turns plus params.delta, realizing the image
as an embedded polyline spiral supported in an outer annulus that is clear
of every puncture and of the arc's own pre-annulus part.  The spiral climbs
strictly monotonically from the annulus entry radius to (1 + entry)/2 and
finishes with a radial tail to the circle, so a wrapped path is itself a
legal input to wrap (successive wraps compose).

For a wrapped copy that must be compared against its own source (shared
puncture), pass bend=True: the copy leaves the puncture directly toward an
entry point rotated counterclockwise by BEND, so source and copy share only
the puncture point.  This local left-bend requires the source to be in
radial normal form (a single straight segment from puncture to boundary).
source_annulus checks a wrap source, for wrap, tower stages and
``validate``.  WrapParams is the config's [wrap] section, which loading
checks once (config._parse_wrap, config._check_delta_gap): delta exceeds
BEND, so that a bent copy still turns forward at level 0.

The spiral is computed on integers: every angle is a numerator over one
denominator per spiral, the radius is affine in the angle, and each vertex
is the integer circle point (exactgeom.circle_hpoint) scaled by the radius,
one homogeneous triple, reduced as the returned arc stores it.  The check
that no chord dips to a puncture's radius compares integers; the spiral
builds no Fraction point.  What depends only on the source arc and the disc
(its boundary angle, the annulus entry radius and the largest squared
puncture radius) is derived once per (arc, disc).

wrap guards the annulus against punctures but does not validate the spiral
it returns.  Tower stages count in closed form and wrap nothing; the stage
diagrams of ``render`` and ``all --svg`` wrap each spiral (cli._render_svgs,
bent on a self-tower) and check it once before drawing it, so there a
coarse boundary grid ends in NonEmbeddableInput.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .disc import BoundaryAngle, DiscModel, PlanarArc
from .errors import LefbenchError, SpiralCollision
from .exactgeom import (ORIGIN, Q, circle_hpoint, orient, reduced,
                        segment_near_origin)

# how much further on a copy bent off its shared puncture starts
BEND = Q(1, 128)


@dataclass(frozen=True)
class WrapParams:
    """The [wrap] section: each wrapped copy turns m full turns plus delta,
    and a tower has one stage per level m."""
    delta: Fraction = Q(1, 64)
    levels: tuple[int, ...] = (0, 1, 2, 3)


def source_annulus(arc: PlanarArc, disc: DiscModel,
                   bend: bool = False) -> tuple[Fraction, ...]:
    """(boundary angle, annulus entry radius r_out, largest squared puncture
    radius) of the vanishing path arc in disc; raises unless its last
    segment points straight out along its ray, and it is one segment if it
    is to be bent off its puncture.  r_out is rational, above every
    puncture and pre-boundary vertex radius and below 1: with s the largest
    of their squared radii, (1 + s)/2 >= sqrt(s) and r_out = (1 + (1 +
    s)/2)/2 > sqrt(s) for s < 1.  The annulus is recorded against disc by
    identity, like PlanarArc.validate; a failure records nothing."""
    seen = arc.__dict__.get("_annulus")
    if seen is None or seen[0] is not disc:
        end, prev = arc.hverts[-1], arc.hverts[-2]
        if orient(ORIGIN, end, prev) != 0:
            raise LefbenchError("terminal segment of the arc is not radial")
        # prev = c * end, |end| = 1: c = end . prev = (xe xp + ye yp)/(we wp)
        (xe, ye, we), (xp, yp, wp) = end, prev
        if not 0 <= xe * xp + ye * yp < we * wp:
            raise LefbenchError(
                "terminal segment must point outward along the ray")
        max_punct = max((Q(x * x + y * y, w * w) for x, y, w in disc.hpoints),
                        default=Q(0))
        s = max([max_punct] + [Q(x * x + y * y, w * w)
                               for x, y, w in arc.hverts[:-1]])
        upper = (1 + s) / 2          # rational upper bound for sqrt(s)
        r_out = (1 + upper) / 2
        seen = arc.__dict__["_annulus"] = disc, (arc.end.angle, r_out,
                                                 max_punct)
    if bend and len(arc.hverts) != 2:
        raise LefbenchError(
            "left-bend wrapping requires a radial normal form path"
            " (one straight segment from puncture to boundary)")
    return seen[1]


def wrap(arc: PlanarArc, m: int, params: WrapParams, disc: DiscModel,
         bend: bool = False) -> PlanarArc:
    """Unvalidated wrapped image of a radial-ended arc; see module docstring."""
    tau0, r_out, max_punct = source_annulus(arc, disc, bend)
    start = tau0 + (BEND if bend else Q(0))
    end = tau0 + m + params.delta

    # Angles over one denominator den: start, then a half-step-shifted grid
    # (so that no spiral vertex can land exactly on a boundary ray of the
    # declared angle grid), then end.  Steps are 2 * half.
    den = lcm(start.denominator, end.denominator, 2 * disc.boundary_resolution)
    half = den // (2 * disc.boundary_resolution)
    a0 = start.numerator * (den // start.denominator)
    a_end = end.numerator * (den // end.denominator)
    angles = [a0, *range(a0 + half, a_end, 2 * half), a_end]

    # The radius climbs affinely in the angle from r_out to r_last =
    # (1 + r_out) / 2: r = (2 n span + (d - n)(a - a0)) / (2 d span) for
    # r_out = n / d.  Vertex = r * circle point, as one reduced triple.
    n, d = r_out.numerator, r_out.denominator
    span = a_end - a0
    r_den = 2 * d * span
    spiral = []
    for a in angles:
        r = 2 * n * span + (d - n) * (a - a0)
        cx, cy, cw = circle_hpoint(a, den)
        spiral.append(reduced(r * cx, r * cy, r_den * cw))

    for s0, s1 in zip(spiral, spiral[1:]):
        if segment_near_origin(s0, s1, max_punct):
            raise SpiralCollision(
                "spiral chords dip to puncture radius;"
                " raise the disc boundary_resolution")

    tail = BoundaryAngle(end)
    head = arc.hverts[:1] if bend else arc.hverts[:-1]
    return PlanarArc(head + tuple(spiral) + (tail.hpoint,), arc.start, tail)
