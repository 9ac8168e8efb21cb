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
``validate``.  WrapParams, the [wrap] section on the run disc's grid, is
checked once, at loading (config._parse_wrap, _check_delta_gap and
grid_resolution): delta exceeds BEND, so that a bent copy still turns
forward at level 0.

The spiral is computed on integers: every angle is a numerator over one
denominator den = 2 half res per spiral, so the grid's circle points
(exactgeom.circle_hpoint) repeat every turn of res steps and one turn of
them is computed; the radius is affine in the angle, stepped by a constant
integer; each vertex is the circle point scaled by the radius, one reduced
homogeneous triple; the spiral builds no Fraction point.  What depends only
on the source arc and the disc (the annulus entry radius and the largest
squared puncture radius) is derived once per (arc, disc).

The bow bound spares most chords the exact test that none comes within
sqrt(s) of the origin (s as below), nor dips to a puncture's radius.  The
true angle 2 arctan(2 tau / (1 - 2 tau)) of circle_hpoint at turn fraction
tau has derivative 4/((1 - 2 tau)^2 + 4 tau^2) <= 8 radians a turn (the
same by symmetry past tau = 1/2), so a chord of at most one grid step spans
at most 8/res radians, under pi for res >= 3.  The radius climbs, so both
ends of chord i lie at radius >= r_i, its start's, and project at least
r_i cos(4/res) onto the bisector of its wedge; so does the whole chord, at
distance >= r_i cos(4/res) >= r_i (1 - 8/res^2) from the origin, as
1 - cos x <= x^2/2.  Once r_i^2 (1 - 8/res^2)^2 > s, chord i and every
later one are clear; only the chords before it are tested exactly.

spiral_vertex_count counts a spiral's vertices without building it, so the
budget covers a whole render: cli._render_svgs sums the counts of all its
spirals and refuses more than VERTEX_BUDGET of them (SpiralTooLong) before
it wraps the first.  wrap alone decides whether a spiral is legal in disc,
in linear time; nothing checks one it returns again.  A chord clear of the
punctures spans under half a turn (one that spans half passes through the
origin: circle_hpoint turns by pi per half turn), so it lies in the convex
wedge of its rays.  Past the first vertex every vertex lies on the ray grid
a0 + half + 2 half k, and a turn is res grid steps, so each chord but the
first and the last spans one grid wedge.  There the chords of later turns
lie strictly farther out on both rays (over (O, P1, P2) their coordinate
sum exceeds 1), and chords of different wedges meet only on a shared ray,
at different radii; the radial tail lies beyond every chord.  So for a
legal source only O(m) segment pairs stay open (_open_pairs): the head
(within sqrt(s), s the largest squared radius of a puncture or source
vertex before the boundary) against the chords within sqrt(s), and the
join, the first and the last chord against each chord whose angle interval
overlaps theirs modulo a turn; only a bent join can pass through a
puncture.  Where one of these fails, the full check's first error lies
there, and PlanarArc.validate over the open pairs raises it; an illegal
source gets the full check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle, islice
from math import ceil, lcm
from typing import NamedTuple

from .disc import BoundaryAngle, DiscModel, PlanarArc
from .errors import LefbenchError, SpiralCollision
from .exactgeom import (ORIGIN, Q, circle_hpoint, first_contact, orient,
                        point_on_segment, reduced, segment_near_origin)

# how much further on a copy bent off its shared puncture starts
BEND = Q(1, 128)

# most spiral vertices in one render; the deepest spiral tested, W1's at
# m = 192 on resolution 64, has 12 293
VERTEX_BUDGET = 250_000


class WrapParams(NamedTuple):
    """The [wrap] section (a copy turns m full turns plus delta, a tower has a
    stage per level m) on the run disc's grid, resolution vertices a turn."""
    delta: Fraction = Q(1, 64)
    levels: tuple[int, ...] = (0, 1, 2, 3)
    resolution: int = 16


def grid_resolution(n: int) -> int:
    """n, a spiral grid's vertices a turn, which must be positive."""
    if n < 1:
        raise LefbenchError("resolution must be a positive integer")
    return n


def source_annulus(arc: PlanarArc, disc: DiscModel,
                   bend: bool = False) -> tuple[Fraction, Fraction]:
    """(annulus entry radius r_out, largest squared puncture radius) of the
    vanishing path arc in disc; raises unless its last segment points
    straight out along its ray, and it is one segment if it is to be bent
    off its puncture.  r_out is rational, above every puncture and
    pre-boundary vertex radius and below 1: with s the largest of their
    squared radii, (1 + s)/2 >= sqrt(s) and r_out = (1 + (1 + s)/2)/2 >
    sqrt(s) for s < 1.  The annulus is recorded against disc by identity,
    like PlanarArc.validate; a failure records nothing."""
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
        seen = arc.__dict__["_annulus"] = disc, (r_out, max_punct)
    if bend and len(arc.hverts) != 2:
        raise LefbenchError(
            "left-bend wrapping requires a radial normal form path"
            " (one straight segment from puncture to boundary)")
    return seen[1]


def _angles(arc: PlanarArc, m: int, params: WrapParams,
            bend: bool) -> tuple[int, int, int, int]:
    """(den, half, a0, a_end): the angles of the level-m spiral of arc over
    one denominator den, from its start a0 to its end a_end; its grid steps
    are 2 * half."""
    tau0 = arc.end.angle
    start = tau0 + (BEND if bend else Q(0))
    end = tau0 + m + params.delta
    den = lcm(start.denominator, end.denominator, 2 * params.resolution)
    return (den, den // (2 * params.resolution),
            start.numerator * (den // start.denominator),
            end.numerator * (den // end.denominator))


def spiral_vertex_count(arc: PlanarArc, m: int, params: WrapParams,
                        bend: bool = False) -> int:
    """The number of vertices of wrap(arc, m, params, disc, bend), counted
    without building the spiral: the head, the spiral and the tail.  The
    spiral's grid angles are counted by ceiling division: len() of their
    range fails past sys.maxsize, the count does not."""
    _, half, a0, a_end = _angles(arc, m, params, bend)
    head = 1 if bend else len(arc.hverts) - 1
    return head - ((a0 + half - a_end) // (2 * half)) + 3


def wrap(arc: PlanarArc, m: int, params: WrapParams, disc: DiscModel,
         bend: bool = False) -> PlanarArc:
    """The wrapped image of a radial-ended arc, proved legal in disc."""
    r_out, max_punct = source_annulus(arc, disc, bend)

    # Angles over one denominator: start, then a half-step-shifted grid (so
    # that no spiral vertex can land exactly on a boundary ray of the
    # declared angle grid), then end.
    res = params.resolution
    den, half, a0, a_end = _angles(arc, m, params, bend)
    grid = range(a0 + half, a_end, 2 * half)
    head = arc.hverts[:1] if bend else arc.hverts[:-1]

    # The radius climbs affinely in the angle from r_out = n / d to r_last =
    # (1 + r_out) / 2: r = (2 n span + k (a - a0)) / (2 d span), k = d - n,
    # a constant step a grid step.  Vertex = r * circle point, reduced.
    n, d = r_out.numerator, r_out.denominator
    span, k = a_end - a0, d - n
    r_den, r0 = 2 * d * span, 2 * n * span
    radii = [r0, *range(r0 + k * half, r0 + k * span, 2 * k * half),
             r0 + k * span]
    turn = [circle_hpoint(a, den) for a in grid[:res]]
    rims = [circle_hpoint(a0, den), *islice(cycle(turn), len(grid)),
            circle_hpoint(a_end, den)]
    spiral = [reduced(r * cx, r * cy, r_den * cw)
              for r, (cx, cy, cw) in zip(radii, rims)]

    # s of source_annulus: only chords within sqrt(s) can meet the head;
    # the bow bound clears chord i once radii[i]^2 bow > far
    s = 4 * r_out - 3
    bow = (res * res - 8) ** 2 * s.denominator if res >= 3 else 0
    far = s.numerator * (r_den * res * res) ** 2
    low = []
    for i, (s0, s1) in enumerate(zip(spiral, spiral[1:])):
        if radii[i] ** 2 * bow > far:
            break
        if segment_near_origin(s0, s1, s):
            if segment_near_origin(s0, s1, max_punct):
                raise SpiralCollision(
                    "spiral chords dip to puncture radius; raise the run"
                    " disc's resolution or --resolution")
            low.append(i)

    tail = BoundaryAngle(Q(a_end % den, den))
    out = PlanarArc(head + tuple(spiral) + (tail.hpoint,), arc.start, tail)
    pairs = None                # an illegal source gets the full check
    if arc.is_legal(disc):
        # the angles of the join (segment h - 1), chord 0 (h) and the last
        h, last = len(head), len(head) + len(spiral) - 2
        angles = [a0, *grid[:1], *grid[-1:], a_end]
        ends = {h - 1: (a0 - ceil(BEND * den) if bend else a0, a0),
                h: (a0, angles[1]), last: (angles[-2], a_end)}
        pairs = _open_pairs(h, last, low, ends, a0 - half, 2 * half, res)
        if (first_contact(out.hverts, pairs) is None and not (bend and any(
                point_on_segment(p, head[0], spiral[0])
                for p in disc.hpoints if p != head[0]))):
            return out
        pairs = sorted(set(pairs))
    out.validate(disc, pairs)
    return out


def _open_pairs(h: int, last: int, low: list[int], ends, base: int,
                step: int, res: int) -> list[tuple[int, int]]:
    """The O(m) segment pairs (i, j), i < j, that the wedge proof leaves
    open, unsorted, some twice: each head segment against each chord in
    low, and each segment of ends against each chord (h .. last) of a grid
    wedge that overlaps its angles (chord h + i in wedge i, from base)."""
    pairs = [(t, h + i) for i in low for t in range(h - 1)]
    for k, (p, q) in ends.items():
        lo, hi = -((base - p) // step) - 1, (q - base) // step
        near = {j for w in range(lo, hi + 1)
                for j in range(h + w % res, last + 1, res)}
        near.discard(k)
        pairs += [(k, j) if k < j else (j, k) for j in near]
    return pairs
