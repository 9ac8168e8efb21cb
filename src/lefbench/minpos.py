"""Minimal position and intersection profiles for disc arcs.

Crossings between two arcs are computed with the symbolic perturbation of
exactgeom (the canonically larger arc plays the "later-declared" role and is
the one infinitesimally shifted, so results do not depend on argument order)
over the segment pairs whose closed bounding boxes meet, each pair tested
directly (exactgeom.box_pairs_between): wherever two arcs are compared, one
side is a few segments.  Skipping the other pairs is exact: boxes strictly
apart leave a positive gap in x or y, which the infinitesimal shift (eps,
eps^2) cannot close.  Empty bigons - discs bounded by one sub-arc of each
curve containing no puncture - are found lazily, one lens at a time, and
eliminated one at a time by rerouting one arc alongside the other within a
verified corridor.  Lenses, corridors, crossings and the checks on them all
run on homogeneous integer points; Fractions remain only for positions along
segments and for scalars.  Every elimination is checked exactly after the
fact (embeddedness, crossing count drop of exactly two, zero winding of the
swap loop around every puncture); the corridor width shrinks geometrically
until the checks pass, so a successful return is correct by construction
rather than by trusted epsilon bounds.  The check covers exactly the segments
the reroute changed: the arc was embedded before, and a segment that did not
change keeps its contacts with every other unchanged segment and its
crossings with the other arc, which are only re-indexed.  When the rerouted
arc no longer comes canonically after the other, the perturbation changes
sides and every crossing is searched again.  intersection_profile reduces a
pair and counts the crossings the reduction found, so each pair's crossings
are searched once per reduction and again only after such a flip; the
profile keeps only that count and the shared punctures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator

from .disc import DiscModel, PlanarArc, Puncture
from .errors import (DegenerateTangency, NonEmbeddableInput,
                     SharedBoundaryEndpoint)
from .exactgeom import (Hpt, Q, box_pairs_between, boxes_meet,
                        point_in_polygon, point_on_segment, reduced,
                        segment_box, segment_crossing,
                        segments_overlap_collinear, winding_number)

Pos = tuple[int, Fraction]  # (segment index, parameter within segment)


@dataclass(frozen=True)
class ArcCrossing:
    """One transverse crossing event between two arcs: its point as a
    reduced triple and its position on each arc."""
    hpoint: Hpt
    a_pos: Pos
    b_pos: Pos

    def pos(self, side: int) -> Pos:
        return self.a_pos if side == 0 else self.b_pos


@dataclass(frozen=True)
class IntersectionProfile:
    crossing_count: int
    shared_punctures: tuple[str, ...]


def _shared_anchor_points(a: PlanarArc, b: PlanarArc) -> set[Hpt]:
    shared = a.puncture_names() & b.puncture_names()
    pts = set()
    for arc in (a, b):
        for end, v in ((arc.start, arc.hverts[0]), (arc.end, arc.hverts[-1])):
            if isinstance(end, Puncture) and end.name in shared:
                pts.add(v)
    return pts


def _endpoint_segment_indices(arc: PlanarArc, anchor: Hpt) -> list[int]:
    out = []
    if arc.hverts[0] == anchor:
        out.append(0)
    if arc.hverts[-1] == anchor:
        out.append(len(arc.hverts) - 2)
    return out


def _canonically_after(ha: tuple[Hpt, ...], hb: tuple[Hpt, ...]) -> bool:
    """The vertex sequence ha comes after hb in the canonical order: by the
    first vertex where they differ, x then y, and else the longer last."""
    for (ax, ay, aw), (bx, by, bw) in zip(ha, hb):
        d = ax * bw - bx * aw or ay * bw - by * aw
        if d:
            return d > 0
    return len(ha) > len(hb)


def compute_crossings(a: PlanarArc, b: PlanarArc) -> list[ArcCrossing]:
    """All transverse crossing events between a and b, exact.

    Segment pairs pinned together at a shared puncture are treated specially:
    the pinned contact itself is structural (it becomes a shared-endpoint
    generator, not a crossing) and an overlapping collinear departure from the
    shared puncture cannot be resolved by translating one arc, hence
    DegenerateTangency.
    """
    # pinned pairs share their puncture, so their boxes meet and they are
    # always tested; pairs come in (i, j) order, the order of the result
    return _crossings_on(a, b, box_pairs_between(a.boxes, b.boxes),
                         not _canonically_after(a.hverts, b.hverts))


def _crossings_on(a: PlanarArc, b: PlanarArc,
                  pairs: Iterable[tuple[int, int]],
                  shift_b: bool) -> list[ArcCrossing]:
    """The crossings of a and b on the segment pairs (i of a, j of b), in
    pairs' order, under the perturbation shift_b; a segment pair holds at
    most one crossing.  compute_crossings passes every pair whose boxes
    meet."""
    incident: set[tuple[int, int]] = set()
    for s in _shared_anchor_points(a, b):
        for i in _endpoint_segment_indices(a, s):
            for j in _endpoint_segment_indices(b, s):
                incident.add((i, j))

    ha, hb = a.hverts, b.hverts
    found: list[ArcCrossing] = []
    for i, j in pairs:
        a1, a2, b1, b2 = ha[i], ha[i + 1], hb[j], hb[j + 1]
        if (i, j) in incident:
            if segments_overlap_collinear(a1, a2, b1, b2):
                raise DegenerateTangency(
                    "arcs leave a shared puncture along overlapping"
                    " collinear segments")
            continue
        hit = segment_crossing(a1, a2, b1, b2, shift_b=shift_b)
        if hit is not None:
            found.append(ArcCrossing(hit.hpoint, (i, hit.ta), (j, hit.tb)))
    return found


def _check_boundary_endpoints(a: PlanarArc, b: PlanarArc) -> None:
    common = a.boundary_angles() & b.boundary_angles()
    if common:
        raise SharedBoundaryEndpoint(
            f"arcs share boundary endpoint angle(s) {sorted(common)}")


# --------------------------------------------------------------------------
# bigons
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Bigon:
    """Two crossings adjacent along both arcs bounding a puncture-free disc."""
    first: ArcCrossing
    second: ArcCrossing


def _without_repeats(pts: list[Hpt]) -> list[Hpt]:
    """pts with each run of equal consecutive points kept once."""
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _subpath(arc: PlanarArc, lo: ArcCrossing, hi: ArcCrossing,
             side: int) -> list[Hpt]:
    """Polyline of arc (side 0 or 1 of the crossings) from crossing lo to
    crossing hi, lo before hi along it, both corner points included.  A
    crossing's point is the point at its position on either arc, exactly."""
    (s, _), (t, _) = lo.pos(side), hi.pos(side)
    return _without_repeats([lo.hpoint, *arc.hverts[s + 1: t + 1],
                             hi.hpoint])


def _lens(a: PlanarArc, b: PlanarArc, x: ArcCrossing,
          y: ArcCrossing) -> list[Hpt]:
    """The lens of crossings x and y: along a from corner to corner, then
    back along b."""
    sides = []
    for side, arc in enumerate((a, b)):
        lo, hi = sorted((x, y), key=lambda c: c.pos(side))
        sides.append(_subpath(arc, lo, hi, side))
    side_a, side_b = sides
    if side_a[0] != side_b[0]:
        side_b = side_b[::-1]
    return side_a + side_b[::-1][1:-1]


def find_empty_bigons(a: PlanarArc, b: PlanarArc, disc: DiscModel,
                      crossings: list[ArcCrossing]) -> Iterator[Bigon]:
    """The bigons of a and b, whose crossings are given (compute_crossings),
    with corners adjacent on both arcs and no puncture inside, lazily in
    deterministic order along a: each lens is built and tested only when
    the next bigon is asked for."""
    if len(crossings) < 2:
        return
    by_a = sorted(crossings, key=lambda c: c.a_pos)
    by_b = sorted(crossings, key=lambda c: c.b_pos)
    b_index = {id(c): k for k, c in enumerate(by_b)}
    for x, y in zip(by_a, by_a[1:]):
        if abs(b_index[id(x)] - b_index[id(y)]) != 1:
            continue
        poly = _lens(a, b, x, y)
        # a flattened (zero-area) lens bounds no region, hence is empty
        if not any(point_in_polygon(p, poly) for p in disc.hpoints):
            yield Bigon(x, y)


# --------------------------------------------------------------------------
# bigon surgery
# --------------------------------------------------------------------------
# Every point of the corridor is a reduced triple (exactgeom.reduced), so it
# equals the triple homog gives for the same rational point.  Fractions
# remain only for scalars: the corridor width eps, the step parameter along
# a segment, the lens extent and the lens area.

def _direction(p: Hpt, q: Hpt) -> tuple[int, int]:
    """q - p scaled by the positive p_w * q_w."""
    return q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2]


def _offset(d: tuple[int, int], side: int, eps: Fraction) -> Hpt:
    """The vector normal to direction d, to its left (side +1) or right
    (side -1), of L1 length eps (as the triple (X, Y, W), W > 0: the vector
    (X/W, Y/W)); the scale of d cancels."""
    dx, dy = d
    en = eps.numerator if side > 0 else -eps.numerator
    return (-dy * en, dx * en, eps.denominator * (abs(dx) + abs(dy)))


def _shift(p: Hpt, o: Hpt) -> Hpt:
    """The point p moved by the vector o, not reduced."""
    return (p[0] * o[2] + o[0] * p[2], p[1] * o[2] + o[1] * p[2], p[2] * o[2])


def _mitre(p: Hpt, d: tuple[int, int], q: Hpt, e: tuple[int, int]) -> Hpt:
    """The reduced point where the line through p along d meets the line
    through q along e, d and e not parallel: the cross product of the two
    homogeneous lines, each the cross product of its point with the point
    at infinity of its direction."""
    l0, l1, l2 = -p[2] * d[1], p[2] * d[0], p[0] * d[1] - p[1] * d[0]
    m0, m1, m2 = -q[2] * e[1], q[2] * e[0], q[0] * e[1] - q[1] * e[0]
    return reduced(l1 * m2 - l2 * m1, l2 * m0 - l0 * m2, l0 * m1 - l1 * m0)


def _offset_chain(pts: list[Hpt], side: int, eps: Fraction) -> list[Hpt]:
    """Polyline parallel to pts on the given side (+1 = left of travel).

    Segment copies are displaced by eps in L1 length; interior joints are
    mitred (the meet of the two adjacent offset lines), which keeps the chain
    embedded at reflex joints where a bevel pair would cross itself.  Where
    the two segments are parallel, their copies meet at the offset joint."""
    dirs = [_direction(p, q) for p, q in zip(pts, pts[1:])]
    offs = [_offset(d, side, eps) for d in dirs]
    out = [reduced(*_shift(pts[0], offs[0]))]
    for i in range(len(offs) - 1):
        joint = pts[i + 1]
        (dx0, dy0), (dx1, dy1) = dirs[i], dirs[i + 1]
        a1 = _shift(joint, offs[i])
        if dx0 * dy1 - dy0 * dx1 == 0:
            q = reduced(*a1)
        else:
            q = _mitre(a1, dirs[i], _shift(joint, offs[i + 1]), dirs[i + 1])
        if q != out[-1]:
            out.append(q)
    last = reduced(*_shift(pts[-1], offs[-1]))
    if last != out[-1]:
        out.append(last)
    return out


def _step_from(arc: PlanarArc, pos: Pos, eps: Fraction,
               forward: bool) -> tuple[Hpt, int]:
    """A point on arc strictly before (forward=False) or after (forward=True)
    pos, within L1 distance eps of it.  Returns (point, index of the segment
    the point lies on)."""
    s, t = pos
    if forward and t == 1:
        s, t = s + 1, Q(0)
    elif not forward and t == 0:
        s, t = s - 1, Q(1)
    v0, v1 = arc.hverts[s], arc.hverts[s + 1]
    (x0, y0, w0), (x1, y1, w1) = v0, v1
    dx, dy = _direction(v0, v1)
    # eps over the segment's L1 length (|dx| + |dy|) / (w0 w1)
    reach = Q(eps.numerator * w0 * w1, eps.denominator * (abs(dx) + abs(dy)))
    t2 = t + min((1 - t) / 2, reach) if forward else t - min(t / 2, reach)
    # (1 - t2) v0 + t2 v1 for t2 = p / q
    p, q = t2.numerator, t2.denominator
    return reduced((q - p) * x0 * w1 + p * x1 * w0,
                   (q - p) * y0 * w1 + p * y1 * w0, q * w0 * w1), s


def _area2(poly: list[Hpt]) -> Fraction:
    """Twice the signed area of a polygon (positive for counterclockwise)."""
    return sum((Q(x0 * y1 - y0 * x1, w0 * w1) for (x0, y0, w0), (x1, y1, w1)
                in zip(poly, poly[1:] + poly[:1])), Q(0))


def _vertices_legal(hs: tuple[Hpt, ...], disc: DiscModel) -> bool:
    return (all(x * x + y * y < w * w for x, y, w in hs)
            and not any(point_on_segment(hp, a, b) for hp in disc.hpoints
                        for a, b in zip(hs, hs[1:])))


def eliminate_bigon(a: PlanarArc, b: PlanarArc, bigon: Bigon, disc: DiscModel,
                    crossings: list[ArcCrossing]
                    ) -> tuple[PlanarArc, PlanarArc, list[ArcCrossing]]:
    """Remove one empty bigon by isotoping one arc across it.

    crossings are the crossings of a and b (compute_crossings), bigon's
    corners among them; a and b are embedded.  The canonically larger arc is
    rerouted: its portion between the two corner crossings is replaced by a
    polyline hugging the other arc's side of the lens from the outside.  The
    corridor is built on homogeneous integer points, from the corners'
    triples (ArcCrossing.hpoint) and the arcs' hverts.  The construction is
    retried with a shrinking corridor width until the exact verification
    (_verify_splice) passes; it examines only the segments the reroute
    changed.  Returns the new pair in argument order with its crossings, as
    compute_crossings of that pair gives them.
    """
    if _canonically_after(a.hverts, b.hverts):
        moved, kept, m_side = a, b, 0
    else:
        moved, kept, m_side = b, a, 1
    k_side = 1 - m_side

    x, y = bigon.first, bigon.second
    if x.pos(m_side) > y.pos(m_side):
        x, y = y, x
    m_lo, m_hi = x.pos(m_side), y.pos(m_side)

    k_lo, k_hi = sorted((x, y), key=lambda c: c.pos(k_side))
    kept_sub = _subpath(kept, k_lo, k_hi, k_side)
    if kept_sub[0] != x.hpoint:
        kept_sub = kept_sub[::-1]

    moved_sub = _subpath(moved, x, y, m_side)
    lens = kept_sub + moved_sub[::-1][1:-1]
    # offset away from the lens: lens interior is left of kept_sub travel
    # exactly when the polygon (kept_sub then moved_sub reversed) is ccw
    side = -1 if _area2(lens) > 0 else 1

    xs = [Q(px, pw) for px, _, pw in lens]
    ys = [Q(py, pw) for _, py, pw in lens]
    eps0 = min(max(max(xs) - min(xs), max(ys) - min(ys)), Q(1)) / 16
    if eps0 == 0:
        eps0 = Q(1, 64)

    for attempt in range(64):
        # alternate the offset side between shrinks: a flattened lens gives
        # the area sign no information about which side is "outside"
        side_now = side if attempt % 2 == 0 else -side
        eps = eps0 / 4 ** (attempt // 2)
        p_before, s_before = _step_from(moved, m_lo, eps, forward=False)
        p_after, s_after = _step_from(moved, m_hi, eps, forward=True)
        if len(kept_sub) == 1:
            # both corners are one point of the kept arc (a T-contact the
            # perturbation resolves into two crossings): there is no side
            # to hug, and the step-off points are joined directly
            chain = []
        else:
            # hug only the interior joints of the kept side: the step-off
            # points themselves take over at the corners, where a full
            # offset of the corner point may land behind the step-off and
            # fold the route back
            chain = _offset_chain(kept_sub, side_now, eps)[1:-1]
            if not chain:
                # straight kept side: a single offset midpoint carries the
                # route across on the chosen side
                k0, k1 = kept_sub[0], kept_sub[-1]
                (x0, y0, w0), (x1, y1, w1) = k0, k1
                mid = (x0 * w1 + x1 * w0, y0 * w1 + y1 * w0, 2 * w0 * w1)
                chain = [reduced(*_shift(mid, _offset(_direction(k0, k1),
                                                      side_now, eps)))]
        middle = tuple(_without_repeats([p_before, *chain, p_after]))
        if not _vertices_legal(middle, disc):
            continue
        candidate = replace(moved, hverts=moved.hverts[:s_before + 1] + middle
                            + moved.hverts[s_after + 1:])
        new_crossings = _verify_splice(candidate, moved, kept, m_side,
                                       s_before, middle, moved_sub,
                                       crossings, disc)
        if new_crossings is not None:
            return ((candidate, kept, new_crossings) if m_side == 0
                    else (kept, candidate, new_crossings))
    raise DegenerateTangency("bigon surgery did not stabilize; the input"
                             " configuration is too degenerate to reroute")


def _verify_splice(candidate: PlanarArc, moved: PlanarArc, kept: PlanarArc,
                   m_side: int, s_before: int, middle: tuple[Hpt, ...],
                   old_middle: list[Hpt], crossings: list[ArcCrossing],
                   disc: DiscModel) -> list[ArcCrossing] | None:
    """The crossings of the candidate with the kept arc, as compute_crossings
    of the pair (in the caller's order, the candidate on side m_side) gives
    them, when the rerouted arc is embedded, has exactly two crossings fewer
    and sweeps no puncture; None otherwise.

    candidate is moved with the stretch after vertex s_before replaced by
    middle (whose ends are the step-off points), that is moved's segments up
    to s_before - 1, then the changed segments lo = s_before .. hi =
    s_before + len(middle) (the two truncated end pieces and the new
    middle), then moved's segments after the stretch, their indices moved
    by d = len(candidate.hverts) - len(moved.hverts).  old_middle is moved's
    polyline between the corners, and crossings are the crossings of moved
    and kept.  moved must be embedded.

    Only pairs with a changed segment are examined, each once: a changed
    box is tested directly (exactgeom.boxes_meet) against the candidate's
    boxes before the stretch and after itself.  That is complete: two
    unchanged segments are a pair of moved's segments, equally far apart
    along it, so moved's embedding already clears them; and an unchanged
    segment meets kept exactly as it did in moved, since segment_crossing
    and the pinned pairs depend only on the four endpoints and the side of
    the perturbation.  The candidate's spliced boxes are cached on it.
    """
    lo, hi = s_before, s_before + len(middle)
    d = len(candidate.hverts) - len(moved.hverts)
    hs = candidate.hverts
    changed = [segment_box(p, q)
               for p, q in zip(hs[lo:hi + 1], hs[lo + 1:hi + 2])]
    old_boxes = moved.boxes
    boxes = candidate.__dict__["boxes"] = (old_boxes[:lo] + changed
                                           + old_boxes[hi + 1 - d:])

    # every pair (i, j), i < j, with a changed segment: each changed
    # segment against the segments before the stretch and after itself
    pairs = [(j, i) if j < lo else (i, j)
             for i in range(lo, hi + 1)
             for j in chain(range(lo), range(i + 1, len(boxes)))
             if boxes_meet(boxes[i], boxes[j])]
    try:
        candidate._check_embedded(pairs)
    except NonEmbeddableInput:
        return None

    pair = (candidate, kept) if m_side == 0 else (kept, candidate)
    shift_b = not _canonically_after(pair[0].hverts, pair[1].hverts)
    try:
        if shift_b != (m_side == 1):
            # the candidate no longer comes canonically after the kept arc,
            # so the perturbation moves the kept arc instead and may resolve
            # a degenerate contact outside the stretch the other way: every
            # crossing is searched again
            new_crossings = compute_crossings(*pair)
        else:
            new_crossings = _splice_crossings(pair, m_side, lo, hi, d,
                                              changed, crossings, shift_b)
    except DegenerateTangency:
        return None
    if len(new_crossings) != len(crossings) - 2:
        return None
    # isotopy check: the swap loop (old portion against new portion, closed
    # through the shared step-off points) must not enclose any puncture
    closed = _without_repeats([middle[0], *old_middle, middle[-1],
                               *middle[::-1]])
    if closed[0] == closed[-1]:
        closed = closed[:-1]
    if any(winding_number(p, closed) != 0 for p in disc.hpoints):
        return None
    return new_crossings


def _splice_crossings(pair: tuple[PlanarArc, PlanarArc], m_side: int,
                      lo: int, hi: int, d: int, changed: list[tuple],
                      crossings: list[ArcCrossing],
                      shift_b: bool) -> list[ArcCrossing]:
    """The crossings of pair, the candidate on side m_side (see
    _verify_splice), under the perturbation of the moved arc's crossings:
    the old ones on unchanged segments, re-indexed, and the changed
    segments' own, in the order of (a segment, b segment), which is
    compute_crossings' order."""
    out = []
    for c in crossings:
        s, t = c.pos(m_side)
        if s < lo:
            out.append(c)
        elif s > hi - d:
            out.append(ArcCrossing(c.hpoint, (s + d, t), c.b_pos)
                       if m_side == 0
                       else ArcCrossing(c.hpoint, c.a_pos, (s + d, t)))
    met = box_pairs_between(changed, pair[1 - m_side].boxes)
    out += _crossings_on(*pair, [(c + lo, j) if m_side == 0 else (j, c + lo)
                                 for c, j in met], shift_b)
    out.sort(key=lambda c: (c.a_pos[0], c.b_pos[0]))
    return out


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def _reduce(a: PlanarArc, b: PlanarArc, disc: DiscModel
            ) -> tuple[PlanarArc, PlanarArc, list[ArcCrossing]]:
    """Isotope the pair (rel endpoints, avoiding punctures) until no empty
    bigon remains.  Returns the reduced pair in argument order with its
    crossings; each crossing search runs once per pair."""
    a.validate(disc)
    b.validate(disc)
    _check_boundary_endpoints(a, b)
    crossings = compute_crossings(a, b)
    for _ in range(len(crossings) // 2 + 1):
        bigon = next(find_empty_bigons(a, b, disc, crossings), None)
        if bigon is None:
            break
        a, b, crossings = eliminate_bigon(a, b, bigon, disc, crossings)
    return a, b, crossings


def minimal_position(a: PlanarArc, b: PlanarArc,
                     disc: DiscModel) -> tuple[PlanarArc, PlanarArc]:
    """The pair isotoped into minimal position, in argument order."""
    return _reduce(a, b, disc)[:2]


def intersection_profile(a: PlanarArc, b: PlanarArc,
                         disc: DiscModel) -> IntersectionProfile:
    """Crossing data of the pair in minimal position.

    Both arcs are validated and the pair is reduced first.  Reports the
    number of interior crossings and the shared puncture endpoints by name.
    Symmetric in the two arcs.
    """
    _, _, crossings = _reduce(a, b, disc)
    shared = tuple(sorted(a.puncture_names() & b.puncture_names()))
    return IntersectionProfile(len(crossings), shared)
