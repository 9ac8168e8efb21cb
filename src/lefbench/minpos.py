"""Minimal position and intersection profiles for disc arcs.

Crossings between two arcs are computed with the symbolic perturbation of
exactgeom (the canonically larger arc plays the "later-declared" role and is
the one infinitesimally shifted, so results do not depend on argument order)
over the segment pairs whose closed bounding boxes meet (exactgeom.box_pairs).
Skipping the other pairs is exact: boxes strictly apart leave a positive gap
in x or y, which the infinitesimal shift (eps, eps^2) cannot close.  Empty
bigons - discs bounded by one sub-arc of each curve containing no puncture -
are eliminated by rerouting one arc alongside the other within a verified
corridor.  Every elimination is checked exactly after the fact (embeddedness,
crossing count drop of exactly two, zero winding of the swap loop around
every puncture); the corridor width shrinks geometrically until the checks
pass, so a successful return is correct by construction rather than by
trusted epsilon bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .disc import DiscModel, PlanarArc, Puncture
from .errors import DegenerateTangency, LefbenchError, SharedBoundaryEndpoint
from .exactgeom import (Pt, Q, box_pairs, cross, line_intersection, norm2,
                        point_in_polygon, point_on_segment, polygon_area2,
                        segment_crossing, segments_overlap_collinear, sub,
                        winding_number)

Pos = tuple[int, Fraction]  # (segment index, parameter within segment)


@dataclass(frozen=True)
class ArcCrossing:
    """One transverse crossing event between two arcs."""
    point: Pt
    a_pos: Pos
    b_pos: Pos

    def pos(self, side: int) -> Pos:
        return self.a_pos if side == 0 else self.b_pos


@dataclass(frozen=True)
class IntersectionProfile:
    interior_crossings: tuple[Pt, ...]
    shared_punctures: tuple[str, ...]

    @property
    def crossing_count(self) -> int:
        return len(self.interior_crossings)


def _shared_anchor_points(a: PlanarArc, b: PlanarArc) -> set[Pt]:
    shared = a.puncture_names() & b.puncture_names()
    pts = set()
    for arc in (a, b):
        for end, v in ((arc.start, arc.vertices[0]), (arc.end, arc.vertices[-1])):
            if isinstance(end, Puncture) and end.name in shared:
                pts.add(v)
    return pts


def _endpoint_segment_indices(arc: PlanarArc, anchor: Pt) -> list[int]:
    out = []
    if arc.vertices[0] == anchor:
        out.append(0)
    if arc.vertices[-1] == anchor:
        out.append(len(arc.vertices) - 2)
    return out


def compute_crossings(a: PlanarArc, b: PlanarArc) -> list[ArcCrossing]:
    """All transverse crossing events between a and b, exact.

    Segment pairs pinned together at a shared puncture are treated specially:
    the pinned contact itself is structural (it becomes a shared-endpoint
    generator, not a crossing) and an overlapping collinear departure from the
    shared puncture cannot be resolved by translating one arc, hence
    DegenerateTangency.
    """
    shift_b = not (a.canonical_key() > b.canonical_key())

    incident: set[tuple[int, int]] = set()
    for s in _shared_anchor_points(a, b):
        for i in _endpoint_segment_indices(a, s):
            for j in _endpoint_segment_indices(b, s):
                incident.add((i, j))

    segs_a = a.segments()
    segs_b = b.segments()
    found: list[ArcCrossing] = []
    # pinned pairs share their puncture, so their boxes meet and they are
    # always tested; pairs come in (i, j) order, the order of the result
    for i, j in box_pairs(segs_a, segs_b):
        (a1, a2), (b1, b2) = segs_a[i], segs_b[j]
        if (i, j) in incident:
            if segments_overlap_collinear(a1, a2, b1, b2):
                raise DegenerateTangency(
                    "arcs leave a shared puncture along overlapping"
                    " collinear segments")
            continue
        hit = segment_crossing(a1, a2, b1, b2, shift_b=shift_b)
        if hit is not None:
            found.append(ArcCrossing(hit.point, (i, hit.ta), (j, hit.tb)))
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


def _point_at(arc: PlanarArc, pos: Pos) -> Pt:
    s, t = pos
    v0, v1 = arc.vertices[s], arc.vertices[s + 1]
    return Pt(v0.x + t * (v1.x - v0.x), v0.y + t * (v1.y - v0.y))


def _subpath(arc: PlanarArc, lo: Pos, hi: Pos) -> list[Pt]:
    """Polyline of arc between two positions, lo <= hi, endpoints included."""
    pts = [_point_at(arc, lo)]
    for v in arc.vertices[lo[0] + 1: hi[0] + 1]:
        pts.append(v)
    pts.append(_point_at(arc, hi))
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _lens_polygon(a: PlanarArc, b: PlanarArc, x: ArcCrossing,
                  y: ArcCrossing) -> list[Pt]:
    a_lo, a_hi = sorted([x.a_pos, y.a_pos])
    b_lo, b_hi = sorted([x.b_pos, y.b_pos])
    side_a = _subpath(a, a_lo, a_hi)
    side_b = _subpath(b, b_lo, b_hi)
    if side_a[0] != side_b[0]:
        side_b = side_b[::-1]
    poly = side_a + side_b[::-1][1:-1]
    return poly


def find_empty_bigons(a: PlanarArc, b: PlanarArc, disc: DiscModel,
                      crossings: list[ArcCrossing] | None = None) -> list[Bigon]:
    """All bigons whose corners are adjacent on both arcs and whose interior
    contains no puncture, in deterministic order along a."""
    if crossings is None:
        crossings = compute_crossings(a, b)
    if len(crossings) < 2:
        return []
    by_a = sorted(crossings, key=lambda c: c.a_pos)
    by_b = sorted(crossings, key=lambda c: c.b_pos)
    b_index = {id(c): k for k, c in enumerate(by_b)}
    bigons = []
    for x, y in zip(by_a, by_a[1:]):
        if abs(b_index[id(x)] - b_index[id(y)]) != 1:
            continue
        poly = _lens_polygon(a, b, x, y)
        # a flattened (zero-area) lens bounds no region, hence is empty
        if any(point_in_polygon(p, poly) for _, p in disc.items()):
            continue
        bigons.append(Bigon(x, y))
    return bigons


# --------------------------------------------------------------------------
# bigon surgery
# --------------------------------------------------------------------------

def _l1(v: Pt) -> Fraction:
    return abs(v.x) + abs(v.y)


def _offset_chain(pts: list[Pt], side: int, eps: Fraction) -> list[Pt]:
    """Polyline parallel to pts on the given side (+1 = left of travel).

    Segment copies are displaced by roughly eps; interior joints are mitered
    (intersection of the two adjacent offset lines), which keeps the chain
    embedded at reflex joints where a bevel pair would cross itself."""
    offs = []
    for w0, w1 in zip(pts, pts[1:]):
        d = sub(w1, w0)
        n = Pt(-d.y, d.x) if side > 0 else Pt(d.y, -d.x)
        sc = eps / _l1(d)
        offs.append(Pt(n.x * sc, n.y * sc))

    def shift(p: Pt, o: Pt) -> Pt:
        return Pt(p.x + o.x, p.y + o.y)

    out = [shift(pts[0], offs[0])]
    for i in range(len(offs) - 1):
        joint = pts[i + 1]
        a0, a1 = shift(pts[i], offs[i]), shift(joint, offs[i])
        b0, b1 = shift(joint, offs[i + 1]), shift(pts[i + 2], offs[i + 1])
        if cross(sub(a1, a0), sub(b1, b0)) == 0:
            q = a1 if a1 == b0 else shift(joint, offs[i])
        else:
            q = line_intersection(a0, a1, b0, b1)
        if q != out[-1]:
            out.append(q)
    last = shift(pts[-1], offs[-1])
    if last != out[-1]:
        out.append(last)
    return out


def _step_from(arc: PlanarArc, pos: Pos, eps: Fraction,
               forward: bool) -> tuple[Pt, int]:
    """A point on arc strictly before (forward=False) or after (forward=True)
    pos, within distance eps of it.  Returns (point, index of the segment the
    point lies on)."""
    s, t = pos
    if forward:
        if t == 1:
            s, t = s + 1, Q(0)
        v0, v1 = arc.vertices[s], arc.vertices[s + 1]
        step = min((1 - t) / 2, eps / _l1(sub(v1, v0)))
        t2 = t + step
    else:
        if t == 0:
            s, t = s - 1, Q(1)
        v0, v1 = arc.vertices[s], arc.vertices[s + 1]
        step = min(t / 2, eps / _l1(sub(v1, v0)))
        t2 = t - step
    return Pt(v0.x + t2 * (v1.x - v0.x), v0.y + t2 * (v1.y - v0.y)), s


def _arc_embedded(arc: PlanarArc) -> bool:
    try:
        arc._check_embedded()
        return True
    except LefbenchError:
        return False


def _vertices_legal(pts: Iterable[Pt], disc: DiscModel) -> bool:
    pl = list(pts)
    for v in pl:
        if norm2(v) >= 1:
            return False
    for _, p in disc.items():
        for a, b in zip(pl, pl[1:]):
            if point_on_segment(p, a, b):
                return False
    return True


def eliminate_bigon(a: PlanarArc, b: PlanarArc, bigon: Bigon, disc: DiscModel,
                    count: int) -> tuple[PlanarArc, PlanarArc, list[ArcCrossing]]:
    """Remove one empty bigon by isotoping one arc across it.

    count is the number of crossings of a and b.  The canonically larger arc
    is rerouted: its portion between the two corner crossings is replaced by
    a polyline hugging the other arc's side of the lens from the outside.
    The construction is retried with a shrinking corridor width until the
    exact verification passes.  Returns the new pair in argument order with
    its crossings, as compute_crossings of that pair gives them.
    """
    if a.canonical_key() > b.canonical_key():
        moved, kept, m_side = a, b, 0
    else:
        moved, kept, m_side = b, a, 1
    k_side = 1 - m_side

    x, y = bigon.first, bigon.second
    if x.pos(m_side) > y.pos(m_side):
        x, y = y, x
    m_lo, m_hi = x.pos(m_side), y.pos(m_side)
    k_lo, k_hi = sorted([x.pos(k_side), y.pos(k_side)])

    kept_sub = _subpath(kept, k_lo, k_hi)
    if kept_sub[0] != _point_at(moved, m_lo):
        kept_sub = kept_sub[::-1]

    moved_sub = _subpath(moved, m_lo, m_hi)
    lens = kept_sub + moved_sub[::-1][1:-1]
    # offset away from the lens: lens interior is left of kept_sub travel
    # exactly when the polygon (kept_sub then moved_sub reversed) is ccw
    side = -1 if polygon_area2(lens) > 0 else 1

    xs = [p.x for p in lens]
    ys = [p.y for p in lens]
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
        # hug only the interior joints of the kept side: the step-off points
        # themselves take over at the corners, where a full offset of the
        # corner point may land behind the step-off and fold the route back
        chain = _offset_chain(kept_sub, side_now, eps)[1:-1]
        if not chain:
            # straight kept side: a single offset midpoint carries the route
            # across on the chosen side
            k0, k1 = kept_sub[0], kept_sub[-1]
            d = sub(k1, k0)
            n = Pt(-d.y, d.x) if side_now > 0 else Pt(d.y, -d.x)
            sc = eps / _l1(d)
            chain = [Pt((k0.x + k1.x) / 2 + n.x * sc,
                        (k0.y + k1.y) / 2 + n.y * sc)]
        middle = [p_before] + chain + [p_after]
        mid_dedup = [middle[0]]
        for p in middle[1:]:
            if p != mid_dedup[-1]:
                mid_dedup.append(p)
        new_vs = (moved.vertices[:s_before + 1] + tuple(mid_dedup)
                  + moved.vertices[s_after + 1:])
        candidate = moved.with_vertices(new_vs)
        pair = (candidate, kept) if m_side == 0 else (kept, candidate)
        crossings = _verify_surgery(pair, candidate, moved, disc, count,
                                    m_lo, m_hi, mid_dedup)
        if crossings is not None:
            return *pair, crossings
    raise DegenerateTangency("bigon surgery did not stabilize; the input"
                             " configuration is too degenerate to reroute")


def _verify_surgery(pair: tuple[PlanarArc, PlanarArc], candidate: PlanarArc,
                    moved: PlanarArc, disc: DiscModel, old_count: int,
                    m_lo: Pos, m_hi: Pos,
                    new_middle: list[Pt]) -> list[ArcCrossing] | None:
    """The crossings of pair (the candidate with the kept arc, in the
    caller's order) when the surgery is legal, embedded, drops exactly two
    crossings and sweeps no puncture; None otherwise."""
    if not _vertices_legal(new_middle, disc):
        return None
    if not _arc_embedded(candidate):
        return None
    try:
        new_crossings = compute_crossings(*pair)
    except DegenerateTangency:
        return None
    if len(new_crossings) != old_count - 2:
        return None
    # isotopy check: the swap loop (old portion against new portion) must not
    # enclose any puncture
    old_middle = _subpath(moved, m_lo, m_hi)
    # close old portion against new portion through the shared step-off points
    loop = [new_middle[0]] + old_middle + [new_middle[-1]] + new_middle[::-1]
    closed = [loop[0]]
    for p in loop[1:]:
        if p != closed[-1]:
            closed.append(p)
    if closed[0] == closed[-1]:
        closed = closed[:-1]
    for _, p in disc.items():
        if winding_number(p, closed) != 0:
            return None
    return new_crossings


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def minimal_position(a: PlanarArc, b: PlanarArc,
                     disc: DiscModel) -> tuple[PlanarArc, PlanarArc]:
    """Isotope the pair (rel endpoints, avoiding punctures) until no empty
    bigon remains.  Returns the reduced pair in argument order."""
    a.validate(disc)
    b.validate(disc)
    _check_boundary_endpoints(a, b)
    crossings = compute_crossings(a, b)
    for _ in range(len(crossings) // 2 + 1):
        bigons = find_empty_bigons(a, b, disc, crossings)
        if not bigons:
            return a, b
        a, b, crossings = eliminate_bigon(a, b, bigons[0], disc, len(crossings))
    return a, b


def intersection_profile(a: PlanarArc, b: PlanarArc,
                         disc: DiscModel) -> IntersectionProfile:
    """Crossing data of two arcs already in minimal position.

    Interior crossing points are reported sorted by coordinates; shared
    puncture endpoints by name.  Symmetric in the two arcs.
    """
    _check_boundary_endpoints(a, b)
    crossings = compute_crossings(a, b)
    pts = tuple(sorted((c.point for c in crossings)))
    shared = tuple(sorted(a.puncture_names() & b.puncture_names()))
    return IntersectionProfile(pts, shared)
