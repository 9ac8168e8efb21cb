"""Exact rational plane geometry primitives.

Points are homogeneous integer triples: (X, Y, W) with W > 0 is the point
(X/W, Y/W).  Arcs and discs store the reduced form, gcd(X, Y, W) == 1, one
triple per point, so equal points give equal triples (``reduced`` builds
it from any triple with W != 0).  The segment predicates, which decide
every sign, take any triples: each segment's line is computed once, the
cross product of its two triples, and a turn is the sign of its dot
product with a third (det[p; q; r] = (p x q) . r); a comparison of two
coordinates is one cross-multiplication, so no predicate takes a gcd or
builds a Fraction, and no floating point enters any decision.  A
crossing of two segments is a reduced triple too, with its positions
along the segments as integer ratios.  NamedTuples of Fractions (Pt) are
built only by ``point``, for messages and PlanarArc.vertices.

Degenerate contacts between two different polylines are resolved by a
deterministic symbolic perturbation: one of the two arcs is treated as
translated by the infinitesimal vector (eps, eps^2), eps > 0, so every
orientation sign is the first nonzero coefficient of the polynomial
base + c1*eps + c2*eps^2.

Boundary points of the unit disc are realized from exact rational "angles"
(fractions of a full counterclockwise turn) through the rational
parametrization
    t |-> ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)),
with a monotone piecewise-Moebius map from turn fraction to parameter t.  The
realized point of angle tau is therefore an exact rational point on the unit
circle, given in integer form by ``circle_hpoint``; realized points are
ordered counterclockwise exactly as their angles, although arc length is not
proportional to the angle fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple

Q = Fraction

# the floor key of a coordinate x is floor(x * 2^KEY_BITS)
KEY_BITS = 64


class Pt(NamedTuple):
    x: Fraction
    y: Fraction

    def __repr__(self) -> str:  # keeps pytest diffs readable
        return f"({self.x}, {self.y})"


# homogeneous integer point (X, Y, W), W > 0: the point (X/W, Y/W)
Hpt = tuple[int, int, int]

ORIGIN = (0, 0, 1)


def reduced(x: int, y: int, w: int) -> Hpt:
    """The triple (x, y, w), w != 0, over gcd(x, y, w) with the sign of w:
    the one triple of its point with W > 0 and gcd 1."""
    g = gcd(x, y, w)
    if w < 0:
        g = -g
    return (x // g, y // g, w // g)


def point(h: Hpt) -> Pt:
    """The Fraction point of a triple, for messages and arc.vertices."""
    x, y, w = h
    return Pt(Q(x, w), Q(y, w))


# --------------------------------------------------------------------------
# boundary angles
# --------------------------------------------------------------------------

def circle_hpoint(a: int, d: int) -> Hpt:
    """Exact rational point of the unit circle at turn fraction a / d, d > 0,
    as a homogeneous integer triple.

    Monotone in the angle: realized points advance strictly counterclockwise
    from (1, 0) at angle 0 through (0, 1), (-1, 0), (0, -1).  The parameter
    t = p/q of the angle gives (q^2 - p^2, 2pq, q^2 + p^2), not reduced.
    """
    a %= d
    if 2 * a == d:
        return (-1, 0, 1)
    if 2 * a < d:
        p, q = 2 * a, d - 2 * a         # t = 2 tau / (1 - 2 tau)
    else:
        p, q = 2 * (a - d), 2 * a - d   # t = 2 s / (1 + 2 s), s = tau - 1
    return (q * q - p * p, 2 * p * q, q * q + p * p)


def min_angular_gap(angles: list[Fraction]) -> Fraction:
    """Smallest circular gap between the distinct angles of a non-empty
    list, a full turn (1) if one; on numerators over their lcm den."""
    ratios = [a.as_integer_ratio() for a in angles]
    den = lcm(*[d for _, d in ratios])
    uniq = sorted({n * (den // d) % den for n, d in ratios})
    gaps = [b - a for a, b in zip(uniq, uniq[1:])]
    return Q(min(gaps + [den - uniq[-1] + uniq[0]]), den)


# --------------------------------------------------------------------------
# segment predicates on homogeneous integer points
# --------------------------------------------------------------------------

def _coord_lt(p: Hpt, q: Hpt, i: int) -> bool:
    """Coordinate i (0 = x, 1 = y) of p is below that of q."""
    return p[i] * q[2] < q[i] * p[2]


def orient(a: Hpt, b: Hpt, c: Hpt) -> int:
    """Sign of the turn a->b->c: +1 left (ccw), -1 right, 0 collinear.

    The determinant of the three rows (X, Y, W) is the turn's cross product
    times the positive aw * bw * cw, so it has the turn's sign.
    """
    ax, ay, aw = a
    bx, by, bw = b
    cx, cy, cw = c
    d = (ax * (by * cw - cy * bw) - ay * (bx * cw - cx * bw)
         + aw * (bx * cy - cx * by))
    return (d > 0) - (d < 0)


def _line(p: Hpt, q: Hpt) -> tuple[int, int, int]:
    """The line through p and q, p x q: the turn p -> q -> r has the sign
    of its dot product with r, det[p; q; r] (orient); 0 when p == q."""
    px, py, pw = p
    qx, qy, qw = q
    return (py * qw - pw * qy, pw * qx - px * qw, px * qy - py * qx)


def point_on_segment(p: Hpt, a: Hpt, b: Hpt) -> bool:
    """Exact: p lies on the closed segment [a, b]."""
    px, py, pw = p
    ax, ay, aw = a
    bx, by, bw = b
    # p lies between a and b in a coordinate when p - a and p - b do not
    # share a strict sign there; the ranges are cheaper than the turn and
    # usually decide
    if ((px * aw - ax * pw) * (px * bw - bx * pw) > 0
            or (py * aw - ay * pw) * (py * bw - by * pw) > 0):
        return False
    lx, ly, lw = _line(a, b)
    return lx * px + ly * py + lw * pw == 0


def segment_box(p: Hpt, q: Hpt) -> tuple[int, int, int, int]:
    """The floor keys x0, x1, y0, y1 of the closed bounding box of [p, q],
    floor(c * 2^64) of each edge c.

    The key is monotone, so boxes whose keys are apart are apart: segments
    whose keys are apart in x or y are separated by a positive gap there,
    so they share no point, and no infinitesimal shift of either one makes
    them meet.  Keys that meet decide nothing; the exact predicates do.
    """
    (px, py, pw), (qx, qy, qw) = p, q
    xp, xq = (px << KEY_BITS) // pw, (qx << KEY_BITS) // qw
    yp, yq = (py << KEY_BITS) // pw, (qy << KEY_BITS) // qw
    x0, x1 = (xp, xq) if xp <= xq else (xq, xp)
    y0, y1 = (yp, yq) if yp <= yq else (yq, yp)
    return (x0, x1, y0, y1)


def box_pairs(boxes: list[tuple]) -> list[tuple[int, int]]:
    """The index pairs (i, j), i < j, of the segments whose box keys
    (segment_box of each segment) meet, sorted.

    A sweep over x (boxes sorted by their left key, an active list dropping
    boxes whose right key is below the sweep line) pairs only boxes whose
    x-keys meet, then compares their y-keys.  A dropped box ends strictly
    left of every box still to come, so dropping it loses no pair.
    """
    active: list[int] = []
    pairs = []
    for kx0, k in sorted((box[0], k) for k, box in enumerate(boxes)):
        _, _, ky0, ky1 = boxes[k]
        active = [m for m in active if boxes[m][1] >= kx0]
        for m in active:
            if boxes[m][2] <= ky1 and ky0 <= boxes[m][3]:
                pairs.append((m, k) if m < k else (k, m))
        active.append(k)
    pairs.sort()
    return pairs


def box_pairs_between(boxes_a: list[tuple], boxes_b: list[tuple]
                      ) -> Iterator[tuple[int, int]]:
    """The index pairs (i, j) of a box of boxes_a and a box of boxes_b whose
    keys meet, in (i, j) order.  Every pair is tested: one of the two lists
    is short wherever two arcs are compared."""
    for i, (x0, x1, y0, y1) in enumerate(boxes_a):
        for j, (u0, u1, v0, v1) in enumerate(boxes_b):
            if x0 <= u1 and u0 <= x1 and y0 <= v1 and v0 <= y1:
                yield i, j


def segments_overlap_collinear(a1: Hpt, a2: Hpt, b1: Hpt, b2: Hpt) -> bool:
    """True when the two segments are collinear and share more than a point."""
    # b2 first: consecutive segments of a chain share b1 = a2
    lx, ly, lw = _line(a1, a2)
    if (lx * b2[0] + ly * b2[1] + lw * b2[2]
            or lx * b1[0] + ly * b1[1] + lw * b1[2]):
        return False
    # all four points lie on one line; order them along a coordinate in which
    # a1 and a2 differ (any, if a is a single point: it then overlaps nothing)
    i = 0 if a1[0] * a2[2] != a2[0] * a1[2] else 1
    alo, ahi = (a1, a2) if _coord_lt(a1, a2, i) else (a2, a1)
    blo, bhi = (b1, b2) if _coord_lt(b1, b2, i) else (b2, b1)
    # max(alo, blo) < min(ahi, bhi)
    return (_coord_lt(alo, ahi, i) and _coord_lt(alo, bhi, i)
            and _coord_lt(blo, ahi, i) and _coord_lt(blo, bhi, i))


def closed_segments_touch(a1: Hpt, a2: Hpt, b1: Hpt, b2: Hpt) -> bool:
    """Exact: the closed segments share at least one point."""
    lx, ly, lw = _line(a1, a2)
    d1 = lx * b1[0] + ly * b1[1] + lw * b1[2]
    d2 = lx * b2[0] + ly * b2[1] + lw * b2[2]
    if d1 > 0 and d2 > 0 or d1 < 0 and d2 < 0:
        # b lies strictly on one side of a's line
        return False
    lx, ly, lw = _line(b1, b2)
    d3 = lx * a1[0] + ly * a1[1] + lw * a1[2]
    d4 = lx * a2[0] + ly * a2[1] + lw * a2[2]
    if d3 > 0 and d4 > 0 or d3 < 0 and d4 < 0:
        return False
    if (d1 or d2) and (d3 or d4):
        return True
    # collinear, or a zero-length segment: an endpoint must lie on the other
    for p, a, b in ((b1, a1, a2), (b2, a1, a2), (a1, b1, b2), (a2, b1, b2)):
        if point_on_segment(p, a, b):
            return True
    return False


def first_contact(hs: tuple, pairs: Iterable) -> tuple[int, int] | None:
    """The first (i, j), i < j, of pairs whose segments i and j of the chain
    hs (hs[i] to hs[i + 1]) meet beyond a joint they share, or None."""
    for i, j in pairs:
        a1, a2, b1, b2 = hs[i], hs[i + 1], hs[j], hs[j + 1]
        if (segments_overlap_collinear(a1, a2, b1, b2) if j == i + 1
                else closed_segments_touch(a1, a2, b1, b2)):
            return i, j
    return None


class Crossing(NamedTuple):
    """A transverse crossing event between segment [a1,a2] and [b1,b2].

    hpoint is the crossing as a reduced triple; ta/tb are exact parameters
    along the respective segments (0..1), as integer ratios (n, d > 0).
    For contacts that the symbolic perturbation resolves into crossings
    they are the eps -> 0 limit values.
    """
    hpoint: Hpt
    ta: tuple[int, int]
    tb: tuple[int, int]


def _shift_sign(p: Hpt, q: Hpt) -> int:
    """Sign of orient(p, q, r + (eps, eps^2)) when r lies on the line pq:
    the eps coefficient -dy, else the eps^2 coefficient dx, of d = q - p
    (0 when p == q).  Shifting the segment instead of r negates it."""
    dy = q[1] * p[2] - p[1] * q[2]
    if dy:
        return -1 if dy > 0 else 1
    dx = q[0] * p[2] - p[0] * q[2]
    return (dx > 0) - (dx < 0)


def segment_crossing(a1: Hpt, a2: Hpt, b1: Hpt, b2: Hpt,
                     shift_b: bool) -> Crossing | None:
    """Proper crossing of two segments under the symbolic perturbation.

    When shift_b is True the second segment's arc is the perturbed one
    (translated by (eps, eps^2)); otherwise the first, the two segments
    swapping roles in place and their parameters on return.  The perturbed
    configuration has no tangencies, so the answer is always a clean
    yes/no; collinear overlaps resolve to "no crossing" (parallel translates
    never meet) and T-contacts resolve one way or the other consistently
    across all segment pairs of the same arc pair.  Each orientation is the
    first nonzero coefficient of base + c1*eps + c2*eps^2, its base one
    line's dot product with an end of the other segment.  The crossing is
    the lines' cross product; b's line is d3 / w1 at a1 and d4 / w2 at a2,
    so it lies at d3 w2 / (d3 w2 - d4 w1) along a, and likewise along b.
    """
    if not shift_b:
        a1, a2, b1, b2 = b1, b2, a1, a2
    (x1, y1, w1), (x2, y2, w2), (x3, y3, w3), (x4, y4, w4) = a1, a2, b1, b2
    ax, ay, aw = _line(a1, a2)
    d1 = ax * x3 + ay * y3 + aw * w3
    d2 = ax * x4 + ay * y4 + aw * w4
    tie = 0 if d1 and d2 else _shift_sign(a1, a2)
    if ((d1 or tie) > 0) == ((d2 or tie) > 0):
        return None
    bx, by, bw = _line(b1, b2)
    d3 = bx * x1 + by * y1 + bw * w1
    d4 = bx * x2 + by * y2 + bw * w2
    tie = 0 if d3 and d4 else -_shift_sign(b1, b2)
    if ((d3 or tie) > 0) == ((d4 or tie) > 0):
        return None
    # crossing of the perturbed pair implies the carrier lines are not
    # parallel (a parallel translate keeps b on one side of a's line), so
    # both denominators and the crossing's w are nonzero
    na, da = d3 * w2, d3 * w2 - d4 * w1
    nb, db = d1 * w4, d1 * w4 - d2 * w3
    ta = (na, da) if da > 0 else (-na, -da)
    tb = (nb, db) if db > 0 else (-nb, -db)
    hpoint = reduced(ay * bw - aw * by, aw * bx - ax * bw, ax * by - ay * bx)
    return Crossing(hpoint, ta, tb) if shift_b else Crossing(hpoint, tb, ta)


def segment_near_origin(a: Hpt, b: Hpt, r2: Fraction) -> bool:
    """Exact: the closed segment [a, b] comes within squared distance r2
    of the origin.

    The nearest point is a when the direction d = b - a points away from the
    origin at a (or d = 0), b when it points toward the origin past b, and
    otherwise the foot of the perpendicular, at squared distance
    cross(a, d)^2 / |d|^2.  All three cases compare integers.
    """
    ax, ay, aw = a
    bx, by, bw = b
    rn, rd = r2.numerator, r2.denominator
    dx, dy = bx * aw - ax * bw, by * aw - ay * bw      # (b - a) aw bw
    if dx * ax + dy * ay >= 0:
        return (ax * ax + ay * ay) * rd <= rn * aw * aw
    if dx * bx + dy * by <= 0:
        return (bx * bx + by * by) * rd <= rn * bw * bw
    c = ax * dy - ay * dx
    return c * c * rd <= rn * aw * aw * (dx * dx + dy * dy)


# --------------------------------------------------------------------------
# polygons
# --------------------------------------------------------------------------

def winding_number(p: Hpt, closed: list[Hpt]) -> int:
    """Winding number of a closed polyline around p (p off the curve)."""
    px, py, pw = p
    wn, a = 0, closed[-1]
    for b in closed:    # each edge a -> b, the closing one first
        if a[1] * pw <= py * a[2]:
            if b[1] * pw > py * b[2] and orient(a, b, p) > 0:
                wn += 1
        elif b[1] * pw <= py * b[2] and orient(a, b, p) < 0:
            wn -= 1
        a = b
    return wn
