"""Exact rational plane geometry primitives.

All predicates run on fractions.Fraction coordinates and return exact signs;
no floating point enters any decision.  Degenerate contacts between two
different polylines are resolved by a deterministic symbolic perturbation:
one of the two arcs is treated as translated by the infinitesimal vector
(eps, eps^2), eps > 0, so every orientation sign is the first nonzero
coefficient of the polynomial  base + c1*eps + c2*eps^2.

Points are NamedTuples of Fractions.  Boundary points of the unit disc are
realized from exact rational "angles" (fractions of a full counterclockwise
turn) through the rational parametrization
    t |-> ((1 - t^2)/(1 + t^2), 2t/(1 + t^2)),
with a monotone piecewise-Moebius map from turn fraction to parameter t.  The
realized point of angle tau is therefore an exact rational point on the unit
circle; realized points are ordered counterclockwise exactly as their angles,
although arc length is not proportional to the angle fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

Q = Fraction

ZERO = Q(0)
ONE = Q(1)
HALF = Q(1, 2)


class Pt(NamedTuple):
    x: Fraction
    y: Fraction

    def __repr__(self) -> str:  # keeps pytest diffs readable
        return f"({self.x}, {self.y})"


def pt(x, y) -> Pt:
    return Pt(Q(x), Q(y))


def sub(a: Pt, b: Pt) -> Pt:
    return Pt(a.x - b.x, a.y - b.y)


def cross(a: Pt, b: Pt) -> Fraction:
    return a.x * b.y - a.y * b.x


def dot(a: Pt, b: Pt) -> Fraction:
    return a.x * b.x + a.y * b.y


def norm2(a: Pt) -> Fraction:
    return a.x * a.x + a.y * a.y


def sgn(v: Fraction) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the turn a->b->c: +1 left (ccw), -1 right, 0 collinear."""
    return sgn(cross(sub(b, a), sub(c, a)))


def sgn_eps(base: Fraction, c1: Fraction, c2: Fraction) -> int:
    """Sign of base + c1*eps + c2*eps^2 for an infinitesimal eps > 0."""
    if base:
        return sgn(base)
    if c1:
        return sgn(c1)
    return sgn(c2)


# --------------------------------------------------------------------------
# boundary angles
# --------------------------------------------------------------------------

def angle_norm(tau: Fraction) -> Fraction:
    """Reduce an angle to the fundamental domain [0, 1)."""
    return Q(tau) % 1


def circle_point(tau: Fraction) -> Pt:
    """Exact rational point of the unit circle at turn fraction tau.

    Monotone in tau: realized points advance strictly counterclockwise from
    (1, 0) at tau = 0 through (0, 1), (-1, 0), (0, -1).
    """
    tau = angle_norm(tau)
    if tau == HALF:
        return Pt(-ONE, ZERO)
    if tau < HALF:
        t = 2 * tau / (1 - 2 * tau)
    else:
        s = tau - 1
        t = 2 * s / (1 + 2 * s)
    d = 1 + t * t
    return Pt((1 - t * t) / d, 2 * t / d)


def min_angular_gap(angles: Iterable[Fraction]) -> Fraction | None:
    """Smallest circular gap between distinct declared angles (None if < 2)."""
    uniq = sorted({angle_norm(a) for a in angles})
    if len(uniq) < 2:
        return None
    gaps = [uniq[i + 1] - uniq[i] for i in range(len(uniq) - 1)]
    gaps.append(1 - uniq[-1] + uniq[0])
    return min(gaps)


# --------------------------------------------------------------------------
# segment predicates
# --------------------------------------------------------------------------

def point_on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """Exact: p lies on the closed segment [a, b]."""
    if orient(a, b, p) != 0:
        return False
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def segments_overlap_collinear(a1: Pt, a2: Pt, b1: Pt, b2: Pt) -> bool:
    """True when the two segments are collinear and share more than a point."""
    if orient(a1, a2, b1) != 0 or orient(a1, a2, b2) != 0:
        return False
    d = sub(a2, a1)
    # project onto the carrier line
    ta = sorted([ZERO, dot(d, d)])
    tb = sorted([dot(d, sub(b1, a1)), dot(d, sub(b2, a1))])
    lo = max(ta[0], tb[0])
    hi = min(ta[1], tb[1])
    return lo < hi


def line_intersection(a1: Pt, a2: Pt, b1: Pt, b2: Pt) -> Pt:
    """Intersection point of two non-parallel lines (exact)."""
    da = sub(a2, a1)
    db = sub(b2, b1)
    den = cross(da, db)
    if den == 0:
        raise ZeroDivisionError("parallel lines")
    t = cross(sub(b1, a1), db) / den
    return Pt(a1.x + t * da.x, a1.y + t * da.y)


class Crossing(NamedTuple):
    """A transverse crossing event between segment [a1,a2] and [b1,b2].

    ta/tb are exact parameters along the respective segments (0..1); for
    contacts that the symbolic perturbation resolves into crossings they are
    the eps -> 0 limit values.
    """
    point: Pt
    ta: Fraction
    tb: Fraction


def _orient_coeffs_target_shifted(a1: Pt, a2: Pt, q: Pt) -> tuple[Fraction, Fraction, Fraction]:
    # orient(a1, a2, q + (eps, eps^2)) as polynomial in eps
    d = sub(a2, a1)
    base = cross(d, sub(q, a1))
    return base, -d.y, d.x


def _orient_coeffs_base_shifted(b1: Pt, b2: Pt, p: Pt) -> tuple[Fraction, Fraction, Fraction]:
    # orient(b1 + e, b2 + e, p) with e = (eps, eps^2)
    d = sub(b2, b1)
    base = cross(d, sub(p, b1))
    return base, d.y, -d.x


def segment_crossing(a1: Pt, a2: Pt, b1: Pt, b2: Pt,
                     shift_b: bool) -> Crossing | None:
    """Proper crossing of two segments under the symbolic perturbation.

    When shift_b is True the second segment's arc is the perturbed one
    (translated by (eps, eps^2)); otherwise the first.  The perturbed
    configuration has no tangencies, so the answer is always a clean
    yes/no; collinear overlaps resolve to "no crossing" (parallel translates
    never meet) and T-contacts resolve one way or the other consistently
    across all segment pairs of the same arc pair.
    """
    if not shift_b:
        # shifting arc A by +e is the same picture as shifting arc B by -e;
        # flip roles so only one code path exists.
        res = segment_crossing(b1, b2, a1, a2, shift_b=True)
        if res is None:
            return None
        return Crossing(res.point, res.tb, res.ta)

    o1 = sgn_eps(*_orient_coeffs_target_shifted(a1, a2, b1))
    o2 = sgn_eps(*_orient_coeffs_target_shifted(a1, a2, b2))
    if o1 == o2:
        return None
    o3 = sgn_eps(*_orient_coeffs_base_shifted(b1, b2, a1))
    o4 = sgn_eps(*_orient_coeffs_base_shifted(b1, b2, a2))
    if o3 == o4:
        return None
    da = sub(a2, a1)
    db = sub(b2, b1)
    den = cross(da, db)
    # crossing of the perturbed pair implies the carrier lines are not
    # parallel (parallel translates keep o1 == o2), so den != 0
    ta = cross(sub(b1, a1), db) / den
    tb = cross(sub(b1, a1), da) / den
    point = Pt(a1.x + ta * da.x, a1.y + ta * da.y)
    return Crossing(point, ta, tb)


def segment_point_dist2(p: Pt, a: Pt, b: Pt) -> Fraction:
    """Exact squared distance from p to the closed segment [a, b]."""
    d = sub(b, a)
    dd = norm2(d)
    if dd == 0:
        return norm2(sub(p, a))
    t = dot(sub(p, a), d) / dd
    if t <= 0:
        return norm2(sub(p, a))
    if t >= 1:
        return norm2(sub(p, b))
    q = Pt(a.x + t * d.x, a.y + t * d.y)
    return norm2(sub(p, q))


# --------------------------------------------------------------------------
# polygons
# --------------------------------------------------------------------------

def polygon_area2(poly: list[Pt]) -> Fraction:
    """Twice the signed area (positive for counterclockwise)."""
    s = ZERO
    n = len(poly)
    for i in range(n):
        s += cross(poly[i], poly[(i + 1) % n])
    return s


def point_in_polygon(p: Pt, poly: list[Pt]) -> bool:
    """Strict interior test (even-odd rule), assuming p is not on an edge.

    Uses the half-open rule on a horizontal ray toward +x, which is exact and
    immune to ray-through-vertex double counting.
    """
    inside = False
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        if (a.y > p.y) != (b.y > p.y):
            # x coordinate of the edge at height p.y
            xi = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y)
            if xi > p.x:
                inside = not inside
    return inside


def winding_number(p: Pt, closed: list[Pt]) -> int:
    """Winding number of a closed rational polyline around p (p off the curve)."""
    wn = 0
    n = len(closed)
    for i in range(n):
        a, b = closed[i], closed[(i + 1) % n]
        if a.y <= p.y:
            if b.y > p.y and orient(a, b, p) > 0:
                wn += 1
        else:
            if b.y <= p.y and orient(a, b, p) < 0:
                wn -= 1
    return wn
