"""Exact plane-geometry primitives: realized angles, perturbed predicates."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from lefbench.exactgeom import (Pt, box_pairs, circle_point, line_intersection,
                                min_angular_gap, norm2, orient,
                                point_in_polygon, polygon_area2,
                                segment_crossing, segment_point_dist2,
                                segments_overlap_collinear, sgn_eps,
                                winding_number, pt)

from oracles import ccw_gap


# well-known realized boundary points, frozen by hand from the parametrization
REALIZED = {
    Q(0): pt(1, 0),
    Q(1, 4): pt(0, 1),
    Q(1, 2): pt(-1, 0),
    Q(3, 4): pt(0, -1),
    Q(1, 8): pt(Q(4, 5), Q(3, 5)),
    Q(3, 8): pt(Q(-4, 5), Q(3, 5)),
    Q(5, 8): pt(Q(-4, 5), Q(-3, 5)),
    Q(7, 8): pt(Q(4, 5), Q(-3, 5)),
}


def test_circle_point_known_values():
    for tau, expect in REALIZED.items():
        assert circle_point(tau) == expect


def test_circle_point_wraps_modulo_one():
    assert circle_point(Q(9, 8)) == REALIZED[Q(1, 8)]
    assert circle_point(Q(-1, 4)) == REALIZED[Q(3, 4)]


rational_angles = st.fractions(min_value=0, max_value=1, max_denominator=512).filter(
    lambda q: q < 1)


@given(rational_angles)
def test_circle_point_on_unit_circle(tau):
    assert norm2(circle_point(tau)) == 1


@given(st.lists(rational_angles, min_size=3, max_size=3, unique=True))
def test_circle_point_preserves_ccw_order(taus):
    a, b, c = sorted(taus)
    assert orient(circle_point(a), circle_point(b), circle_point(c)) == 1


def test_ccw_gap_and_min_gap():
    assert ccw_gap(Q(7, 8), Q(1, 8)) == Q(1, 4)
    assert ccw_gap(Q(1, 8), Q(1, 8)) == 1
    assert min_angular_gap([Q(0), Q(1, 2), Q(3, 4)]) == Q(1, 4)
    assert min_angular_gap([Q(0)]) is None
    # the smallest gap is the shortest counterclockwise step between any two
    # distinct angles, however they are written
    angles = [Q(-1, 8), Q(1, 3), Q(5, 4), Q(7, 8), Q(2, 3)]
    assert min_angular_gap(angles) == min(
        ccw_gap(a, b) for a in angles for b in angles if (a - b) % 1)


def test_sgn_eps_orders_of_vanishing():
    assert sgn_eps(Q(3), Q(-99), Q(-99)) == 1
    assert sgn_eps(Q(0), Q(-2), Q(99)) == -1
    assert sgn_eps(Q(0), Q(0), Q(5)) == 1
    assert sgn_eps(Q(0), Q(0), Q(0)) == 0


def test_segment_crossing_transverse_x():
    hit = segment_crossing(pt(-1, -1), pt(1, 1), pt(-1, 1), pt(1, -1),
                           shift_b=True)
    assert hit is not None
    assert hit.point == pt(0, 0)
    assert hit.ta == Q(1, 2) and hit.tb == Q(1, 2)


def test_segment_crossing_disjoint():
    assert segment_crossing(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1),
                            shift_b=True) is None


def test_segment_crossing_t_contact_is_deterministic():
    # horizontal segment ending exactly on a vertical one: the perturbation
    # pushes the contact to one definite side per shifted arc
    a1, a2 = pt(0, -1), pt(0, 1)
    b1, b2 = pt(-1, 0), pt(0, 0)
    shifted_b = segment_crossing(a1, a2, b1, b2, shift_b=True)
    shifted_a = segment_crossing(a1, a2, b1, b2, shift_b=False)
    # b moves toward +x: its endpoint pokes past the vertical line -> crossing
    assert shifted_b is not None and shifted_b.point == pt(0, 0)
    # a moves toward +x: the vertical line recedes from b -> no contact
    assert shifted_a is None


def test_segment_crossing_collinear_overlap_resolves_to_none():
    a1, a2 = pt(-1, 0), pt(1, 0)
    b1, b2 = pt(0, 0), pt(2, 0)
    assert segments_overlap_collinear(a1, a2, b1, b2)
    assert segment_crossing(a1, a2, b1, b2, shift_b=True) is None
    assert segment_crossing(a1, a2, b1, b2, shift_b=False) is None


def test_segment_crossing_shared_endpoint_no_spurious_hit():
    # two segments radiating from one point cross zero times either way
    o = pt(0, 0)
    for flag in (True, False):
        assert segment_crossing(o, pt(1, 0), o, pt(0, 1), shift_b=flag) is None


def test_line_intersection_exact():
    p = line_intersection(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert p == pt(1, 1)
    with pytest.raises(ZeroDivisionError):
        line_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))


def test_polygon_primitives():
    square = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
    assert polygon_area2(square) == 8
    assert polygon_area2(square[::-1]) == -8
    assert point_in_polygon(pt(1, 1), square)
    assert not point_in_polygon(pt(3, 1), square)
    assert winding_number(pt(1, 1), square) == 1
    assert winding_number(pt(1, 1), square[::-1]) == -1
    assert winding_number(pt(3, 1), square) == 0


def test_degenerate_polygon_contains_nothing():
    flat = [pt(0, 0), pt(1, 0)]
    assert polygon_area2(flat) == 0
    assert not point_in_polygon(pt(Q(1, 2), 0), flat)


def test_segment_point_dist2():
    assert segment_point_dist2(pt(0, 1), pt(-1, 0), pt(1, 0)) == 1
    assert segment_point_dist2(pt(5, 0), pt(-1, 0), pt(1, 0)) == 16
    assert segment_point_dist2(pt(0, 0), pt(0, 0), pt(0, 0)) == 0


@given(st.fractions(max_denominator=64), st.fractions(max_denominator=64),
       st.fractions(max_denominator=64), st.fractions(max_denominator=64))
def test_segment_crossing_symmetric_under_role_flip(x1, y1, x2, y2):
    """Swapping segment roles while keeping the same shifted arc must report
    the same crossing point with swapped parameters."""
    a1, a2 = pt(-1, Q(-1, 3)), pt(1, Q(1, 7))
    b1, b2 = Pt(x1, y1), Pt(x2, y2)
    if (b1 == b2):
        return
    direct = segment_crossing(a1, a2, b1, b2, shift_b=True)
    flipped = segment_crossing(b1, b2, a1, a2, shift_b=False)
    if direct is None:
        assert flipped is None
    else:
        assert flipped is not None
        assert flipped.point == direct.point
        assert (flipped.ta, flipped.tb) == (direct.tb, direct.ta)


GRID_SEGMENTS = st.tuples(
    *[st.builds(lambda x, y: pt(Q(x, 4), Q(y, 4)),
                st.integers(-4, 4), st.integers(-4, 4))] * 2)


def _boxes_meet(s, t):
    (p, q), (u, v) = s, t
    return (max(min(p.x, q.x), min(u.x, v.x)) <= min(max(p.x, q.x), max(u.x, v.x))
            and max(min(p.y, q.y), min(u.y, v.y))
            <= min(max(p.y, q.y), max(u.y, v.y)))


@given(st.lists(GRID_SEGMENTS, max_size=12),
       st.one_of(st.none(), st.lists(GRID_SEGMENTS, max_size=12)))
def test_box_pairs_are_exactly_the_meeting_boxes(segs_a, segs_b):
    if segs_b is None:
        expect = [(i, j) for i in range(len(segs_a))
                  for j in range(i + 1, len(segs_a))
                  if _boxes_meet(segs_a[i], segs_a[j])]
    else:
        expect = [(i, j) for i in range(len(segs_a)) for j in range(len(segs_b))
                  if _boxes_meet(segs_a[i], segs_b[j])]
    assert box_pairs(segs_a, segs_b) == expect
