"""Exact plane-geometry primitives: realized angles, perturbed predicates.

The segment predicates run on homogeneous integer points; each one is
checked against its Fraction reference in ``oracles``.
"""

import random
from fractions import Fraction as Q
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lefbench.config import load_config
from lefbench.disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from lefbench.errors import LefbenchError
from lefbench.exactgeom import (Pt, _shift_sign, box_pairs, box_pairs_between,
                                circle_hpoint, closed_segments_touch,
                                min_angular_gap, orient, point_on_segment,
                                segment_box, segment_crossing,
                                segment_near_origin,
                                segments_overlap_collinear, winding_number)
from lefbench.minpos import compute_crossings
from lefbench.wrapping import BEND, source_annulus, wrap

from oracles import (ccw_gap, homog, line_intersection, polygon_area2,
                     segment_point_dist2, sgn_eps)
from scen import arc_through, pt
from test_disc import _embedding_error, no_zero_length
from test_wrap import wrap_or_refusal


def h(*points):
    return [homog(p) for p in points]


def circle_point(tau):
    """The realized boundary point of angle tau (circle_hpoint) as a Pt."""
    tau = Q(tau)
    x, y, w = circle_hpoint(tau.numerator, tau.denominator)
    return Pt(Q(x, w), Q(y, w))


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
    x, y, w = homog(circle_point(tau))
    assert x * x + y * y == w * w


@given(st.lists(rational_angles, min_size=3, max_size=3, unique=True))
def test_circle_point_preserves_ccw_order(taus):
    a, b, c = sorted(taus)
    assert orient(*h(circle_point(a), circle_point(b), circle_point(c))) == 1


def test_ccw_gap_and_min_gap():
    assert ccw_gap(Q(7, 8), Q(1, 8)) == Q(1, 4)
    assert ccw_gap(Q(1, 8), Q(1, 8)) == 1
    assert min_angular_gap([Q(0), Q(1, 2), Q(3, 4)]) == Q(1, 4)
    assert min_angular_gap([Q(0)]) == 1
    # the smallest gap is the shortest counterclockwise step between any two
    # distinct angles, however they are written
    angles = [Q(-1, 8), Q(1, 3), Q(5, 4), Q(7, 8), Q(2, 3)]
    assert min_angular_gap(angles) == min(
        ccw_gap(a, b) for a in angles for b in angles if (a - b) % 1)


def test_min_angular_gap_matches_sorted_fraction_differences():
    rng = random.Random(25)
    for _ in range(400):
        angles = [Q(rng.randint(-300, 300), rng.choice([1, 2, 7, 64, 97, 360]))
                  for _ in range(rng.randint(1, 6))]
        assert min_angular_gap(angles) == oracles.sorted_min_gap(angles)
        assert min_angular_gap(angles[:1]) == 1


def test_bow_bound_clears_every_chord_of_a_grid_turn():
    # circle_hpoint turns at most 8 radians a turn, so a chord of one grid
    # step spans at most 8/res radians and stays at distance cos(4/res) >=
    # 1 - 8/res^2 from the origin on the unit circle (wrap's bow bound)
    rng = random.Random(25)
    for res in range(3, 65):
        bound = (1 - Q(8, res * res)) ** 2
        for _ in range(3):
            d = rng.randint(1, 40)
            offset = rng.randrange(d)
            turn = [circle_hpoint(offset + k * d, res * d)
                    for k in range(res + 1)]
            for p, q in zip(turn, turn[1:]):
                assert not segment_near_origin(p, q, bound), (res, d, offset)


def test_sgn_eps_orders_of_vanishing():
    assert sgn_eps(Q(3), Q(-99), Q(-99)) == 1
    assert sgn_eps(Q(0), Q(-2), Q(99)) == -1
    assert sgn_eps(Q(0), Q(0), Q(5)) == 1
    assert sgn_eps(Q(0), Q(0), Q(0)) == 0


def test_segment_crossing_transverse_x():
    hit = segment_crossing(*h(pt(-1, -1), pt(1, 1), pt(-1, 1), pt(1, -1)),
                           shift_b=True)
    assert hit is not None
    assert hit.hpoint == (0, 0, 1)
    assert hit.ta == Q(1, 2) and hit.tb == Q(1, 2)


def test_segment_crossing_disjoint():
    assert segment_crossing(*h(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)),
                            shift_b=True) is None


def test_segment_crossing_t_contact_is_deterministic():
    # horizontal segment ending exactly on a vertical one: the perturbation
    # pushes the contact to one definite side per shifted arc
    a1, a2, b1, b2 = h(pt(0, -1), pt(0, 1), pt(-1, 0), pt(0, 0))
    shifted_b = segment_crossing(a1, a2, b1, b2, shift_b=True)
    shifted_a = segment_crossing(a1, a2, b1, b2, shift_b=False)
    # b moves toward +x: its endpoint pokes past the vertical line -> crossing
    assert shifted_b is not None and shifted_b.hpoint == (0, 0, 1)
    # a moves toward +x: the vertical line recedes from b -> no contact
    assert shifted_a is None


def test_segment_crossing_collinear_overlap_resolves_to_none():
    a1, a2, b1, b2 = h(pt(-1, 0), pt(1, 0), pt(0, 0), pt(2, 0))
    assert segments_overlap_collinear(a1, a2, b1, b2)
    assert segment_crossing(a1, a2, b1, b2, shift_b=True) is None
    assert segment_crossing(a1, a2, b1, b2, shift_b=False) is None


def test_segment_crossing_shared_endpoint_no_spurious_hit():
    # two segments radiating from one point cross zero times either way
    o, e1, e2 = h(pt(0, 0), pt(1, 0), pt(0, 1))
    for flag in (True, False):
        assert segment_crossing(o, e1, o, e2, shift_b=flag) is None


def test_line_intersection_exact():
    p = line_intersection(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert p == pt(1, 1)
    with pytest.raises(ZeroDivisionError):
        line_intersection(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))


def test_polygon_primitives():
    square = [pt(0, 0), pt(2, 0), pt(2, 2), pt(0, 2)]
    assert polygon_area2(square) == 8
    assert polygon_area2(square[::-1]) == -8
    assert winding_number(homog(pt(1, 1)), h(*square)) == 1
    assert winding_number(homog(pt(1, 1)), h(*square[::-1])) == -1
    assert winding_number(homog(pt(3, 1)), h(*square)) == 0


def test_degenerate_polygon_contains_nothing():
    flat = [pt(0, 0), pt(1, 0)]
    assert polygon_area2(flat) == 0
    assert winding_number(homog(pt(Q(1, 2), 1)), h(*flat)) == 0


def test_segment_point_dist2():
    assert segment_point_dist2(pt(0, 1), pt(-1, 0), pt(1, 0)) == 1
    assert segment_point_dist2(pt(5, 0), pt(-1, 0), pt(1, 0)) == 16
    assert segment_point_dist2(pt(0, 0), pt(0, 0), pt(0, 0)) == 0


@given(st.fractions(max_denominator=64), st.fractions(max_denominator=64),
       st.fractions(max_denominator=64), st.fractions(max_denominator=64))
def test_segment_crossing_symmetric_under_role_flip(x1, y1, x2, y2):
    """Swapping segment roles while keeping the same shifted arc must report
    the same crossing point, the reference's, with swapped parameters."""
    a1, a2, b1, b2 = h(pt(-1, Q(-1, 3)), pt(1, Q(1, 7)), Pt(x1, y1), Pt(x2, y2))
    if (b1 == b2):
        return
    direct = segment_crossing(a1, a2, b1, b2, shift_b=True)
    flipped = segment_crossing(b1, b2, a1, a2, shift_b=False)
    if direct is None:
        assert flipped is None
    else:
        assert flipped is not None
        ref = oracles.segment_crossing(pt(-1, Q(-1, 3)), pt(1, Q(1, 7)),
                                       Pt(x1, y1), Pt(x2, y2), shift_b=True)
        assert flipped.hpoint == direct.hpoint == homog(ref.point)
        assert (flipped.ta, flipped.tb) == (direct.tb, direct.ta)


GRID_POINT = st.builds(lambda x, y: pt(Q(x, 4), Q(y, 4)),
                       st.integers(-4, 4), st.integers(-4, 4))
GRID_SEGMENTS = st.tuples(GRID_POINT, GRID_POINT)


def _boxes_meet(s, t):
    (p, q), (u, v) = s, t
    return (max(min(p.x, q.x), min(u.x, v.x)) <= min(max(p.x, q.x), max(u.x, v.x))
            and max(min(p.y, q.y), min(u.y, v.y))
            <= min(max(p.y, q.y), max(u.y, v.y)))


def _hboxes(segs):
    return None if segs is None else [segment_box(*h(p, q)) for p, q in segs]


@given(st.lists(GRID_SEGMENTS, max_size=12),
       st.one_of(st.none(), st.lists(GRID_SEGMENTS, max_size=12)))
def test_box_pairs_are_exactly_the_meeting_boxes(segs_a, segs_b):
    _check_box_pairs(segs_a, segs_b)


def _check_box_pairs(segs_a, segs_b):
    if segs_b is None:
        expect = [(i, j) for i in range(len(segs_a))
                  for j in range(i + 1, len(segs_a))
                  if _boxes_meet(segs_a[i], segs_a[j])]
        assert box_pairs(_hboxes(segs_a)) == expect
    else:
        expect = [(i, j) for i in range(len(segs_a)) for j in range(len(segs_b))
                  if _boxes_meet(segs_a[i], segs_b[j])]
        assert list(box_pairs_between(_hboxes(segs_a),
                                      _hboxes(segs_b))) == expect


# coordinates closer together than the 2^-64 resolution of the boxes' floor
# keys: the sweep's sort and drop and the key test see ties, the exact
# predicates behind them must tell them apart
TINY = Q(1, 2 ** 70)
NEAR = [c + d for c in (Q(-1, 3), Q(0), Q(1, 3)) for d in (-TINY, Q(0), TINY)]
NEAR_POLYLINES = st.lists(st.builds(Pt, st.sampled_from(NEAR),
                                    st.sampled_from(NEAR)),
                          min_size=2, max_size=9).filter(no_zero_length)


@settings(max_examples=250, deadline=None)
@given(NEAR_POLYLINES, NEAR_POLYLINES)
def test_key_pruned_pairs_match_all_pairs_within_one_key(va, vb):
    a = arc_through(tuple(va), BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    b = arc_through(tuple(vb), BoundaryAngle(Q(1, 4)), BoundaryAngle(Q(3, 4)))
    assert (_embedding_error(PlanarArc._check_embedded, a)
            == _embedding_error(oracles.all_pairs_check_embedded, a))
    assert compute_crossings(a, b) == oracles.all_pairs_crossings(a, b)


def _first_error(*checks):
    try:
        for check in checks:
            check()
    except LefbenchError as exc:
        return str(exc)
    return None


def test_puncture_keys_report_what_all_pairs_reports():
    # punctures and vertices on the NEAR grid: a puncture 2^-70 off a
    # segment has the floor key of points on it, several punctures lie on
    # one segment, and punctures sit at joints and at anchored ends; the
    # lowest declaration index must win wherever the arc meets it
    rng = random.Random(28)
    grid = [Pt(x, y) for x in NEAR for y in NEAR]
    seen = dict.fromkeys(("several", "joint", "anchored", "near"), 0)
    for _ in range(600):
        punctures = tuple((f"q{k}", p) for k, p in
                          enumerate(rng.sample(grid, rng.randint(2, 12))))
        disc = DiscModel(tuple([(name, homog(p)) for name, p in punctures]))
        ends = []
        for _ in range(2):
            if rng.random() < 0.5:
                name, p = rng.choice(punctures)
                ends.append((Puncture(name), p))
            else:
                angle = BoundaryAngle(Q(rng.randrange(8), 8))
                ends.append((angle, circle_point(angle.angle)))
        (start, p0), (end, p1) = ends
        mid = [rng.choice(punctures)[1] if rng.random() < 0.3
               else rng.choice(grid) for _ in range(rng.randint(0, 4))]
        vs = [p0, *mid, p1]
        if not no_zero_length(vs):
            continue
        arc = arc_through(tuple(vs), start, end)
        got = _first_error(lambda: arc.validate(disc))
        assert got == _first_error(
            lambda: oracles.all_pairs_puncture_check(arc, disc),
            lambda: oracles.all_pairs_check_embedded(arc)), vs
        segs = oracles.segments(arc)
        seen["several"] += sum(
            p not in (p0, p1) and any(oracles.point_on_segment(p, a, b)
                                      for a, b in segs)
            for _, p in punctures) > 1
        seen["joint"] += any(p in mid for _, p in punctures)
        seen["anchored"] += any(isinstance(e, Puncture) for e in (start, end))
        seen["near"] += any(
            0 < oracles.segment_point_dist2(p, a, b) <= TINY ** 2
            for _, p in punctures for a, b in segs)
    assert min(seen.values()) >= 20, seen


# --------------------------------------------------------------------------
# integer predicates against their Fraction references
# --------------------------------------------------------------------------

# four points drawn from a pool of at most five: shared endpoints,
# zero-length segments, collinear and touching quadruples are common
POOLED = st.lists(GRID_POINT, min_size=1, max_size=5).flatmap(
    lambda pool: st.tuples(*[st.sampled_from(pool)] * 4))
QUADS = st.one_of(st.tuples(*[GRID_POINT] * 4), POOLED)
# a homogeneous form need not be the reduced one: scale each point by k > 0
SCALES = st.tuples(*[st.integers(1, 7)] * 4)
ONES = (1, 1, 1, 1)


def _scaled(points, scales):
    return [(x * k, y * k, w * k)
            for (x, y, w), k in zip(h(*points), scales)]


def _agree(a1, a2, b1, b2, h1, h2, h3, h4):
    """Every integer predicate on (h1..h4) gives its reference's answer on
    the Fraction points (a1, a2, b1, b2) they represent."""
    assert orient(h1, h2, h3) == oracles.orient(a1, a2, b1)
    assert orient(h3, h4, h1) == oracles.orient(b1, b2, a1)
    assert point_on_segment(h3, h1, h2) == oracles.point_on_segment(b1, a1, a2)
    assert point_on_segment(h1, h3, h4) == oracles.point_on_segment(a1, b1, b2)
    assert (closed_segments_touch(h1, h2, h3, h4)
            == oracles._closed_segments_touch(a1, a2, b1, b2))
    assert (segments_overlap_collinear(h1, h2, h3, h4)
            == oracles.segments_overlap_collinear(a1, a2, b1, b2))
    for shift_b in (True, False):
        ref = oracles.segment_crossing(a1, a2, b1, b2, shift_b)
        assert segment_crossing(h1, h2, h3, h4, shift_b) == (
            None if ref is None else (homog(ref.point), ref.ta, ref.tb))


# degenerate quadruples that random draws reach rarely
@example((pt(0, 0), pt(1, 0), pt(Q(1, 2), 0), pt(Q(1, 2), 0)), ONES)
@example((pt(Q(1, 2), 0), pt(Q(1, 2), 0), pt(0, 0), pt(1, 0)), ONES)
@example((pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 0)), ONES)
@example((pt(0, 0), pt(1, 0), pt(Q(1, 2), 0), pt(2, 0)), ONES)
@example((pt(0, -1), pt(0, 1), pt(-1, 0), pt(0, 0)), ONES)
@given(QUADS, SCALES)
def test_integer_predicates_agree_with_fraction_references(quad, scales):
    _agree(*quad, *_scaled(quad, scales))


@given(QUADS, SCALES)
def test_perturbed_signs_agree_with_fraction_references(quad, scales):
    # each orientation segment_crossing decides on is the first nonzero
    # coefficient of base + c1*eps + c2*eps^2, with q or the segment shifted
    a1, a2, q, _ = quad
    h1, h2, hq, _ = _scaled(quad, scales)
    turn = orient(h1, h2, hq)
    assert (turn or _shift_sign(h1, h2)) == sgn_eps(
        *oracles._orient_coeffs_target_shifted(a1, a2, q))
    assert (turn or -_shift_sign(h1, h2)) == sgn_eps(
        *oracles._orient_coeffs_base_shifted(a1, a2, q))


# polygons whose vertices come from a small pool: points level with a
# vertex, on an edge or on an edge's line are common
POLYGONS = st.lists(GRID_POINT, min_size=1, max_size=4).flatmap(
    lambda pool: st.tuples(st.lists(st.sampled_from(pool), min_size=2,
                                    max_size=7), GRID_POINT))


@example(([pt(0, 0), pt(1, 1), pt(0, 1)], pt(Q(1, 2), Q(1, 2))), 1)  # on an edge
@example(([pt(0, 0), pt(1, 1), pt(0, 2)], pt(Q(-1, 2), 1)), 1)  # ray via a vertex
@given(POLYGONS, st.integers(1, 7))
def test_winding_number_agrees_with_fraction_reference(case, scale):
    poly, p = case
    scaled = [(x * scale, y * scale, w * scale) for x, y, w in h(*poly)]
    assert (winding_number(homog(p), scaled)
            == oracles.winding_number(p, poly))


# --------------------------------------------------------------------------
# real spiral segments
# --------------------------------------------------------------------------

W1 = load_config(str(resources.files("lefbench") / "scenarios" / "W1.cfg"))


def w1_spirals(resolution, m=2):
    """The W1 stage spirals of towers b:b (bent) and a:b at level m."""
    f, params = W1.fibration, W1.wrap._replace(resolution=resolution)
    return f, [wrap(f.crit_for(x).path, m, params, f.disc, bend=x == y)
               for x, y in (("b", "b"), ("a", "b"))]


def _near_pairs(n, resolution):
    """Segment index pairs of one spiral that come close: neighbours, and
    segments about one turn apart."""
    for i in range(n):
        for j in (i + 1, i + 2, i + resolution - 1, i + resolution,
                  i + resolution + 1):
            if j < n:
                yield i, j


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_integer_predicates_agree_on_spiral_segments(resolution):
    f, spirals = w1_spirals(resolution)
    paths = [c.path for c in f.crits]
    for spiral in spirals:
        vs = spiral.vertices
        hs = h(*vs)
        stride = 1 if resolution < 256 else 5
        for i, j in _near_pairs(len(vs) - 1, resolution):
            if i % stride == 0:
                _agree(vs[i], vs[i + 1], vs[j], vs[j + 1],
                       hs[i], hs[i + 1], hs[j], hs[j + 1])
        # against every segment of the fixed vanishing paths
        for path in paths:
            ps = path.vertices
            hp = h(*ps)
            for i in range(0, len(vs) - 1, stride):
                for k in range(len(ps) - 1):
                    _agree(vs[i], vs[i + 1], ps[k], ps[k + 1],
                           hs[i], hs[i + 1], hp[k], hp[k + 1])


@pytest.mark.parametrize("resolution", [16, 64, 256])
def test_spiral_chord_check_agrees_with_distance(resolution):
    f, spirals = w1_spirals(resolution)
    origin = pt(0, 0)
    max_punct = max(Q(x * x + y * y, w * w) for x, y, w in f.disc.hpoints)
    for spiral in spirals:
        vs = spiral.vertices[1:-1]
        hs = h(*vs)
        stride = 1 if resolution < 256 else 5
        for i in range(0, len(vs) - 1, stride):
            d2 = segment_point_dist2(origin, vs[i], vs[i + 1])
            for r2 in (max_punct, d2, d2 - TINY, d2 + TINY):
                assert (segment_near_origin(hs[i], hs[i + 1], r2)
                        == (d2 <= r2))


@given(QUADS, SCALES, st.fractions(min_value=0, max_value=2,
                                   max_denominator=64))
def test_chord_check_agrees_with_distance_on_the_grid(quad, scales, r2):
    # grid chords meet the radius exactly when r2 is their own distance
    a, b, _, _ = quad
    ha, hb, _, _ = _scaled(quad, scales)
    d2 = segment_point_dist2(pt(0, 0), a, b)
    for r in (r2, d2):
        assert segment_near_origin(ha, hb, r) == (d2 <= r)


@given(st.integers(-2000, 2000), st.integers(1, 1000))
def test_circle_hpoint_is_the_reference_circle_point(a, d):
    x, y, w = circle_hpoint(a, d)
    assert w > 0
    assert Pt(Q(x, w), Q(y, w)) == oracles.circle_point(Q(a, d))


@pytest.mark.parametrize("resolution", [5, 16, 64, 256])
@pytest.mark.parametrize("m", [0, 1, 3])
@pytest.mark.parametrize("bend", [False, True])
def test_wrap_builds_the_reference_spiral(resolution, m, bend):
    f = W1.fibration
    params = W1.wrap._replace(resolution=resolution)
    for crit in f.crits:
        arc = crit.path
        if bend and len(arc.vertices) != 2:
            continue
        w, _ = wrap_or_refusal(arc, m, params, f.disc, bend=bend)
        tau0 = arc.end.angle
        start = tau0 + (BEND if bend else 0)
        r_out, _ = source_annulus(arc, f.disc)
        expect = oracles.spiral_vertices(start, tau0 + m + params.delta, r_out,
                                         resolution)
        head = 1 if bend else len(arc.vertices) - 1
        assert list(w.vertices[head:-1]) == expect
        # the stored triples are exactly the reduced form of each point
        assert w.hverts == tuple(homog(v) for v in w.vertices)
