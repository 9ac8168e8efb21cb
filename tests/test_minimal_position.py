"""Crossing computation, bigon elimination, intersection profiles.

Expected counts here are frozen from the naive quadratic sweep in
tests/oracles.py, which shares no code with the library.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from lefbench.disc import ArcKind, BoundaryAngle, DiscModel, PlanarArc, Puncture
from lefbench.errors import (DegenerateTangency, LefbenchError,
                             SharedBoundaryEndpoint)
from lefbench.exactgeom import point_on_segment, pt
from lefbench.minpos import (compute_crossings, eliminate_bigon,
                             find_empty_bigons, intersection_profile,
                             minimal_position)

from oracles import GenericityError, all_pairs_crossings, brute_crossing_count
from test_disc import GRID_POLYLINES, no_zero_length


def disc_pq(extra=()):
    return DiscModel(punctures=(("p", pt(Q(-1, 2), 0)), ("q", pt(Q(1, 2), 0)))
                     + tuple(extra))


def matching(disc, vertices, a="p", b="q"):
    arc = PlanarArc(tuple(vertices), Puncture(a), Puncture(b), ArcKind.MATCHING)
    arc.validate(disc)
    return arc


def test_two_diameters_cross_once():
    disc = DiscModel(punctures=(("w", pt(Q(1, 4), Q(1, 8))),))
    horizontal = PlanarArc((pt(-1, 0), pt(1, 0)),
                           BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    vertical = PlanarArc((pt(0, 1), pt(0, -1)),
                         BoundaryAngle(Q(1, 4)), BoundaryAngle(Q(3, 4)))
    prof = intersection_profile(horizontal, vertical, disc)
    assert prof.crossing_count == 1
    assert prof.interior_crossings == (pt(0, 0),)
    assert prof.shared_punctures == ()
    assert brute_crossing_count(horizontal.vertices, vertical.vertices) == 1


def test_disjoint_matchings_share_only_punctures():
    disc = disc_pq()
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    detour = matching(disc, [pt(Q(-1, 2), 0), pt(Q(-3, 8), Q(-3, 8)),
                             pt(Q(3, 8), Q(-3, 8)), pt(Q(1, 2), 0)])
    prof = intersection_profile(straight, detour, disc)
    assert prof.crossing_count == 0
    assert prof.shared_punctures == ("p", "q")
    anchors = [(Q(-1, 2), Q(0)), (Q(1, 2), Q(0))]
    assert brute_crossing_count(straight.vertices, detour.vertices,
                                anchors) == 0


def wiggle_pair(extra_punctures=()):
    disc = disc_pq(extra_punctures)
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    wiggle = matching(disc, [pt(Q(-1, 2), 0), pt(Q(-1, 4), Q(1, 4)),
                             pt(0, Q(-1, 4)), pt(Q(1, 4), Q(1, 4)),
                             pt(Q(1, 2), 0)])
    return disc, straight, wiggle


def test_pushed_off_copy_reduces_to_disjoint():
    disc, straight, wiggle = wiggle_pair()
    assert len(compute_crossings(straight, wiggle)) == 2
    anchors = [(Q(-1, 2), Q(0)), (Q(1, 2), Q(0))]
    assert brute_crossing_count(straight.vertices, wiggle.vertices,
                                anchors) == 2

    bigons = find_empty_bigons(straight, wiggle, disc)
    assert len(bigons) == 1

    a2, b2 = minimal_position(straight, wiggle, disc)
    prof = intersection_profile(a2, b2, disc)
    assert prof.crossing_count == 0
    assert prof.shared_punctures == ("p", "q")
    assert brute_crossing_count(a2.vertices, b2.vertices, anchors) == 0


def test_puncture_inside_lens_blocks_elimination():
    disc, straight, wiggle = wiggle_pair(extra_punctures=(("z", pt(0, Q(-1, 8))),))
    assert len(compute_crossings(straight, wiggle)) == 2
    assert find_empty_bigons(straight, wiggle, disc) == []
    a2, b2 = minimal_position(straight, wiggle, disc)
    assert intersection_profile(a2, b2, disc).crossing_count == 2


def test_profile_is_symmetric():
    disc, straight, wiggle = wiggle_pair()
    p1 = intersection_profile(straight, wiggle, disc)
    p2 = intersection_profile(wiggle, straight, disc)
    assert p1 == p2


def subdivide(arc):
    vs = list(arc.vertices)
    out = [vs[0]]
    for a, b in zip(vs, vs[1:]):
        out.append(pt((a.x + b.x) / 2, (a.y + b.y) / 2))
        out.append(b)
    return arc.with_vertices(tuple(out))


def test_profile_invariant_under_refinement():
    disc, straight, wiggle = wiggle_pair()
    base = intersection_profile(straight, wiggle, disc)
    fine = intersection_profile(subdivide(straight), subdivide(subdivide(wiggle)),
                                disc)
    assert fine == base


def test_identical_arcs_are_degenerate():
    disc = disc_pq()
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    with pytest.raises(DegenerateTangency):
        compute_crossings(straight, straight)


def test_pinned_collinear_departure_is_degenerate():
    disc = disc_pq()
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    hugging = matching(disc, [pt(Q(-1, 2), 0), pt(Q(-1, 4), 0),
                              pt(0, Q(1, 4)), pt(Q(1, 2), 0)])
    with pytest.raises(DegenerateTangency, match="shared puncture"):
        compute_crossings(straight, hugging)


def test_unpinned_collinear_overlap_resolves():
    """Two arcs sharing a collinear stretch away from any puncture: the
    perturbation turns the overlap into two transverse corner crossings and
    bigon elimination then pulls the arcs apart."""
    disc = DiscModel(punctures=(("w", pt(0, Q(1, 2))),))
    a = PlanarArc((pt(-1, 0), pt(Q(-1, 2), Q(-1, 4)), pt(Q(1, 2), Q(-1, 4)),
                   pt(1, 0)),
                  BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    b = PlanarArc((pt(Q(-4, 5), Q(-3, 5)), pt(Q(-3, 4), Q(-1, 4)),
                   pt(Q(3, 4), Q(-1, 4)), pt(Q(4, 5), Q(-3, 5))),
                  BoundaryAngle(Q(5, 8)), BoundaryAngle(Q(7, 8)))
    a.validate(disc)
    b.validate(disc)
    crossings = compute_crossings(a, b)
    assert sorted(c.point for c in crossings) == [pt(Q(-1, 2), Q(-1, 4)),
                                                  pt(Q(1, 2), Q(-1, 4))]
    a2, b2 = minimal_position(a, b, disc)
    assert intersection_profile(a2, b2, disc).crossing_count == 0


def test_shared_boundary_endpoint_rejected():
    disc = disc_pq()
    a = PlanarArc((pt(Q(1, 2), 0), pt(1, 0)),
                  Puncture("q"), BoundaryAngle(Q(0)), ArcKind.VANISHING)
    b = PlanarArc((pt(Q(-1, 2), 0), pt(0, Q(-1, 2)), pt(1, 0)),
                  Puncture("p"), BoundaryAngle(Q(0)), ArcKind.VANISHING)
    with pytest.raises(SharedBoundaryEndpoint):
        intersection_profile(a, b, disc)


# ---------------------------------------------------------------------------
# box-pruned crossings against the all-pairs references
# ---------------------------------------------------------------------------

ANCHOR = pt(0, 0)


def _crossings_or_error(fn, a, b):
    try:
        return fn(a, b)
    except LefbenchError as exc:
        return type(exc)


@settings(max_examples=250, deadline=None)
@given(GRID_POLYLINES, GRID_POLYLINES, st.booleans())
def test_box_pruned_crossings_match_oracles(va, vb, pinned):
    """Random grid polylines, optionally pinned together at a shared
    puncture at their first vertex."""
    if pinned:
        va, vb = [ANCHOR] + va[1:], [ANCHOR] + vb[1:]
        assume(no_zero_length(va) and no_zero_length(vb))
        start_a = start_b = Puncture("p")
    else:
        start_a, start_b = BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(1, 4))
    a = PlanarArc(tuple(va), start_a, BoundaryAngle(Q(0)))
    b = PlanarArc(tuple(vb), start_b, BoundaryAngle(Q(3, 4)))

    got = _crossings_or_error(compute_crossings, a, b)
    assert got == _crossings_or_error(all_pairs_crossings, a, b)
    if isinstance(got, type):
        return
    if pinned and any(point_on_segment(ANCHOR, p, q)
                      for arc in (a, b) for p, q in arc.segments()[1:]):
        return  # the naive counter would excuse these contacts too
    try:
        expected = brute_crossing_count(va, vb, [ANCHOR] if pinned else [])
    except GenericityError:
        return
    assert len(got) == expected


# ---------------------------------------------------------------------------
# randomized order-independence of bigon elimination
# ---------------------------------------------------------------------------

def random_band_pair(rng):
    """Two x-monotone arcs over a shared grid, endpoints pinned at punctures.

    With no puncture between them every bigon is empty, so repeated
    elimination must always land on the crossing parity of the start."""
    n = rng.randint(3, 6)
    xs = [Q(-3, 4) + Q(3, 2) * Q(i, n) for i in range(n + 1)]

    def heights():
        return [Q(rng.randint(-24, 24), 64) for _ in range(n + 1)]

    f = heights()
    g = heights()
    while any(a == b for a, b in zip(f, g)):
        g = heights()

    disc = DiscModel(punctures=(("fL", pt(xs[0], f[0])), ("fR", pt(xs[-1], f[-1])),
                                ("gL", pt(xs[0], g[0])), ("gR", pt(xs[-1], g[-1]))))
    fa = PlanarArc(tuple(pt(x, y) for x, y in zip(xs, f)),
                   Puncture("fL"), Puncture("fR"), ArcKind.MATCHING)
    ga = PlanarArc(tuple(pt(x, y) for x, y in zip(xs, g)),
                   Puncture("gL"), Puncture("gR"), ArcKind.MATCHING)
    fa.validate(disc)
    ga.validate(disc)
    return disc, fa, ga


@pytest.mark.parametrize("seed", range(100))
def test_random_elimination_order_reaches_parity(seed):
    rng = random.Random(seed)
    disc, f, g = random_band_pair(rng)

    start = len(compute_crossings(f, g))
    diffs = [fi.y - gi.y for fi, gi in zip(f.vertices, g.vertices)]
    sign_changes = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert start == sign_changes
    assert brute_crossing_count(f.vertices, g.vertices) == start

    # randomized elimination order
    rf, rg = f, g
    crossings = compute_crossings(rf, rg)
    while True:
        bigons = find_empty_bigons(rf, rg, disc, crossings)
        if not bigons:
            break
        rf, rg, crossings = eliminate_bigon(rf, rg, rng.choice(bigons), disc,
                                            len(crossings))
        # the surgery hands back the crossings of the new pair, in its order
        assert crossings == compute_crossings(rf, rg)
    final = len(crossings)
    assert final == start % 2

    # canonical order agrees
    cf, cg = minimal_position(f, g, disc)
    assert len(compute_crossings(cf, cg)) == final
