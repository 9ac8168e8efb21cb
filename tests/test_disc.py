"""Disc model and arc validation."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from lefbench.disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from lefbench.errors import LefbenchError, NonEmbeddableInput

from oracles import all_pairs_check_embedded, polyline_is_embedded
from scen import arc_through, pt

# a coarse grid: boxes often touch exactly, and collinear, T- and endpoint
# contacts are common
GRID_POINTS = st.builds(lambda x, y: pt(Q(x, 4), Q(y, 4)),
                        st.integers(-4, 4), st.integers(-4, 4))


def no_zero_length(vertices):
    return all(p != q for p, q in zip(vertices, vertices[1:]))


GRID_POLYLINES = st.lists(GRID_POINTS, min_size=2,
                          max_size=9).filter(no_zero_length)


def two_puncture_disc():
    return DiscModel(punctures=(("p", pt(Q(-1, 2), 0)), ("q", pt(Q(1, 2), 0))))


def test_disc_rejects_coincident_points():
    with pytest.raises(LefbenchError, match="coincident"):
        DiscModel(punctures=(("p", pt(0, 0)), ("q", pt(0, 0))))


def test_disc_rejects_boundary_puncture():
    with pytest.raises(LefbenchError, match="strictly inside"):
        DiscModel(punctures=(("p", pt(1, 0)),))


def test_point_of_unknown_puncture():
    with pytest.raises(LefbenchError, match="unknown"):
        two_puncture_disc().hpoint_of("nope")


def test_matching_arc_validates():
    disc = two_puncture_disc()
    arc = arc_through((pt(Q(-1, 2), 0), pt(0, Q(1, 4)), pt(Q(1, 2), 0)),
                      Puncture("p"), Puncture("q"))
    arc.validate(disc)


def test_endpoint_anchor_must_match_vertex():
    disc = two_puncture_disc()
    arc = arc_through((pt(0, 0), pt(Q(1, 2), 0)),
                      Puncture("p"), Puncture("q"))
    with pytest.raises(LefbenchError, match="does not match puncture"):
        arc.validate(disc)


def test_boundary_endpoint_must_be_realized_exactly():
    disc = two_puncture_disc()
    arc = arc_through((pt(Q(1, 2), 0), pt(Q(99, 100), 0)),
                      Puncture("q"), BoundaryAngle(Q(0)))
    with pytest.raises(LefbenchError, match="realize boundary angle"):
        arc.validate(disc)


def test_interior_vertex_must_stay_inside():
    disc = two_puncture_disc()
    # outside, and exactly on the unit circle
    for v in (pt(2, 2), pt(Q(3, 5), Q(4, 5))):
        arc = arc_through((pt(Q(1, 2), 0), v, pt(1, 0)),
                          Puncture("q"), BoundaryAngle(Q(0)))
        with pytest.raises(LefbenchError, match="strictly inside"):
            arc.validate(disc)


def test_arc_may_not_pass_through_a_puncture():
    disc = two_puncture_disc()
    arc = arc_through((pt(-1, 0), pt(1, 0)),
                      BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    with pytest.raises(LefbenchError, match="passes through puncture"):
        arc.validate(disc)


def test_self_crossing_arc_is_rejected():
    disc = two_puncture_disc()
    arc = arc_through((pt(-1, 0), pt(Q(1, 4), Q(1, 4)), pt(Q(1, 4), Q(-1, 4)),
                       pt(Q(-1, 4), Q(1, 4)), pt(1, 0)),
                      BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    with pytest.raises(NonEmbeddableInput, match="self-intersects"):
        arc.validate(disc)


def test_fold_back_is_rejected():
    disc = two_puncture_disc()
    arc = arc_through(
        (pt(Q(1, 2), 0), pt(Q(3, 4), 0), pt(Q(5, 8), 0), pt(1, 0)),
        Puncture("q"), BoundaryAngle(Q(0)))
    with pytest.raises(NonEmbeddableInput, match="folds back"):
        arc.validate(disc)


def _embedding_error(check, arc):
    try:
        check(arc)
    except NonEmbeddableInput as exc:
        return str(exc)
    return None


@settings(max_examples=250, deadline=None)
@given(GRID_POLYLINES)
def test_box_pruned_embedding_check_matches_oracles(vertices):
    arc = arc_through(tuple(vertices),
                      BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    got = _embedding_error(PlanarArc._check_embedded, arc)
    assert (got is None) == polyline_is_embedded(vertices)
    # the same first contact is reported as by the scan over all pairs
    assert got == _embedding_error(all_pairs_check_embedded, arc)


def test_boundary_angle_normalizes():
    assert BoundaryAngle(Q(9, 8)).angle == Q(1, 8)
    assert BoundaryAngle(Q(-1, 4)).angle == Q(3, 4)


# ints and Fractions of either sign, beyond a turn, with large denominators
ANY_ANGLES = (st.integers(-10**6, 10**6)
              | st.fractions(max_denominator=10**30)
              | st.builds(Q, st.integers(-10**40, 10**40),
                          st.integers(1, 10**30)))


@given(ANY_ANGLES)
def test_boundary_angle_reduces_on_integers_like_fraction_modulo(a):
    # reference: the Fraction remainder of a modulo one turn
    ref = Q(a) % 1
    angle = BoundaryAngle(a)
    assert angle == BoundaryAngle(ref)
    assert hash(angle) == hash(BoundaryAngle(ref))
    assert angle.angle == ref and 0 <= angle.angle < 1
    assert angle.hpoint == BoundaryAngle(ref).hpoint
    # an angle already in [0, 1) is kept as given
    assert BoundaryAngle(ref).angle is ref
