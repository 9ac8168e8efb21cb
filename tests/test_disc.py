"""Disc model and arc validation."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from lefbench.disc import (ArcKind, BoundaryAngle, DiscModel, PlanarArc,
                           Puncture, WrapSpec, radial_split)
from lefbench.errors import LefbenchError, NonEmbeddableInput
from lefbench.exactgeom import pt

from oracles import all_pairs_check_embedded, polyline_is_embedded

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


def test_disc_rejects_duplicate_names():
    with pytest.raises(LefbenchError, match="duplicate"):
        DiscModel(punctures=(("p", pt(0, 0)), ("p", pt(Q(1, 2), 0))))


def test_disc_rejects_coincident_points():
    with pytest.raises(LefbenchError, match="coincident"):
        DiscModel(punctures=(("p", pt(0, 0)), ("q", pt(0, 0))))


def test_disc_rejects_boundary_puncture():
    with pytest.raises(LefbenchError, match="strictly inside"):
        DiscModel(punctures=(("p", pt(1, 0)),))


def test_point_of_unknown_puncture():
    with pytest.raises(LefbenchError, match="unknown"):
        two_puncture_disc().point_of("nope")


def test_matching_arc_validates():
    disc = two_puncture_disc()
    arc = PlanarArc((pt(Q(-1, 2), 0), pt(0, Q(1, 4)), pt(Q(1, 2), 0)),
                    Puncture("p"), Puncture("q"), ArcKind.MATCHING)
    arc.validate(disc)


def test_endpoint_anchor_must_match_vertex():
    disc = two_puncture_disc()
    arc = PlanarArc((pt(0, 0), pt(Q(1, 2), 0)),
                    Puncture("p"), Puncture("q"), ArcKind.MATCHING)
    with pytest.raises(LefbenchError, match="does not match puncture"):
        arc.validate(disc)


def test_boundary_endpoint_must_be_realized_exactly():
    disc = two_puncture_disc()
    arc = PlanarArc((pt(Q(1, 2), 0), pt(Q(99, 100), 0)),
                    Puncture("q"), BoundaryAngle(Q(0)), ArcKind.VANISHING)
    with pytest.raises(LefbenchError, match="realize boundary angle"):
        arc.validate(disc)


def test_interior_vertex_must_stay_inside():
    disc = two_puncture_disc()
    arc = PlanarArc((pt(Q(1, 2), 0), pt(2, 2), pt(1, 0)),
                    Puncture("q"), BoundaryAngle(Q(0)), ArcKind.VANISHING)
    with pytest.raises(LefbenchError, match="strictly inside"):
        arc.validate(disc)


def test_arc_may_not_pass_through_a_puncture():
    disc = two_puncture_disc()
    arc = PlanarArc((pt(-1, 0), pt(1, 0)),
                    BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    with pytest.raises(LefbenchError, match="passes through puncture"):
        arc.validate(disc)


def test_self_crossing_arc_is_rejected():
    disc = two_puncture_disc()
    arc = PlanarArc((pt(-1, 0), pt(Q(1, 4), Q(1, 4)), pt(Q(1, 4), Q(-1, 4)),
                     pt(Q(-1, 4), Q(1, 4)), pt(1, 0)),
                    BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    with pytest.raises(NonEmbeddableInput, match="self-intersects"):
        arc.validate(disc)


def test_fold_back_is_rejected():
    disc = two_puncture_disc()
    arc = PlanarArc((pt(Q(1, 2), 0), pt(Q(3, 4), 0), pt(Q(5, 8), 0), pt(1, 0)),
                    Puncture("q"), BoundaryAngle(Q(0)), ArcKind.VANISHING)
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
    arc = PlanarArc(tuple(vertices), BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    got = _embedding_error(PlanarArc._check_embedded, arc)
    assert (got is None) == polyline_is_embedded(vertices)
    # the same first contact is reported as by the scan over all pairs
    assert got == _embedding_error(all_pairs_check_embedded, arc)


def test_kind_constraints():
    disc = two_puncture_disc()
    bad = PlanarArc((pt(Q(-1, 2), 0), pt(Q(1, 2), 0)),
                    Puncture("p"), Puncture("q"), ArcKind.VANISHING)
    with pytest.raises(LefbenchError, match="one puncture and one boundary"):
        bad.validate(disc)
    bad2 = PlanarArc((pt(0, 1), pt(0, -1)),
                     BoundaryAngle(Q(1, 4)), BoundaryAngle(Q(3, 4)),
                     ArcKind.MATCHING)
    with pytest.raises(LefbenchError, match="two puncture endpoints"):
        bad2.validate(disc)
    bad3 = PlanarArc((pt(Q(1, 2), 0), pt(1, 0)),
                     Puncture("q"), BoundaryAngle(Q(0)), ArcKind.WRAPPED)
    with pytest.raises(LefbenchError, match="wrap level"):
        bad3.validate(disc)


def test_radial_split_reads_angle_and_radius():
    arc = PlanarArc((pt(Q(1, 2), 0), pt(1, 0)),
                    Puncture("q"), BoundaryAngle(Q(0)), ArcKind.VANISHING)
    assert radial_split(arc) == (Q(0), Q(1, 2))
    down = PlanarArc((pt(0, 0), pt(0, -1)),
                     Puncture("c"), BoundaryAngle(Q(3, 4)), ArcKind.VANISHING)
    assert radial_split(down) == (Q(3, 4), Q(0))


def test_radial_split_rejects_non_radial_tail():
    arc = PlanarArc((pt(Q(1, 2), Q(1, 4)), pt(1, 0)),
                    Puncture("q"), BoundaryAngle(Q(0)), ArcKind.VANISHING)
    with pytest.raises(LefbenchError, match="not radial"):
        radial_split(arc)


def test_radial_split_rejects_inward_tail():
    arc = PlanarArc((pt(Q(-1, 2), 0), pt(1, 0)),
                    Puncture("p"), BoundaryAngle(Q(0)))
    with pytest.raises(LefbenchError, match="outward"):
        radial_split(arc)


def test_wrap_spec_bounds():
    WrapSpec(3, Q(1, 64), bend=Q(1, 128))
    with pytest.raises(LefbenchError):
        WrapSpec(-1, Q(1, 64), Q(1, 128))
    with pytest.raises(LefbenchError):
        WrapSpec(1, Q(0), Q(1, 128))
    with pytest.raises(LefbenchError):
        WrapSpec(1, Q(1, 64), bend=Q(1, 64))


def test_boundary_angle_normalizes():
    assert BoundaryAngle(Q(9, 8)).angle == Q(1, 8)
    assert BoundaryAngle(Q(-1, 4)).angle == Q(3, 4)
