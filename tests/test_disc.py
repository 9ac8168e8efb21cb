"""Disc model and arc validation."""

import functools
import random
from fractions import Fraction as Q
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

import lefbench.disc
from lefbench.config import load_config
from lefbench.disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from lefbench.errors import LefbenchError, NonEmbeddableInput, SpiralCollision
from lefbench.exactgeom import point_on_segment, segment_box
from lefbench.fibration import TotalSpaceFiber

from oracles import all_pairs_check_embedded, polyline_is_embedded
from scen import arc_through, fan, hpt, pt
from test_wrap import PARAMS, _wrap_sources, wrap_or_refusal

# a coarse grid: boxes often touch exactly, and collinear, T- and endpoint
# contacts are common
GRID_POINTS = st.builds(lambda x, y: pt(Q(x, 4), Q(y, 4)),
                        st.integers(-4, 4), st.integers(-4, 4))


def no_zero_length(vertices):
    return all(p != q for p, q in zip(vertices, vertices[1:]))


GRID_POLYLINES = st.lists(GRID_POINTS, min_size=2,
                          max_size=9).filter(no_zero_length)


def two_puncture_disc():
    return DiscModel(punctures=(("p", hpt(Q(-1, 2), 0)),
                                ("q", hpt(Q(1, 2), 0))))


def test_disc_rejects_coincident_points():
    with pytest.raises(LefbenchError, match="coincident"):
        DiscModel(punctures=(("p", hpt(0, 0)), ("q", hpt(0, 0))))


def test_disc_rejects_boundary_puncture():
    with pytest.raises(LefbenchError, match="strictly inside"):
        DiscModel(punctures=(("p", hpt(1, 0)),))


def test_point_of_unknown_puncture():
    with pytest.raises(LefbenchError, match="unknown"):
        two_puncture_disc().hpoint_of("nope")


def test_matching_arc_validates():
    disc = two_puncture_disc()
    arc = arc_through((pt(Q(-1, 2), 0), pt(0, Q(1, 4)), pt(Q(1, 2), 0)),
                      Puncture("p"), Puncture("q"))
    arc.validate(disc)


@functools.cache
def _built_arcs():
    """(arc, disc) of every arc the builders make: the crit paths and
    objects config loading builds for the shipped scenarios, inner
    fibrations included, and the spirals wrap builds in the wrap census."""
    built = []
    for name in ("W0", "W1", "ts3", "empty-fibration"):
        f = load_config(resources.files("lefbench") / "scenarios"
                        / f"{name}.cfg").fibration
        while True:
            built += [(c.path, f.disc) for c in f.crits]
            built += [(o.path, f.disc) for o in f.objects]
            if not isinstance(f.fiber, TotalSpaceFiber):
                break
            f = f.fiber.fibration
    assert len(built) == 19

    # the draws of the wrap census in test_wrap at seed 21: its 118
    # returned and 133 refused spirals
    rng = random.Random(21)
    for disc, source, bend in _wrap_sources():
        for lo, hi in ((1, 64), (1, 64), (3, 8), (3, 8)):
            res, m = rng.randint(lo, hi), rng.randint(0, 16)
            grid = PARAMS._replace(resolution=res)
            try:
                spiral, _ = wrap_or_refusal(source, m, grid, disc, bend=bend)
            except SpiralCollision:
                continue
            built.append((spiral, disc))
    assert len(built) == 19 + 118 + 133
    return tuple(built)


def _ends(arc):
    return zip((arc.start, arc.end), (arc.hverts[0], arc.hverts[-1]))


def test_endpoint_anchor_must_match_vertex():
    # no check reads an arc's ends again: config loading and wrap put each
    # puncture end on its puncture's point where the arc is made
    for arc, disc in _built_arcs():
        anchored = [(e, v) for e, v in _ends(arc) if isinstance(e, Puncture)]
        assert anchored, arc
        for e, v in anchored:
            assert v == disc.hpoint_of(e.name), (arc, e)


def test_boundary_endpoint_must_be_realized_exactly():
    # the boundary side: each boundary end is its angle's exact point
    boundary = 0
    for arc, _ in _built_arcs():
        for e, v in _ends(arc):
            if isinstance(e, BoundaryAngle):
                assert v == e.hpoint, (arc, e)
                boundary += 1
    assert boundary == 265


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


def test_punctures_are_tested_only_where_x_keys_meet(monkeypatch):
    # the guard of the puncture keys: a puncture is tested against a
    # segment at most once, and only if its x floor key lies in the
    # segment's, never against every segment of every arc
    f = fan(random.Random(3), 64, width=80)
    calls = []

    def counted(p, a, b):
        calls.append((p, a, b))
        return point_on_segment(p, a, b)
    monkeypatch.setattr(lefbench.disc, "point_on_segment", counted)
    for c in f.crits:
        c.path.validate(f.disc)
    assert len(calls) == len(set(calls))
    for p, a, b in calls:
        x0, x1, _, _ = segment_box(a, b)
        assert x0 <= segment_box(p, p)[0] <= x1
    boxes = [box for c in f.crits for box in c.path.boxes]
    keys = [segment_box(p, p)[0] for p in f.disc.hpoints]
    meeting = sum(x0 <= k <= x1 for k in keys for x0, x1, _, _ in boxes)
    assert 0 < len(calls) <= meeting < len(keys) * len(boxes)


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
