"""Boundary wrapping: spiral synthesis, collision guards, composition."""

import random
from fractions import Fraction as Q

import pytest

import scen

from lefbench.disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from lefbench.errors import (LefbenchError, NonEmbeddableInput,
                             SpiralCollision)
from lefbench.minpos import compute_crossings, find_empty_bigons
from lefbench import wrapping
from lefbench.wrapping import WrapParams, source_annulus, wrap

from oracles import (all_pairs_check_embedded, brute_crossing_count,
                     circle_point, homog, polyline_is_embedded,
                     puncture_points)
from scen import arc_through, hpt, point, pt

DELTA = Q(1, 64)
PARAMS = WrapParams(DELTA)


def main_disc():
    return DiscModel(punctures=(("a", hpt(Q(-1, 2), 0)),
                                ("b", hpt(Q(1, 2), 0))))


def wrapped(arc, m, params, disc, bend=False):
    """wrap, then the full check of the spiral wrap returns as proved."""
    w = wrap(arc, m, params, disc, bend=bend)
    w.validate(disc)
    return w


def wrap_or_refusal(arc, m, params, disc, bend=False):
    """(spiral, None) where wrap returns the spiral, and (spiral, error)
    where it refuses it: the spiral is caught at the PlanarArc.validate
    call that raised error."""
    checked = []
    validate = PlanarArc.validate

    def caught(self, d, pairs=None):
        checked.append(self)
        return validate(self, d, pairs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PlanarArc, "validate", caught)
        try:
            return wrap(arc, m, params, disc, bend=bend), None
        except LefbenchError as e:
            if not checked or checked[-1] is arc:
                raise
            return checked[-1], e


def ray_a(disc):
    arc = arc_through((pt(Q(-1, 2), 0), pt(-1, 0)),
                      Puncture("a"), BoundaryAngle(Q(1, 2)))
    arc.validate(disc)
    return arc


def ray_b(disc):
    arc = arc_through((pt(Q(1, 2), 0), pt(1, 0)),
                      Puncture("b"), BoundaryAngle(Q(0)))
    arc.validate(disc)
    return arc


def test_wrap_at_level_zero_only_shifts_the_endpoint():
    disc = main_disc()
    w = wrapped(ray_b(disc), 0, PARAMS, disc)
    assert w.end == BoundaryAngle(DELTA)
    assert w.vertices[0] == pt(Q(1, 2), 0)
    x, y, z = w.hverts[-1]
    assert x * x + y * y == z * z
    assert compute_crossings(w, ray_a(disc)) == []
    assert brute_crossing_count(w.vertices, ray_a(disc).vertices) == 0


@pytest.mark.parametrize("m,expected", [(1, 1), (2, 2), (3, 3)])
def test_wrapped_ray_crosses_opposite_ray_once_per_turn(m, expected):
    disc = main_disc()
    w = wrapped(ray_a(disc), m, PARAMS, disc)
    hits = compute_crossings(w, ray_b(disc))
    assert len(hits) == expected
    assert brute_crossing_count(w.vertices, ray_b(disc).vertices) == expected
    # every crossing sits on the positive x axis between puncture and boundary
    for p in (point(c.hpoint) for c in hits):
        assert p.y == 0 and Q(1, 2) < p.x < 1
    assert polyline_is_embedded(w.vertices)


@pytest.mark.parametrize("m,expected", [(0, 0), (1, 1), (2, 2), (3, 3)])
def test_bent_self_wrap_crosses_its_source_once_per_turn(m, expected):
    disc = main_disc()
    src = ray_b(disc)
    w = wrapped(src, m, PARAMS, disc, bend=True)
    assert w.vertices[0] == src.vertices[0]
    hits = compute_crossings(w, src)
    assert len(hits) == expected
    anchors = [(Q(1, 2), Q(0))]
    assert brute_crossing_count(w.vertices, src.vertices, anchors) == expected


def test_wrapped_crossings_are_pinned_by_punctures():
    """The spiral turns encircle every puncture, so none of the crossings
    with a ray bounds an empty lens: the pair is already minimal."""
    disc = main_disc()
    w = wrapped(ray_a(disc), 3, PARAMS, disc)
    b = ray_b(disc)
    assert list(find_empty_bigons(w, b, disc, compute_crossings(w, b))) == []


def test_double_wrap_matches_single_wrap_profile():
    disc = main_disc()
    once = wrapped(wrapped(ray_b(disc), 1, PARAMS, disc),
                   2, PARAMS, disc)
    flat = wrapped(ray_b(disc), 3, WrapParams(2 * DELTA), disc)
    assert once.end == flat.end
    target = ray_a(disc)
    assert (len(compute_crossings(once, target))
            == len(compute_crossings(flat, target)) == 3)


def test_bend_requires_radial_normal_form():
    disc = main_disc()
    dogleg = arc_through((pt(Q(1, 2), 0), pt(0, Q(1, 2)), pt(0, 1)),
                         Puncture("b"), BoundaryAngle(Q(1, 4)))
    dogleg.validate(disc)
    with pytest.raises(LefbenchError, match="radial normal form"):
        wrap(dogleg, 1, PARAMS, disc, bend=True)


def test_source_annulus_reads_entry_radius_and_puncture_radius():
    # r_out = (1 + (1 + s)/2)/2 for s the largest squared radius of a
    # puncture or a vertex before the boundary
    ray = arc_through((pt(Q(1, 2), 0), pt(1, 0)),
                      Puncture("q"), BoundaryAngle(Q(0)))
    bare = DiscModel(punctures=())
    assert source_annulus(ray, bare) == (Q(13, 16), Q(0))
    assert source_annulus(ray, main_disc()) == (Q(13, 16), Q(1, 4))
    down = arc_through((pt(0, 0), pt(0, -1)),
                       Puncture("c"), BoundaryAngle(Q(3, 4)))
    assert source_annulus(down, bare) == (Q(3, 4), Q(0))


def test_wrap_rejects_non_radial_tail():
    disc = main_disc()
    skew = arc_through((pt(Q(1, 2), Q(1, 4)), pt(1, 0)),
                       Puncture("b"), BoundaryAngle(Q(0)))
    with pytest.raises(LefbenchError,
                       match="terminal segment of the arc is not radial"):
        wrap(skew, 1, PARAMS, disc)


def test_wrap_rejects_inward_tail():
    # on the ray, but from the far side of the origin
    back = arc_through((pt(Q(-1, 2), 0), pt(1, 0)),
                       Puncture("a"), BoundaryAngle(Q(0)))
    with pytest.raises(LefbenchError, match="must point outward"):
        wrap(back, 1, PARAMS, main_disc())


def test_wrap_setup_is_derived_once_per_disc(monkeypatch):
    # the radial test is the set-up's one orient call
    seen = []
    orient = wrapping.orient
    monkeypatch.setattr(wrapping, "orient",
                        lambda *p: seen.append(p) or orient(*p))
    disc = main_disc()
    ray = ray_b(disc)
    first = wrap(ray, 1, PARAMS, disc)
    assert wrap(ray, 1, PARAMS, disc) == first
    wrap(ray, 2, PARAMS, disc, bend=True)
    # the grid is no part of the set-up: a second resolution derives nothing
    fine = wrap(ray, 1, PARAMS._replace(resolution=64), disc)
    assert len(fine.hverts) > len(first.hverts)
    assert len(seen) == 1            # once per (arc, disc), not per wrap
    assert wrap(ray, 1, PARAMS, main_disc()) == first     # an equal disc
    assert len(seen) == 2
    # a failing set-up records nothing: the error comes back every time
    skew = arc_through((pt(Q(1, 2), Q(1, 4)), pt(1, 0)),
                       Puncture("b"), BoundaryAngle(Q(0)))
    for _ in range(2):
        with pytest.raises(LefbenchError, match="radial"):
            wrap(skew, 1, PARAMS, disc)
    assert len(seen) == 4


def test_spiral_collision_resolved_by_finer_resolution():
    disc = DiscModel(punctures=(("hug", hpt(0, Q(99, 100))),))
    ray = arc_through((pt(0, Q(99, 100)), pt(0, 1)),
                      Puncture("hug"), BoundaryAngle(Q(1, 4)))
    ray.validate(disc)
    with pytest.raises(SpiralCollision, match="resolution"):
        wrap(ray, 1, PARAMS._replace(resolution=16), disc)

    w = wrapped(ray, 1, PARAMS._replace(resolution=64), disc)
    assert polyline_is_embedded(w.vertices)


@pytest.mark.parametrize("res", [1, 2])
def test_wrap_tests_every_chord_where_the_bow_bound_gives_nothing(
        monkeypatch, res):
    # below resolution 3 a grid chord may span half a turn, so the bow
    # bound clears no chord: each is tested exactly, here against a stub
    # that finds it clear, so that the spiral runs to its end
    tested = []
    monkeypatch.setattr(wrapping, "segment_near_origin",
                        lambda a, b, r2: tested.append((a, b)) and False)
    disc = main_disc()
    w, _ = wrap_or_refusal(ray_b(disc), 3, PARAMS._replace(resolution=res),
                           disc)
    spiral = w.hverts[1:-1]
    assert len(spiral) > 3
    assert tested == list(zip(spiral, spiral[1:]))


def test_wrap_keeps_spiral_clear_of_punctures():
    disc = main_disc()
    w = wrapped(ray_a(disc), 2, PARAMS, disc)
    # every vertex of the spiral proper stays strictly outside the puncture
    # radius, and the arc never meets a puncture other than its own anchor
    for x, y, z in w.hverts[1:]:
        assert 4 * (x * x + y * y) > z * z


# --------------------------------------------------------------------------
# the wedge proof of wrap against the full check and the all-pairs oracle
# --------------------------------------------------------------------------

def _full_check_error(spiral, disc):
    """The error of the full check of spiral in disc, None if it passes."""
    try:
        spiral._check(disc)
    except LefbenchError as e:
        return e
    return None


def test_wrap_certifies_no_spiral_that_crosses_the_head():
    # the head's corner lies at radius 0.78, so at resolution 5 the chords
    # that dip inside that radius are tested against the head; the one
    # that crosses its first segment meets neither the join nor the ends
    src = arc_through((pt(0, 0), pt(Q(-11, 20), Q(-11, 20)),
                       pt(0, Q(1, 2)), pt(0, 1)),
                      Puncture("o"), BoundaryAngle(Q(1, 4)))
    disc = DiscModel((("o", hpt(0, 0)),))
    w, e = wrap_or_refusal(src, 1, PARAMS._replace(resolution=5), disc)
    assert isinstance(e, NonEmbeddableInput)
    assert "between segments 0 and 5" in str(e)
    assert str(e) == str(_full_check_error(w, disc))


def test_wrap_certifies_no_bent_join_through_a_puncture():
    # the bent copy's first segment runs from b toward angle BEND at r_out
    # = 21/25 (the largest squared puncture radius is 9/25, of r); q sits
    # a quarter of the way along it
    b, edge = pt(Q(1, 2), 0), circle_point(wrapping.BEND)
    first = pt(Q(21, 25) * edge.x, Q(21, 25) * edge.y)
    q = pt(b.x + (first.x - b.x) / 4, b.y + (first.y - b.y) / 4)
    disc = DiscModel((("b", homog(b)), ("r", hpt(Q(-3, 5), 0)),
                      ("q", homog(q))))
    src = arc_through((b, pt(1, 0)), Puncture("b"), BoundaryAngle(Q(0)))
    w, e = wrap_or_refusal(src, 1, PARAMS, disc, bend=True)
    assert w.hverts[1] == homog(first)
    assert "passes through puncture 'q'" in str(e)
    assert str(e) == str(_full_check_error(w, disc))


def _radial_fan(rng):
    """A seeded disc of punctures rho * circle_point(tau), each with its
    straight radial path out to tau, and each path also drawn with a corner
    before it turns onto its ray at radius 9/10."""
    taus = rng.sample(range(52), rng.randint(1, 5))
    disc = DiscModel(tuple(
        (f"p{i}", hpt(Q(rho, 20) * c.x, Q(rho, 20) * c.y))
        for i, (tau, rho) in enumerate(
            (t, rng.randint(0, 17)) for t in taus)
        for c in [circle_point(Q(tau, 52))]))
    for (name, p), tau in zip(puncture_points(disc), taus):
        edge = circle_point(Q(tau, 52))
        end = BoundaryAngle(Q(tau, 52))
        yield disc, arc_through((p, edge), Puncture(name), end), True
        corner = pt(Q(rng.randint(-17, 17), 20), Q(rng.randint(-17, 17), 20))
        yield disc, arc_through((p, corner, pt(Q(9, 10) * edge.x,
                                                Q(9, 10) * edge.y), edge),
                                Puncture(name), end), False


def _wrap_sources():
    """(disc, source, bend) of every wrappable vanishing path of W0 and W1,
    bent where it is one segment, then of seeded radial fans, some of whose
    sources are no legal arc."""
    for v in ("W0", "W1"):
        for f in (scen.main_fibration(v), scen.aux_fibration(v)):
            for c in f.crits:
                for bend in (False, True):
                    try:
                        source_annulus(c.path, f.disc, bend)
                    except LefbenchError:
                        continue
                    yield f.disc, c.path, bend
    for seed in range(12):
        yield from _radial_fan(random.Random(seed))


def test_wrap_certifies_exactly_the_spirals_the_full_check_accepts():
    # per source, draws of resolution and of level 0-16: a returned spiral
    # passes PlanarArc._check and, up to 64 segments, the all-pairs oracle;
    # a refused one is refused with the error of the full check, byte for
    # byte, which wrap's proof reaches over the pairs it leaves open
    census = {21: ((1, 64), (1, 64), (3, 8), (3, 8)),
              8: ((1, 64), (3, 8), (3, 8), (3, 8), (3, 8))}
    expect = {21: (118, 133, 109, 38), 8: (81, 177, 192, 31)}
    for seed, draws in census.items():
        rng = random.Random(seed)
        seen = dict.fromkeys(("returned", "refused", "collision", "oracle"),
                             0)
        for disc, source, bend in _wrap_sources():
            for lo, hi in draws:
                res, m = rng.randint(lo, hi), rng.randint(0, 16)
                grid = PARAMS._replace(resolution=res)
                try:
                    w, e = wrap_or_refusal(source, m, grid, disc, bend=bend)
                except SpiralCollision:
                    seen["collision"] += 1
                    continue
                full = _full_check_error(w, disc)
                if e is not None:
                    assert (type(e), str(e)) == (type(full), str(full)), (
                        seed, res, m, bend, source)
                    seen["refused"] += 1
                    continue
                assert full is None, (seed, res, m, bend, source)
                seen["returned"] += 1
                if len(w.hverts) <= 65:
                    all_pairs_check_embedded(w)
                    seen["oracle"] += 1
        assert tuple(seen.values()) == expect[seed], seed
    assert sum(expect[seed][1] for seed in census) >= 300


def test_spiral_vertex_count_is_the_length_of_the_spiral():
    # render sums these counts against the budget before it wraps a spiral
    rng = random.Random(5)
    checked = 0
    for disc, source, bend in _wrap_sources():
        res, m = rng.randint(1, 64), rng.randint(0, 16)
        grid = PARAMS._replace(resolution=res)
        try:
            w, _ = wrap_or_refusal(source, m, grid, disc, bend=bend)
        except SpiralCollision:
            continue
        assert wrapping.spiral_vertex_count(source, m, grid,
                                            bend) == len(w.hverts)
        checked += 1
    assert checked > 30
