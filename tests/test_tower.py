"""Wrapped-complex stage counts and tower assembly on the shipped
scenarios and on seeded fibrations, cross-checked against the counts on
wrapped spirals and on words in the cuts, plus the bookkeeping guards."""

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as Q

import pytest

import oracles
import scen
from oracles import homog
from lefbench.disc import BoundaryAngle, DiscModel
from lefbench.errors import (Inconsistent, LefbenchError, NonEmbeddableInput,
                             SpiralCollision)
from lefbench.exactgeom import Pt, min_angular_gap
from lefbench.fibration import Crit
from lefbench.minpos import minimal_position
from lefbench.rank_calculus import FsHomRanks, fs_hom_ranks
from lefbench.tower import WrappedComplexStage, build_stage, build_tower
from lefbench.wrapping import BEND, WrapParams, wrap

PARAMS = WrapParams()     # delta 1/64, levels 0-3


def crits_of(f, x, y):
    """The Crits over the punctures of the tower x:y."""
    return f.crit_for(x), f.crit_for(y)


def _build(f, x, y, m, fs):
    return build_stage(f, *crits_of(f, x, y), m, fs)


def _stage(variant, x, y, m, f=None):
    f = f if f is not None else scen.full_main_fibration(variant)
    return _build(f, x, y, m, fs_hom_ranks(f))


def inventory(stage):
    """A stage's combinatorial content: its crossings, block rank and u,
    stable under refinement of the boundary grid, which moves crossing
    points slightly but cannot change what they contribute."""
    return stage.crossings, stage.block, stage.u_count


def crossing_points(f, x, y, m):
    """The crossing points of the stage x:y at level m in minimal position:
    its spiral, wrapped and validated here, against y's vanishing path."""
    spiral = wrap(f.crit_for(x).path, m, PARAMS, f.disc, bend=x == y)
    spiral.validate(f.disc)
    return sorted(scen.point(c.hpoint) for c in minimal_position(
        spiral, f.crit_for(y).path, f.disc))


def counts(tower):
    return [(s.m, s.count) for s in tower]


# --------------------------------------------------------------------------
# inventories
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["W0", "W1"])
@pytest.mark.parametrize("thimble", ["a", "b"])
def test_self_tower_inventory(variant, thimble):
    for m in range(4):
        s = _stage(variant, thimble, thimble, m)
        assert s.count == 2 * m + 1
        # the block rank is asked for only when the paths cross
        assert inventory(s) == (m, 2 if m else 0, 1)


@pytest.mark.parametrize("variant", ["W0", "W1"])
def test_mixed_tower_inventory(variant):
    for m in range(4):
        s = _stage(variant, "a", "b", m)
        assert s.count == 2 * m
        assert inventory(s) == (m, 2 if m else 0, 0)
    assert _stage(variant, "a", "b", 0).count == 0


def test_stage_certificates():
    for variant in ("W0", "W1"):
        assert _stage(variant, "b", "b", 0).rank_certificate == 1
        assert _stage(variant, "b", "b", 1).rank_certificate == 3
        assert _stage(variant, "a", "a", 1).rank_certificate == 3
        assert _stage(variant, "a", "b", 1).rank_certificate == 2
        assert _stage(variant, "a", "b", 0).rank_certificate is None
        for m in (2, 3):
            assert _stage(variant, "b", "b", m).rank_certificate is None


def test_certified_stage_parity_matches_inventory():
    for variant in ("W0", "W1"):
        for pair in (("b", "b"), ("a", "a"), ("a", "b")):
            for m in range(4):
                s = _stage(variant, *pair, m)
                if s.rank_certificate is not None:
                    assert (s.rank_certificate - s.count) % 2 == 0
                    assert s.rank_certificate <= s.count


def test_w0_w1_inventories_identical():
    # the two scenarios share all planar data; only oracle facts differ
    f0 = scen.full_main_fibration("W0")
    f1 = scen.full_main_fibration("W1")
    for pair in (("b", "b"), ("a", "a"), ("a", "b")):
        for m in range(4):
            s0 = _build(f0, *pair, m, fs_hom_ranks(f0))
            s1 = _build(f1, *pair, m, fs_hom_ranks(f1))
            assert (crossing_points(f0, *pair, m)
                    == crossing_points(f1, *pair, m))
            assert inventory(s0) == inventory(s1)
            assert s0.rank_certificate == s1.rank_certificate


def test_doubled_resolution_keeps_inventory():
    f = scen.full_main_fibration("W1")
    fine = PARAMS._replace(resolution=2 * PARAMS.resolution)
    assert fine.resolution == 32 and fine.levels == (0, 1, 2, 3)
    fs = fs_hom_ranks(f)
    for pair in (("b", "b"), ("a", "b")):
        towers = [build_tower(f, *crits_of(f, *pair), params, fs)
                  for params in (PARAMS, fine)]
        for coarse, finer in zip(*towers, strict=True):
            assert inventory(coarse) == inventory(finer)
            assert coarse.count == finer.count
            assert coarse.rank_certificate == finer.rank_certificate


# --------------------------------------------------------------------------
# the closed form against words and spirals
# --------------------------------------------------------------------------

PAIRS = (("b", "b"), ("a", "a"), ("a", "b"))
DEEP = WrapParams(levels=(0, 1, 2, 3, 4, 5, 6, 8, 12))


def assert_matches_oracles(f, pairs, params, fs=None):
    """build_stage gives the crossings of oracles.word_stage_count and the
    (crossings, u) of oracles.spiral_stage_counts on every stage of the
    given towers.  Returns the number of stages the spiral reference could
    not embed on params' grid (SpiralCollision or NonEmbeddableInput), which
    it counts in place of that comparison."""
    fs, unembedded = fs or fs_hom_ranks(f), 0
    for x, y in pairs:
        cx, cy = crits_of(f, x, y)
        for m in params.levels:
            s = build_stage(f, cx, cy, m, fs)
            assert s.crossings == oracles.word_stage_count(f, cx, cy, m), (
                x, y, m)
            try:
                ref = oracles.spiral_stage_counts(f, cx, cy, m, params)
            except (SpiralCollision, NonEmbeddableInput):
                unembedded += 1
                continue
            assert (s.crossings, s.u_count) == ref, (x, y, m)
    return unembedded


@pytest.mark.parametrize("resolution", [16, 64])
@pytest.mark.parametrize("variant", ["W0", "W1"])
def test_stage_counts_match_spirals(variant, resolution):
    f = scen.full_main_fibration(variant)
    assert assert_matches_oracles(
        f, PAIRS, DEEP._replace(resolution=resolution)) == 0


def on_ray(c, angle):
    """The point at radius c on the ray of a boundary angle."""
    p = oracles.circle_point(angle)
    return Pt(c * p.x, c * p.y)


def _fraction(rng, lo, hi):
    return lo + (hi - lo) * Q(rng.randrange(1, 40), 40)


def draw_main(rng):
    """A two-crit variant of W1's main fibration on random rays, with a
    random reference angle: b's vanishing path runs straight out along its
    ray, and a's does too or, half the time, leaves from a point off its
    ray with a dogleg.  The paths may be illegal or cross.  Returns
    (fibration, dogleg?, least gap between the three angles), or None when
    the angles of a and b are one or the gap is no more than BEND."""
    ta, tb, ref = (Q(rng.randrange(120), 120) for _ in range(3))
    gap = min_angular_gap([ta, tb, ref])
    if ta == tb or gap <= BEND:
        return None
    dogleg = rng.random() < 0.5
    a_ray = Q(rng.randrange(120), 120) if dogleg else ta
    disc = DiscModel(
        (("a", homog(on_ray(_fraction(rng, Q(1, 10), Q(4, 5)), a_ray))),
         ("b", homog(on_ray(_fraction(rng, Q(1, 10), Q(4, 5)), tb)))))
    mid = ((on_ray(_fraction(rng, Q(1, 2), Q(9, 10)), ta),) if dogleg
           else ())
    crits = (Crit("a", scen.vanishing(disc, "a", ta, *mid), "A"),
             Crit("b", scen.vanishing(disc, "b", tb), "B"))
    return (replace(scen.full_main_fibration("W1"), disc=disc, crits=crits,
                    reference_angle=BoundaryAngle(ref)), dogleg, gap)


def random_main(rng, resolution):
    """A fibration of draw_main, its towers (a:a is none when a's path has
    a dogleg) and its wrap params, a random delta on the given grid.  Draws
    again until the paths are legal and disjoint."""
    while True:
        drawn = draw_main(rng)
        if drawn is None:
            continue
        f, dogleg, gap = drawn
        try:
            for c in f.crits:
                c.path.validate(f.disc)
            if any(is_violation for is_violation, _ in f.path_findings):
                continue
        except LefbenchError:
            continue
        delta = BEND + (gap - BEND) * Q(rng.randrange(1, 10), 10)
        pairs = (("a", "b"), ("b", "a"), ("b", "b"))
        return (f, pairs if dogleg else pairs + (("a", "a"),),
                WrapParams(delta, tuple(range(5)), resolution))


@pytest.mark.parametrize("resolution", [16, 64])
def test_stage_counts_match_spirals_on_random_fibrations(resolution):
    # at resolution 16 the reference cannot embed some deep spirals (the
    # grid limit of wrap); at 64 it embeds them all
    unembedded = 0
    for seed in range(40):
        f, pairs, params = random_main(random.Random(seed), resolution)
        unembedded += assert_matches_oracles(f, pairs, params)
    assert (unembedded > 0) == (resolution == 16)


def test_path_findings_match_all_pairs_on_random_fibrations():
    rng = random.Random(0)
    drawn = [d for d in (draw_main(rng) for _ in range(200)) if d]
    findings = set()
    for f, _, _ in drawn:
        assert f.path_findings == oracles.all_pairs_path_findings(f)
        findings.update(f.path_findings)
    assert any(is_violation for is_violation, _ in findings)


def tied_main(b_point, *mid):
    """W1's main fibration with a on the ray of angle 0, the reference
    angle, and b's vanishing path, from b_point through mid, ending there
    too: from above the ray, b's last segment reaches the shared end
    counterclockwise after a's; from below, before."""
    base = scen.full_main_fibration("W1")
    disc = DiscModel((("a", scen.hpt(Q(1, 2), 0)), ("b", homog(b_point))))
    crits = (Crit("a", scen.vanishing(disc, "a", 0), "A"),
             Crit("b", scen.vanishing(disc, "b", 0, *mid), "B"))
    return replace(base, disc=disc, crits=crits,
                   reference_angle=BoundaryAngle(Q(0)))


@pytest.mark.parametrize("b_y, order, mixed", [(Q(1, 2), "ab", 1),
                                               (Q(-1, 2), "ba", 0)])
def test_shared_boundary_end_is_ordered_by_last_segments(b_y, order, mixed):
    # b's source is not radial, so a:a and a:b are the towers; a copy of a
    # passes b at the shared end at once when b follows a there
    f = tied_main(Pt(Q(0), b_y))
    assert "".join(p for _, p in oracles.boundary_turn(f)) == order
    params = WrapParams(levels=tuple(range(5)))
    assert assert_matches_oracles(f, PAIRS[1:], params) == 0
    fs = fs_hom_ranks(f)
    for m in params.levels:
        assert _build(f, "a", "a", m, fs).count == 2 * m + 1
        assert _build(f, "a", "b", m, fs).crossings == m + mixed


def test_paths_that_are_no_cut_system_are_refused():
    f = tied_main(Pt(Q(0), Q(1, 2)), Pt(Q(3, 4), Q(0)))   # along a's path
    with pytest.raises(LefbenchError, match="^vanishing paths of 'a' and 'b'"
                       " reach the reference endpoint along one line"):
        _build(f, "a", "a", 1, fs_hom_ranks(f))
    # a's path runs out to angle 1/4 across b's, which runs to angle 0
    base = scen.full_main_fibration("W1")
    disc = DiscModel((("a", scen.hpt(Q(1, 2), Q(-1, 4))),
                      ("b", scen.hpt(Q(1, 2), 0))))
    f = replace(base, disc=disc, crits=(
        Crit("a", scen.vanishing(disc, "a", Q(1, 4), Pt(Q(3, 4), Q(1, 4)),
                                 Pt(Q(0), Q(1, 2))), "A"),
        Crit("b", scen.vanishing(disc, "b", 0), "B")))
    with pytest.raises(LefbenchError, match="^vanishing paths of 'a' and 'b'"
                       r" cross 1 time\(s\) in minimal position"):
        _build(f, "b", "b", 1, fs_hom_ranks(f))


# directed ranks that no stage below can contradict: the unit alone at the
# certified self-levels, and no mixed rank
UNIT_ONLY = FsHomRanks(hom_bb=1, hom_ab=0, hom_b1b=1)


def test_three_cuts_with_a_tie():
    # tied_main with c on the ray of angle 1/2 as a third cut: b is tied
    # after a at angle 0, so a's copy crosses b once more than c
    f = tied_main(Pt(Q(0), Q(1, 2)))
    disc = DiscModel(f.disc.punctures + (("c", scen.hpt(Q(-1, 2), 0)),))
    f = replace(f, disc=disc, crits=(
        Crit("a", scen.vanishing(disc, "a", 0), "A"),
        Crit("b", scen.vanishing(disc, "b", 0), "B"),
        Crit("c", scen.vanishing(disc, "c", Q(1, 2)), "A")))
    assert "".join(p for _, p in oracles.boundary_turn(f)) == "abc"
    pairs = [(x, y) for x in "ac" for y in "abc"]
    params = WrapParams(levels=tuple(range(5)))
    assert assert_matches_oracles(f, pairs, params, UNIT_ONLY) == 0
    for m in params.levels:
        assert [_build(f, x, y, m, UNIT_ONLY).crossings
                for x, y in pairs] == [m, m + 1, m, m, m, m]


def test_lone_cut_stages_hold_only_u():
    # every letter of the copy's word is a half-bigon at its own puncture
    disc = DiscModel((("a", scen.hpt(Q(1, 2), 0)),))
    f = replace(scen.full_main_fibration("W1"), disc=disc,
                crits=(Crit("a", scen.vanishing(disc, "a", 0), "A"),),
                reference_angle=BoundaryAngle(Q(0)))
    assert assert_matches_oracles(f, [("a", "a")], DEEP, UNIT_ONLY) == 0
    for m in DEEP.levels:
        assert inventory(_build(f, "a", "a", m, UNIT_ONLY)) == (0, 0, 1)


def test_deep_stage_allocates_nothing_that_grows_with_the_level():
    f = scen.full_main_fibration("W1")
    cx, cy, fs = *crits_of(f, "a", "b"), fs_hom_ranks(f)
    build_stage(f, cx, cy, 0, fs)      # the fibration's pair check, once
    tracemalloc.start()
    try:
        s = build_stage(f, cx, cy, 10 ** 6, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.count == 2 * 10 ** 6
    assert peak < 2 ** 20


# --------------------------------------------------------------------------
# stage guards
# --------------------------------------------------------------------------

def _counts(m, crossings, cert=None):
    """A stage of crossings fiber blocks of rank 2, without u."""
    return WrappedComplexStage(m, crossings, 2 if crossings else 0, 0, cert)


def test_generator_guards():
    # crossings over a fiber block of rank 0 would carry no generators
    with pytest.raises(LefbenchError,
                       match="^generators carry positive multiplicity$"):
        WrappedComplexStage(1, 1, 0, 0)
    assert WrappedComplexStage(0, 0, 0, 1).count == 1
    assert WrappedComplexStage(2, 2, 3, 1).count == 7


def test_certificate_guards():
    with pytest.raises(Inconsistent):
        _counts(1, 1, 1)   # parity
    with pytest.raises(Inconsistent):
        _counts(1, 1, 4)   # too big


# --------------------------------------------------------------------------
# towers
# --------------------------------------------------------------------------

def test_tower_assembly_scenarios():
    for variant in ("W0", "W1"):
        f = scen.full_main_fibration(variant)
        t = build_tower(f, *crits_of(f, "b", "b"), PARAMS,
                        fs_hom_ranks(f))
        assert counts(t) == [(0, 1), (1, 3), (2, 5), (3, 7)]
        assert all(s.u_count == 1 for s in t)


def test_mixed_tower_counts():
    for variant in ("W0", "W1"):
        f = scen.full_main_fibration(variant)
        # stages come in level order, whatever the declared order
        t = build_tower(f, *crits_of(f, "a", "b"),
                        WrapParams(levels=(3, 1, 0, 2)), fs_hom_ranks(f))
        assert counts(t) == [(0, 0), (1, 2), (2, 4), (3, 6)]
        assert all(s.u_count == 0 for s in t)
