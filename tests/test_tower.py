"""Wrapped-complex stage counts and tower assembly on the shipped
scenarios, plus the bookkeeping guards."""

import pytest

import scen
from lefbench.errors import Inconsistent, LefbenchError
from lefbench.fibration import with_resolution
from lefbench.minpos import minimal_position
from lefbench.rank_calculus import fs_hom_ranks
from lefbench.tower import (WrappedComplexStage, assemble_tower, build_stage,
                            build_tower, tower_crits)
from lefbench.wrapping import WrapParams

PARAMS = WrapParams()     # delta 1/64, levels 0-3


def _build(f, x, y, m, fs):
    return build_stage(f, *tower_crits(f, x, y), m, PARAMS, fs)


def _stage(variant, x, y, m, f=None):
    f = f if f is not None else scen.full_main_fibration(variant)
    return _build(f, x, y, m, fs_hom_ranks(f))


def inventory(stage):
    """A stage's combinatorial content: its crossings, block rank and u,
    stable under refinement of the boundary grid, which moves crossing
    points slightly but cannot change what they contribute."""
    return stage.crossings, stage.block, stage.u_count


def crossing_points(f, stage, y):
    """The crossing points of a stage's pair, its spiral against y's
    vanishing path, in minimal position."""
    return sorted(scen.point(c.hpoint) for c in minimal_position(
        stage.spiral, f.crit_for(y).path, f.disc))


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
            assert (crossing_points(f0, s0, pair[1])
                    == crossing_points(f1, s1, pair[1]))
            assert inventory(s0) == inventory(s1)
            assert s0.rank_certificate == s1.rank_certificate


def test_doubled_resolution_keeps_inventory():
    f = scen.full_main_fibration("W1")
    f2 = with_resolution(f, 2 * f.disc.boundary_resolution)
    assert f2.disc.boundary_resolution == 2 * f.disc.boundary_resolution
    fs, fs2 = fs_hom_ranks(f), fs_hom_ranks(f2)
    for pair in (("b", "b"), ("a", "b")):
        for m in range(4):
            coarse = _build(f, *pair, m, fs)
            fine = _build(f2, *pair, m, fs2)
            assert inventory(coarse) == inventory(fine)
            assert coarse.count == fine.count
            assert coarse.rank_certificate == fine.rank_certificate


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
        t = build_tower(f, *tower_crits(f, "b", "b"), PARAMS,
                        fs_hom_ranks(f))
        assert counts(t) == [(0, 1), (1, 3), (2, 5), (3, 7)]
        assert all(s.u_count == 1 for s in t)


def test_mixed_tower_counts():
    for variant in ("W0", "W1"):
        f = scen.full_main_fibration(variant)
        # stages come in level order, whatever the declared order
        t = build_tower(f, *tower_crits(f, "a", "b"),
                        WrapParams(levels=(3, 1, 0, 2)), fs_hom_ranks(f))
        assert counts(t) == [(0, 0), (1, 2), (2, 4), (3, 6)]
        assert all(s.u_count == 0 for s in t)


def test_fate_without_unit_is_inconsistent():
    # a self-tower's verdict is the fate of its unit, so it must contain u;
    # a mixed tower has no unit to carry
    stages = (_counts(0, 0), _counts(1, 1))
    with pytest.raises(Inconsistent):
        assemble_tower(stages, self_pair=True)
    assert counts(assemble_tower(stages, self_pair=False)) == [(0, 0), (1, 2)]


def test_tower_guards():
    shrink = (_counts(0, 2), _counts(1, 1))
    with pytest.raises(Inconsistent):
        assemble_tower(shrink, self_pair=False)
