"""Wrapped-complex stage inventories and tower assembly on the shipped
scenarios, plus the bookkeeping guards."""

from fractions import Fraction as Q

import pytest

import scen
from lefbench.disc import WrapSpec
from lefbench.errors import Inconsistent, LefbenchError, Undecidable
from lefbench.fibration import with_resolution
from lefbench.rank_calculus import fs_hom_ranks
from lefbench.tower import (CRITICAL_U, ORDINARY, Generator,
                            WrappedComplexStage, assemble_tower, build_stage,
                            build_tower)

DELTA = Q(1, 64)
BEND = Q(1, 128)


def _spec(m):
    return WrapSpec(m, DELTA, BEND)


def _stage(variant, x, y, m, f=None):
    f = f if f is not None else scen.full_main_fibration(variant)
    return build_stage(f, x, y, _spec(m), fs_hom_ranks(f))


def inventory(stage):
    """A stage's combinatorial content: the sorted (multiplicity, tag)
    multiset, stable under refinement of the boundary grid, which moves
    crossing points slightly but cannot change what they contribute."""
    return sorted((g.multiplicity, g.tag) for g in stage.generators)


def counts(tower):
    return [(s.m, s.count) for s in tower.stages]


# --------------------------------------------------------------------------
# inventories
# --------------------------------------------------------------------------

@pytest.mark.parametrize("variant", ["W0", "W1"])
@pytest.mark.parametrize("thimble", ["a", "b"])
def test_self_tower_inventory(variant, thimble):
    for m in range(4):
        s = _stage(variant, thimble, thimble, m)
        assert s.count == 2 * m + 1
        assert s.u_count == 1
        ordinary = [g for g in s.generators if g.tag == ORDINARY]
        assert len(ordinary) == m
        assert all(g.multiplicity == 2 for g in ordinary)


@pytest.mark.parametrize("variant", ["W0", "W1"])
def test_mixed_tower_inventory(variant):
    for m in range(4):
        s = _stage(variant, "a", "b", m)
        assert s.count == 2 * m
        assert s.u_count == 0
        assert all(g.multiplicity == 2 and g.tag == ORDINARY
                   for g in s.generators)
    assert _stage(variant, "a", "b", 0).generators == ()


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
            s0 = build_stage(f0, *pair, _spec(m), fs_hom_ranks(f0))
            s1 = build_stage(f1, *pair, _spec(m), fs_hom_ranks(f1))
            assert s0.generators == s1.generators
            assert inventory(s0) == inventory(s1)
            assert s0.rank_certificate == s1.rank_certificate


def test_doubled_resolution_keeps_inventory():
    f = scen.full_main_fibration("W1")
    f2 = with_resolution(f, 2 * f.disc.boundary_resolution)
    assert f2.disc.boundary_resolution == 2 * f.disc.boundary_resolution
    fs, fs2 = fs_hom_ranks(f), fs_hom_ranks(f2)
    for pair in (("b", "b"), ("a", "b")):
        for m in range(4):
            coarse = build_stage(f, *pair, _spec(m), fs)
            fine = build_stage(f2, *pair, _spec(m), fs2)
            assert inventory(coarse) == inventory(fine)
            assert coarse.count == fine.count
            assert coarse.rank_certificate == fine.rank_certificate


# --------------------------------------------------------------------------
# stage guards
# --------------------------------------------------------------------------

def _gen(mult=2, tag=ORDINARY):
    return Generator(scen.pt(0, Q(1, 4)), mult, tag)


def test_generator_guards():
    with pytest.raises(LefbenchError):
        Generator(scen.pt(0, 0), 2, "mystery")
    with pytest.raises(LefbenchError):
        Generator(scen.pt(0, 0), 0, ORDINARY)
    with pytest.raises(LefbenchError):
        Generator(scen.pt(0, 0), 2, CRITICAL_U)


def test_certificate_guards():
    with pytest.raises(Inconsistent):
        WrappedComplexStage(1, (_gen(2),), 1)   # parity
    with pytest.raises(Inconsistent):
        WrappedComplexStage(1, (_gen(2),), 4)   # too big
    with pytest.raises(LefbenchError):
        WrappedComplexStage(-1, ())


def test_build_stage_needs_known_puncture_and_oracle():
    f = scen.full_main_fibration("W0")
    fs = fs_hom_ranks(f)
    with pytest.raises(LefbenchError):
        build_stage(f, "c", "b", _spec(0), fs)
    with pytest.raises(Undecidable):
        build_stage(scen.main_fibration("W0"), "a", "b", _spec(0), fs)


# --------------------------------------------------------------------------
# towers
# --------------------------------------------------------------------------

def test_tower_assembly_scenarios():
    for variant in ("W0", "W1"):
        f = scen.full_main_fibration(variant)
        t = build_tower(f, "b", "b", range(4), DELTA, BEND, fs_hom_ranks(f))
        assert counts(t) == [(0, 1), (1, 3), (2, 5), (3, 7)]
        assert all(s.u_count == 1 for s in t.stages)
        assert t.stage(2).count == 5
        with pytest.raises(KeyError):
            t.stage(9)


def test_mixed_tower_counts():
    for variant in ("W0", "W1"):
        f = scen.full_main_fibration(variant)
        t = build_tower(f, "a", "b", [3, 1, 0, 2, 1], DELTA, BEND,
                        fs_hom_ranks(f))
        assert counts(t) == [(0, 0), (1, 2), (2, 4), (3, 6)]
        assert all(s.u_count == 0 for s in t.stages)


def test_fate_without_unit_is_inconsistent():
    # a self-tower's verdict is the fate of its unit, so it must contain u;
    # a mixed tower has no unit to carry
    stages = (WrappedComplexStage(0, ()), WrappedComplexStage(1, (_gen(2),)))
    with pytest.raises(Inconsistent):
        assemble_tower(stages, self_pair=True)
    assert counts(assemble_tower(stages, self_pair=False)) == [(0, 0), (1, 2)]


def test_tower_guards():
    with pytest.raises(LefbenchError):
        assemble_tower((), self_pair=False)
    s = WrappedComplexStage(0, ())
    with pytest.raises(LefbenchError):
        assemble_tower((s, WrappedComplexStage(0, ())), self_pair=False)
    shrink = (WrappedComplexStage(0, (_gen(2), _gen(2))),
              WrappedComplexStage(1, (_gen(2),)))
    with pytest.raises(Inconsistent):
        assemble_tower(shrink, self_pair=False)
