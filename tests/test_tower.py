"""Wrapped-complex stage inventories and tower assembly on the shipped
scenarios, plus the bookkeeping guards."""

from fractions import Fraction as Q

import pytest

import scen
from lefbench.disc import WrapSpec
from lefbench.errors import (Inconsistent, LefbenchError, MissingFate,
                             Undecidable)
from lefbench.fibration import with_resolution
from lefbench.oracle import RankResult
from lefbench.rank_calculus import UnitFate, analyze, fs_hom_ranks
from lefbench.tower import (ARROWS_STAY_IN_BLOCK, CRITICAL_U, NO_ARROWS_AT_U,
                            ORDINARY, ContinuationExists, Generator, Tower,
                            WrappedComplexStage, assemble_tower, build_stage,
                            build_tower)

DELTA = Q(1, 64)
BEND = Q(1, 128)


def _spec(m):
    return WrapSpec(m, DELTA, BEND)


def _stage(variant, x, y, m, f=None):
    f = f if f is not None else scen.full_main_fibration(variant)
    return build_stage(f, x, y, _spec(m), fs_hom_ranks(f))


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
        assert NO_ARROWS_AT_U in s.differential_constraints
        assert (ARROWS_STAY_IN_BLOCK in s.differential_constraints) == (m > 0)


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
        assert _stage(variant, "b", "b", 0).rank_certificate == RankResult(True, 1)
        assert _stage(variant, "b", "b", 1).rank_certificate == RankResult(True, 3)
        assert _stage(variant, "a", "a", 1).rank_certificate == RankResult(True, 3)
        assert _stage(variant, "a", "b", 1).rank_certificate == RankResult(True, 2)
        assert _stage(variant, "a", "b", 0).rank_certificate is None
        for m in (2, 3):
            assert _stage(variant, "b", "b", m).rank_certificate is None


def test_certified_stage_parity_matches_inventory():
    for variant in ("W0", "W1"):
        for pair in (("b", "b"), ("a", "a"), ("a", "b")):
            for m in range(4):
                s = _stage(variant, *pair, m)
                if s.rank_certificate is not None:
                    assert (s.rank_certificate.value - s.count) % 2 == 0
                    assert s.rank_certificate.value <= s.count


def test_w0_w1_inventories_identical():
    # the two scenarios share all planar data; only oracle facts differ
    f0 = scen.full_main_fibration("W0")
    f1 = scen.full_main_fibration("W1")
    for pair in (("b", "b"), ("a", "a"), ("a", "b")):
        for m in range(4):
            s0 = build_stage(f0, *pair, _spec(m), fs_hom_ranks(f0))
            s1 = build_stage(f1, *pair, _spec(m), fs_hom_ranks(f1))
            assert s0.generators == s1.generators
            assert s0.inventory() == s1.inventory()
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
            assert coarse.inventory() == fine.inventory()
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
        WrappedComplexStage(1, (_gen(2),), RankResult(True, 1))   # parity
    with pytest.raises(Inconsistent):
        WrappedComplexStage(1, (_gen(2),), RankResult(True, 4))   # too big
    with pytest.raises(LefbenchError):
        WrappedComplexStage(1, (_gen(2),), RankResult(False, 2))  # not exact
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
    for variant, fate in (("W0", UnitFate.SURVIVES), ("W1", UnitFate.DIES)):
        f = scen.full_main_fibration(variant)
        out = analyze(f)
        assert out.fate is fate
        t = build_tower(f, "b", "b", range(4), DELTA, BEND, out.fs,
                        fate=out.fate)
        assert t.counts() == ((0, 1), (1, 3), (2, 5), (3, 7))
        assert t.verdict.nonzero == (fate is UnitFate.SURVIVES)
        assert t.continuation == tuple(
            ContinuationExists(m, m + 1, fate is UnitFate.SURVIVES)
            for m in range(3))
        assert t.stage(2).count == 5
        with pytest.raises(KeyError):
            t.stage(9)


def test_survivor_tower_gets_stabilization_note():
    f = scen.full_main_fibration("W0")
    t = build_tower(f, "b", "b", [0, 1], DELTA, BEND, fs_hom_ranks(f),
                    fate=UnitFate.SURVIVES)
    assert [s.tag for s in t.verdict.steps] == ["unit-survival", "stabilization"]
    f1 = scen.full_main_fibration("W1")
    t1 = build_tower(f1, "b", "b", [0, 1], DELTA, BEND, fs_hom_ranks(f1),
                     fate=UnitFate.DIES)
    assert [s.tag for s in t1.verdict.steps] == ["unit-death"]


def test_mixed_tower_counts():
    for variant in ("W0", "W1"):
        f = scen.full_main_fibration(variant)
        out = analyze(f)
        t = build_tower(f, "a", "b", range(4), DELTA, BEND, out.fs,
                        verdict=out.off_diagonal)
        assert t.counts() == ((0, 0), (1, 2), (2, 4), (3, 6))
        assert t.verdict.nonzero == (variant == "W0")
        assert t.fate is None
        assert all(not c.unit_image_persists for c in t.continuation)


def test_fate_and_verdict_are_exclusive():
    f = scen.full_main_fibration("W0")
    out = analyze(f)
    with pytest.raises(LefbenchError):
        build_tower(f, "b", "b", [0, 1], DELTA, BEND, out.fs,
                    fate=out.fate, verdict=out.off_diagonal)


def test_trivially_empty_tower_vanishes():
    stages = (WrappedComplexStage(0, ()), WrappedComplexStage(1, ()))
    t = assemble_tower(stages)
    assert not t.verdict.nonzero
    assert [s.tag for s in t.verdict.steps] == ["empty-tower"]
    assert t.fate is None


def test_nonempty_tower_without_fate():
    f = scen.full_main_fibration("W1")
    stages = [_stage("W1", "a", "b", m, f) for m in range(2)]
    with pytest.raises(MissingFate):
        assemble_tower(stages)


def test_fate_without_unit_is_inconsistent():
    with pytest.raises(Inconsistent):
        assemble_tower((WrappedComplexStage(0, ()),), fate=UnitFate.DIES)


def test_tower_guards():
    with pytest.raises(LefbenchError):
        assemble_tower(())
    s = WrappedComplexStage(0, ())
    with pytest.raises(LefbenchError):
        assemble_tower((s, WrappedComplexStage(0, ())))
    shrink = (WrappedComplexStage(0, (_gen(2), _gen(2))),
              WrappedComplexStage(1, (_gen(2),)))
    with pytest.raises(Inconsistent):
        assemble_tower(shrink)
    with pytest.raises(LefbenchError):
        ContinuationExists(2, 2, True)


def test_fate_dies_marks_unit_image_dead():
    f = scen.full_main_fibration("W1")
    t = build_tower(f, "b", "b", [0, 1, 2], DELTA, BEND, fs_hom_ranks(f),
                    fate=UnitFate.DIES)
    assert all(not c.unit_image_persists for c in t.continuation)
