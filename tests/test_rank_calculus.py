"""Triangle rank calculus against an independent GF(2) mapping-cone oracle,
plus the unit-fate and verdict logic of analyze."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scen
from lefbench.cli import _section_trace
from lefbench.disc import BoundaryAngle, DiscModel, Puncture
from lefbench.errors import (ImageTooLarge, Inconsistent, Undecidable,
                             UnknownPair)
from lefbench.fibration import Crit, Fibration, MatchingObject, TotalSpaceFiber
from lefbench.oracle import Fact, FiberOracle, LabelDecl
from lefbench.rank_calculus import (NONZERO_EV_WARNING, FsHomRanks,
                                    _directed_twist, analyze, fs_hom_ranks,
                                    pair_of_pants_image_rank, triangle_rank,
                                    unit_survives)
from lefbench.report import Report
from oracles import (cone_homology_rank, homology_rank, induced_map_rank,
                     random_chain_map, random_differential)

Q = scen.Q


# --------------------------------------------------------------------------
# triangle_rank
# --------------------------------------------------------------------------

def test_triangle_rank_table():
    assert triangle_rank(4, 2, 2) == 2
    assert triangle_rank(4, 2, 1) == 4
    assert triangle_rank(0, 2, 0) == 2
    assert triangle_rank(1, 1, 1) == 0
    for k, l in [(0, 0), (3, 5), (2, 2)]:
        assert triangle_rank(k, l, 0) == k + l


def test_triangle_rank_rejects_oversized_image():
    with pytest.raises(ImageTooLarge):
        triangle_rank(1, 1, 2)
    with pytest.raises(ImageTooLarge):
        triangle_rank(4, 2, 3)


def test_triangle_rank_matches_mapping_cone_oracle():
    # the same identity the acceptance suite checks on 1000 instances
    rng = random.Random(0xC0FE)
    for _ in range(300):
        nk = rng.randrange(0, 7)
        nl = rng.randrange(0, 7)
        dk = random_differential(nk, rng)
        dl = random_differential(nl, rng)
        f = random_chain_map(dk, dl, nk, nl, rng)
        hk = homology_rank(dk, nk)
        hl = homology_rank(dl, nl)
        fstar = induced_map_rank(f, dk, dl, nk, nl)
        assert fstar <= min(hk, hl)
        assert triangle_rank(hk, hl, fstar) == \
            cone_homology_rank(f, dk, dl, nk, nl)


@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_triangle_rank_parity_and_bounds(k, l, f):
    if f > min(k, l):
        with pytest.raises(ImageTooLarge):
            triangle_rank(k, l, f)
        return
    m = triangle_rank(k, l, f)
    assert (k + l - m) % 2 == 0
    assert abs(k - l) <= m <= k + l


# --------------------------------------------------------------------------
# pair of pants / twist
# --------------------------------------------------------------------------

def _two_sphere_oracle(pair_rank, extra_relations=()):
    return FiberOracle(
        label_decls=(LabelDecl("s", sphere=True), LabelDecl("t", sphere=True)),
        facts=(Fact("rank", ("s", "t"), pair_rank, scen.assumed("setup")),
               *extra_relations))


def test_pants_image_rank_on_scenarios():
    assert pair_of_pants_image_rank(scen.main_oracle("W0"), "A", "B") == 2
    assert pair_of_pants_image_rank(scen.main_oracle("W1"), "A", "B") == 1
    # symmetric in the first argument's role
    assert pair_of_pants_image_rank(scen.main_oracle("W1"), "B", "A") == 1


def test_pants_image_rank_undecidable_without_iso_status():
    with pytest.raises(Undecidable):
        pair_of_pants_image_rank(_two_sphere_oracle(1), "s", "t")


def test_pants_image_rank_needs_rank_two_target():
    o = FiberOracle(
        label_decls=(LabelDecl("x"), LabelDecl("y")),
        facts=(Fact("rank", ("x", "x"), 3, scen.assumed("setup")),
               Fact("rank", ("x", "y"), 1, scen.assumed("setup"))))
    with pytest.raises(Undecidable):
        pair_of_pants_image_rank(o, "y", "x")   # rank(x,x) = 3
    with pytest.raises(Undecidable):
        pair_of_pants_image_rank(o, "x", "y")   # rank(y,y) unknown


def test_seidel_twist_rank_scenarios():
    assert _directed_twist(scen.main_oracle("W0"), "A", "B")[2] == 2
    assert _directed_twist(scen.main_oracle("W1"), "A", "B")[2] == 4


def test_seidel_twist_rank_disjoint_pair():
    # zero tensor factor: no iso status needed, the image is forced zero
    o = _two_sphere_oracle(
        0, [Fact("disjoint", ("s", "t"), None, scen.cited("apart"))])
    assert _directed_twist(o, "s", "t")[2] == 2


def test_seidel_twist_rank_propagates_undecidable():
    with pytest.raises(Undecidable):
        _directed_twist(_two_sphere_oracle(1), "s", "t")


def test_seidel_twist_rank_undeclared_self_rank():
    # a nonzero pair product asks the pants rule first, which needs
    # rank(y,y) = 2 and says so; with a zero product the triangle itself
    # reads the missing self-rank
    o = FiberOracle(
        label_decls=(LabelDecl("x"), LabelDecl("y")),
        facts=(Fact("rank", ("x", "x"), 2, scen.assumed("setup")),
               Fact("rank", ("x", "y"), 1, scen.assumed("setup"))))
    with pytest.raises(Undecidable, match="rank\\(y,y\\) = 2"):
        _directed_twist(o, "x", "y")
    o0 = FiberOracle(
        label_decls=(LabelDecl("x"), LabelDecl("y")),
        facts=(Fact("rank", ("x", "y"), 0, scen.assumed("setup")),))
    with pytest.raises(UnknownPair):
        _directed_twist(o0, "x", "y")


# --------------------------------------------------------------------------
# fs_hom_ranks
# --------------------------------------------------------------------------

def test_fs_hom_ranks_scenarios():
    for variant in ("W0", "W1"):
        fs = fs_hom_ranks(scen.full_main_fibration(variant))
        assert fs == FsHomRanks(1, 2, 3)
        assert fs.warnings == ()


def _bifibration(inner_disc, inner_objects, inner_oracle, main_oracle=None):
    inner = Fibration(
        name="inner", disc=inner_disc, fiber=scen.circle_fiber(), crits=(),
        reference_angle=BoundaryAngle(Q(3, 4)), oracle=inner_oracle,
        objects=inner_objects)
    disc = scen.main_disc()
    crits = (Crit("a", scen.vanishing(disc, "a", Q(1, 2)), "A"),
             Crit("b", scen.vanishing(disc, "b", Q(0)), "B"))
    return Fibration(
        name="outer", disc=disc, fiber=TotalSpaceFiber(inner), crits=crits,
        reference_angle=BoundaryAngle(Q(0)), oracle=main_oracle)


def _matching_between(disc, name, p, q, label):
    arc = scen.arc_through((scen.point_of(disc, p), scen.point_of(disc, q)),
                           Puncture(p), Puncture(q))
    return MatchingObject(name, arc, label, label)


def _zero_pair_bifibration(main_oracle=None):
    """A bifibration whose matching spheres A and B lie apart in the fiber,
    so that hom_ab = 0."""
    disc = DiscModel(punctures=(
        ("p1", scen.hpt(Q(-1, 2), Q(1, 4))),
        ("p2", scen.hpt(Q(1, 2), Q(1, 4))),
        ("p3", scen.hpt(Q(-1, 2), Q(-1, 4))),
        ("p4", scen.hpt(Q(1, 2), Q(-1, 4))),
    ))
    objects = (_matching_between(disc, "A", "p1", "p2", "belt"),
               _matching_between(disc, "B", "p3", "p4", "belt"))
    return _bifibration(disc, objects, scen.aux_oracle(), main_oracle)


def test_fs_hom_ranks_zero_pair_warns():
    fs = fs_hom_ranks(_zero_pair_bifibration())
    assert fs == FsHomRanks(1, 0, 1, (NONZERO_EV_WARNING,))


def test_fs_hom_ranks_single_crossing_rank_one():
    disc = DiscModel(punctures=(
        ("q1", scen.hpt(Q(-1, 2), 0)), ("q2", scen.hpt(Q(1, 2), 0)),
        ("q3", scen.hpt(0, Q(-1, 2))), ("q4", scen.hpt(0, Q(1, 2))),
    ))
    oracle = FiberOracle(
        label_decls=(LabelDecl("u"), LabelDecl("v")),
        facts=(Fact("rank", ("u", "v"), 1, scen.assumed("setup")),))
    objects = (_matching_between(disc, "A", "q1", "q2", "u"),
               _matching_between(disc, "B", "q3", "q4", "v"))
    f = _bifibration(disc, objects, oracle)
    fs = fs_hom_ranks(f)
    # the evaluation cone collapses: 1 + 1 - 2*1
    assert fs == FsHomRanks(1, 1, 0)


def test_fs_hom_ranks_cross_check_against_declared_rank():
    bad = FiberOracle(
        label_decls=(LabelDecl("A", sphere=True), LabelDecl("B", sphere=True)),
        facts=(Fact("rank", ("A", "B"), 4, scen.assumed("wrong")),))
    f = scen.main_fibration("W0", aux_oracle=scen.aux_oracle(),
                            main_oracle=bad)
    with pytest.raises(Inconsistent):
        fs_hom_ranks(f)


def test_fs_hom_ranks_needs_bifibration():
    with pytest.raises(Undecidable):
        fs_hom_ranks(scen.ts3_fibration())         # abstract fiber
    with pytest.raises(Undecidable):
        fs_hom_ranks(scen.aux_fibration("W0"))     # three thimbles
    with pytest.raises(Undecidable):
        fs_hom_ranks(scen.main_fibration("W0"))    # no inner oracle


# --------------------------------------------------------------------------
# unit fate and verdicts
# --------------------------------------------------------------------------

def test_unit_fate_examples():
    assert unit_survives(3, 4) is False
    assert unit_survives(3, 2) is True
    assert unit_survives(0, 1) is False
    with pytest.raises(Inconsistent):
        unit_survives(3, 3)
    with pytest.raises(Inconsistent):
        unit_survives(3, 6)


@given(st.integers(0, 50), st.integers(0, 50))
def test_unit_fate_total_quotient_gap(total, quotient):
    if abs(total - quotient) == 1:
        assert unit_survives(total, quotient) is (total > quotient)
    else:
        with pytest.raises(Inconsistent):
            unit_survives(total, quotient)


def _plain_pair_oracle(rank_bb):
    """Plain labels A and B, apart (rank 0) and with rank(A,A) = 0."""
    return FiberOracle(
        label_decls=(LabelDecl("A"), LabelDecl("B")),
        facts=(Fact("rank", ("A", "B"), 0, scen.assumed("setup")),
               Fact("rank", ("A", "A"), 0, scen.assumed("setup")),
               Fact("rank", ("B", "B"), rank_bb, scen.assumed("setup"))))


def test_off_diagonal_module_rule():
    # B's quotient has rank 2 against a total of 1: B dies.  A's has rank
    # 0: A survives.  One vanishing diagonal group kills the mixed one, but
    # the other is nonzero, so no obstruction follows.
    out = analyze(_zero_pair_bifibration(_plain_pair_oracle(2)))
    assert out.fs == FsHomRanks(1, 0, 1, (NONZERO_EV_WARNING,))
    assert out.twist == 2
    assert out.hw == {"B": False, "A": True}
    assert out.hw_mixed is False
    assert out.obstructed is False
    assert [s.tag for s in out.trace][-3:] == [
        "unit-death", "module-vanishing", "obstruction"]
    assert "no obstruction follows" in out.trace[-1].text


def test_off_diagonal_needs_witness_when_alive():
    # both diagonal groups are nonzero; the mixed one is nonzero only
    # through a sphere witness, and no isotopy is declared
    with pytest.raises(Undecidable, match="closed sphere witness"):
        analyze(_zero_pair_bifibration(_plain_pair_oracle(0)))


# --------------------------------------------------------------------------
# whole-scenario analysis
# --------------------------------------------------------------------------

def test_analyze_w0():
    out = analyze(scen.full_main_fibration("W0"))
    assert out.labels == ("A", "B")
    assert out.hf_pair == 2
    assert out.twist == 2
    assert out.fs == FsHomRanks(1, 2, 3)
    assert out.hw == {"B": True, "A": True}
    assert out.hw_mixed is True
    assert out.obstructed is False
    assert [s.tag for s in out.trace] == [
        "twist-triangle", "evaluation-cone", "unit-fate", "unit-survival",
        "sphere-witness", "obstruction"]


def test_analyze_w1():
    out = analyze(scen.full_main_fibration("W1"))
    assert out.hf_pair == 2
    assert out.twist == 4
    assert out.fs == FsHomRanks(1, 2, 3)
    assert out.hw == {"B": False, "A": False}
    assert out.hw_mixed is False
    assert out.obstructed is True
    assert [s.tag for s in out.trace] == [
        "twist-triangle", "evaluation-cone", "unit-fate", "unit-death",
        "module-vanishing", "obstruction"]


def test_analyze_unit_gap_invariant():
    for variant in ("W0", "W1"):
        out = analyze(scen.full_main_fibration(variant))
        assert abs(out.fs.hom_b1b - out.twist) == 1


def test_analyze_requires_oracle_and_two_thimbles():
    with pytest.raises(Undecidable):
        analyze(scen.main_fibration("W0", aux_oracle=scen.aux_oracle()))
    with pytest.raises(Undecidable):
        analyze(scen.aux_fibration("W0", oracle=scen.aux_oracle()))


def test_trace_steps_render_with_tags():
    # the report's PROOF TRACE block is the one rendering of a trace step
    out = analyze(scen.full_main_fibration("W1"))
    r = Report()
    _section_trace(r, out)
    lines = r.render().splitlines()
    assert lines[0] == "PROOF TRACE"
    assert lines[1:] == [f"  {i}. [{s.tag}] {s.text}"
                         for i, s in enumerate(out.trace, 1)]
    assert lines[1].startswith("  1. [twist-triangle] ")
