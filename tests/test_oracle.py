"""Rank oracle: closure, witnesses, and geometric matching ranks."""

import pytest

from lefbench.errors import (Inconsistent, InvalidWitness, LefbenchError,
                             MissingParity, UnknownPair)
from lefbench.oracle import (ALL_SAME, MIXED, Fact, FiberOracle, LabelDecl,
                             matching_floer_rank)

from oracles import brute_crossing_count
from scen import assumed, aux_fibration, aux_oracle, main_oracle


def fact(kind, *labels, value=None):
    return Fact(kind, labels, value, assumed("t"))


def test_sphere_self_rank_is_derived():
    o = aux_oracle()
    assert o.rank_of("belt", "belt") == 2
    assert o.parity_of("belt", "belt") == ALL_SAME
    assert o.labels == frozenset({"belt"})


def test_w0_closure():
    o = main_oracle("W0")
    assert o.rank_of("A", "A") == 2
    assert o.rank_of("B", "B") == 2
    assert o.rank_of("A", "B") == 2
    assert o.rank_of("A", "L") == 0
    assert o.rank_of("B", "L") == 0
    assert o.isomorphic_objects("A", "B") == "yes"
    assert o.isomorphic_objects("A", "L") == "unknown"


def test_w1_closure():
    o = main_oracle("W1")
    assert o.rank_of("A", "L") == 0          # via disjointness
    assert o.rank_of("B", "L") == 2
    assert o.isomorphic_objects("A", "B") == "no"      # witness L
    assert o.isomorphic_objects("B", "L") == "unknown"
    assert o.isomorphic_objects("A", "A") == "yes"


def test_unknown_pairs_are_hard_errors():
    o = main_oracle("W1")
    with pytest.raises(UnknownPair):
        o.rank_of("L", "L")
    with pytest.raises(UnknownPair):
        o.rank_of("A", "ghost")
    assert o.rank_known("A", "B")
    assert not o.rank_known("L", "L")


def test_rank_of_is_symmetric():
    o = main_oracle("W1")
    for i in ("A", "B", "L"):
        for j in ("A", "B", "L"):
            if o.rank_known(i, j):
                assert o.rank_of(i, j) == o.rank_of(j, i)


def test_disjoint_conflicts_with_declared_rank():
    with pytest.raises(Inconsistent):
        FiberOracle(
            (LabelDecl("x"), LabelDecl("y")),
            (fact("rank", "x", "y", value=2), fact("disjoint", "x", "y")))


def test_isotopy_substitution_conflicts_detected():
    with pytest.raises(Inconsistent):
        FiberOracle(
            (LabelDecl("x"), LabelDecl("y"), LabelDecl("z")),
            (fact("rank", "x", "z", value=1), fact("rank", "y", "z", value=2),
             fact("isotopic", "x", "y")))


def test_sphere_self_rank_conflict_detected():
    with pytest.raises(Inconsistent):
        FiberOracle((LabelDecl("s", sphere=True),),
                    (fact("rank", "s", "s", value=1),))


def test_isotopic_and_not_isomorphic_conflict():
    with pytest.raises(Inconsistent):
        FiberOracle(
            (LabelDecl("x"), LabelDecl("y"), LabelDecl("w")),
            (fact("rank", "y", "w", value=1), fact("isotopic", "x", "y"),
             fact("witness", "x", "y", "w"), fact("disjoint", "x", "w")))


def test_invalid_witness_rejected():
    with pytest.raises(InvalidWitness):
        FiberOracle(
            (LabelDecl("x"), LabelDecl("y"), LabelDecl("w")),
            (fact("rank", "x", "w", value=1), fact("rank", "y", "w", value=1),
             fact("witness", "x", "y", "w")))
    with pytest.raises(InvalidWitness):
        FiberOracle(
            (LabelDecl("x"), LabelDecl("y"), LabelDecl("w")),
            (fact("witness", "x", "y", "w"),))


def test_conflicting_parity_rejected():
    with pytest.raises(Inconsistent):
        FiberOracle(
            (LabelDecl("x"), LabelDecl("y")),
            (fact("parity", "x", "y", value=ALL_SAME),
             fact("parity", "y", "x", value=MIXED)))


def test_closure_is_stable_under_derivable_facts():
    base = main_oracle("W0")
    fattened = FiberOracle(
        base.label_decls,
        base.facts + (Fact("rank", ("B", "L"), 0, assumed("derivable")),
                      Fact("rank", ("A", "A"), 2, assumed("derivable"))))
    for i in ("A", "B", "L"):
        for j in ("A", "B", "L"):
            assert base.rank_known(i, j) == fattened.rank_known(i, j)
            if base.rank_known(i, j):
                assert base.rank_of(i, j) == fattened.rank_of(i, j)


# Each pair of adjacent closure stages, with the later stage's error first
# in the facts: the earlier stage's error wins, so an oracle's message does
# not depend on the order of its lines.
STAGE_PAIRS = {
    "isotopic-rank": (
        (fact("rank", "x", "y", value=-1), fact("isotopic", "x", "ghost")),
        LefbenchError, "undeclared cycle label 'ghost'"),
    "rank-disjoint": (
        (fact("disjoint", "x", "ghost"), fact("rank", "x", "y", value=-1)),
        LefbenchError, "ranks are nonnegative"),
    "disjoint-sphere": (
        (fact("rank", "s", "s", value=1), fact("disjoint", "x", "ghost")),
        LefbenchError, "undeclared cycle label 'ghost'"),
    "sphere-parity": (
        (fact("parity", "x", "y", value="sometimes"),
         fact("rank", "s", "s", value=1)),
        Inconsistent, "rank(s,s) forced to both 1 (declared [assumed:t])"
        " and 2 (sphere self-rank)"),
    "parity-witness": (
        (fact("witness", "x", "y", "w"), fact("isotopic", "x", "y"),
         fact("parity", "x", "y", value="sometimes")),
        LefbenchError, "parity must be 'all-same' or 'mixed'"),
    "witness-check": (
        (fact("witness", "x", "y", "w"), fact("isotopic", "x", "z"),
         fact("witness", "x", "z", "w")),
        Inconsistent, "labels 'x', 'z' declared both isotopic and"
        " non-isomorphic"),
}


@pytest.mark.parametrize("facts, error, message", STAGE_PAIRS.values(),
                         ids=STAGE_PAIRS)
def test_earlier_closure_stage_reports_first(facts, error, message):
    labels = (*(LabelDecl(n) for n in "xyzw"), LabelDecl("s", sphere=True))
    with pytest.raises(error) as info:
        FiberOracle(labels, facts)
    assert type(info.value) is error and str(info.value) == message


def test_fact_lines_are_deterministic_and_provenanced():
    o = main_oracle("W1")
    lines = o.fact_lines()
    assert lines == o.fact_lines()
    assert any("cited:" in line for line in lines)
    assert any("not-isomorphic(A,B; witness L)" in line for line in lines)


# --------------------------------------------------------------------------
# geometric matching ranks
# --------------------------------------------------------------------------

def _objects(variant):
    f = aux_fibration(variant)
    return f, f.object_named("A"), f.object_named("B"), f.object_named("L")


def test_a_vs_b_exact_two_in_both_variants():
    for variant in ("W0", "W1"):
        f, a, b, _ = _objects(variant)
        r = matching_floer_rank(f, a, b, aux_oracle())
        assert r == 2


def test_b_vs_l_depends_on_variant():
    f1, _, b1, l1 = _objects("W1")
    r1 = matching_floer_rank(f1, b1, l1, aux_oracle())
    assert r1 == 2
    # anchor the underlying geometry independently: exactly one crossing
    assert brute_crossing_count(list(b1.path.vertices),
                                list(l1.path.vertices)) == 1

    f0, _, b0, l0 = _objects("W0")
    r0 = matching_floer_rank(f0, b0, l0, aux_oracle())
    assert r0 == 0
    assert brute_crossing_count(list(b0.path.vertices),
                                list(l0.path.vertices)) == 0


def test_a_vs_l_disjoint_in_both_variants():
    for variant in ("W0", "W1"):
        f, a, _, l = _objects(variant)
        r = matching_floer_rank(f, a, l, aux_oracle())
        assert r == 0


def test_matching_rank_is_symmetric():
    for variant in ("W0", "W1"):
        f, a, b, l = _objects(variant)
        o = aux_oracle()
        for x, y in ((a, b), (b, l), (a, l)):
            assert matching_floer_rank(f, x, y, o) == \
                matching_floer_rank(f, y, x, o)


def test_missing_parity_blocks_exact_promotion():
    f, a, b, _ = _objects("W1")
    bare = aux_oracle(with_parity=False)
    # two crossings of rank-one blocks: the count 2 only bounds the rank
    with pytest.raises(MissingParity):
        matching_floer_rank(f, a, b, bare)


