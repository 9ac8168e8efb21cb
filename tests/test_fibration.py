"""Fibration schema, validation, and handle-attachment homology."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction as Q
from importlib import resources

import pytest

from lefbench import fibration, minpos
from lefbench.disc import BoundaryAngle, DiscModel, Puncture
from lefbench.errors import (Inconsistent, LefbenchError, MissingClass,
                             UnresolvedSign)
from lefbench.config import load_config
from lefbench.exactgeom import box_pairs_between
from lefbench.fibration import (AbstractFiber, Crit, Fibration, HomologyTable,
                                MatchingObject, TotalSpaceFiber,
                                matching_cycle_class, total_space_homology,
                                validate)
from lefbench.minpos import compute_crossings
from lefbench.rank_calculus import FsHomRanks
from lefbench.tower import build_stage

import oracles
from oracles import (all_pairs_path_findings, attachment_homology,
                     sympy_kernel_basis, sympy_kernel_coordinates)
from scen import (arc_through, aux_fibration, circle_fiber, empty_fibration,
                  fan, hpt, main_disc, main_fibration, matching, point_of,
                  pt, sphere_fiber, ts3_fibration, vanishing)


# --------------------------------------------------------------------------
# homology tables
# --------------------------------------------------------------------------

def test_table_normalization():
    t = HomologyTable(((3, 1, ()), (0, 1, ()), (1, 0, ())))
    assert t.groups == ((0, 1, ()), (3, 1, ()))
    assert t.degrees() == (0, 3)
    assert t.free_rank(3) == 1 and t.free_rank(1) == 0
    assert t.torsion(3) == ()


def test_table_rejections():
    with pytest.raises(LefbenchError):
        HomologyTable(((0, -1, ()),))
    with pytest.raises(LefbenchError):
        HomologyTable(((1, 0, (3, 2)),))      # 2 does not divide by 3
    with pytest.raises(LefbenchError):
        HomologyTable(((1, 0, (1,)),))
    with pytest.raises(LefbenchError):
        HomologyTable(((0, 1, ()), (0, 2, ())))


def test_torsion_invariants_are_checked_before_their_divisibility():
    # a zero invariant would be a divisor in the divisibility chain test;
    # a list with both faults reports the first
    with pytest.raises(LefbenchError, match="in degree 1 must be >= 2$"):
        HomologyTable(((1, 0, (0, 2)),))
    with pytest.raises(LefbenchError, match="in degree 1 must be >= 2$"):
        HomologyTable(((1, 0, (4, 6, 1)),))


def test_euler_and_mod2():
    t = HomologyTable.of({0: (1, ()), 1: (0, (2,)), 3: (2, (3, 6))})
    assert t.euler() == 1 - 0 - 2     # torsion invisible to chi
    # mod 2: deg 0 free; deg 1 has Z/2; deg 2 picks up Tor from deg 1;
    # deg 3 has free 2 plus the even invariant 6; deg 4 Tor from 6,
    assert t.mod2_table() == ((0, 1), (1, 1), (2, 1), (3, 3), (4, 1))


def test_abstract_fiber_guards():
    with pytest.raises(LefbenchError):
        AbstractFiber("f", 3, HomologyTable.of({0: (1, ())}), ())
    with pytest.raises(LefbenchError):
        AbstractFiber("f", 2, HomologyTable.of({0: (1, ()), 1: (1, ())}),
                      (("z", (1, 2)),))      # wrong class length
    fib = circle_fiber()
    assert fib.middle_degree == 1
    assert fib.cycle_class("belt") == (1,)
    with pytest.raises(MissingClass):
        fib.cycle_class("ghost")


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_shipped_fibrations_validate_clean():
    for f in (aux_fibration("W0"), aux_fibration("W1"),
              main_fibration("W0"), main_fibration("W1"),
              ts3_fibration(), empty_fibration()):
        report = validate(f)
        assert not report.violations, report.violations
        assert any("corner smoothing" in n for n in report.notes)


def test_crossing_vanishing_paths_flagged():
    f = ts3_fibration()
    # reroute b's path so it crosses a's straight ray to (-1, 0)
    detour = vanishing(f.disc, "b", Q(5, 8), pt(0, Q(1, 2)),
                       pt(Q(-3, 4), Q(1, 4)), pt(Q(-1, 2), Q(-1, 4)))
    bad = Fibration(f.name, f.disc, f.fiber,
                    (f.crits[0], Crit("b", detour, "zs")), f.reference_angle)
    report = validate(bad)
    assert any("cross" in v for v in report.violations)


def test_shared_reference_endpoint_is_a_note():
    f = ts3_fibration()
    bent_a = vanishing(f.disc, "a", Q(0), pt(0, Q(3, 4)))
    straight_b = vanishing(f.disc, "b", Q(0))
    g = Fibration(f.name, f.disc, f.fiber,
                  (Crit("a", bent_a, "zs"), Crit("b", straight_b, "zs")),
                  BoundaryAngle(Q(0)))
    report = validate(g)
    assert not report.violations
    assert any("share the reference endpoint" in n for n in report.notes)


@pytest.mark.parametrize("mid, defect", [
    ((pt(0, Q(1, 2)), pt(Q(3, 4), 0)),
     "reach the reference endpoint along one line, so their order there is"
     " undecided"),
    ((pt(0, Q(1, 2)), pt(Q(7, 8), Q(-1, 4))),
     "cross away from the reference endpoint")])
def test_shared_reference_endpoint_must_order_disjoint_paths(mid, defect):
    # a's path ends at b's end, the reference angle 0: along b's radial
    # last segment, or from below after crossing b's path
    f = ts3_fibration()
    g = Fibration(f.name, f.disc, f.fiber,
                  (Crit("a", vanishing(f.disc, "a", Q(0), *mid), "zs"),
                   f.crits[1]), BoundaryAngle(Q(0)))
    report = validate(g)
    assert report.violations == (
        f"[ts3] vanishing paths of 'a' and 'b' {defect}",)
    with pytest.raises(LefbenchError, match=f"{defect}; a tower stage is"
                       " counted on disjoint vanishing paths$"):
        build_stage(g, g.crits[1], g.crits[0], 0, FsHomRanks(1, 0, 1))


def test_shared_non_reference_endpoint_flagged():
    f = ts3_fibration()
    bent_a = vanishing(f.disc, "a", Q(0), pt(0, Q(3, 4)))
    straight_b = vanishing(f.disc, "b", Q(0))
    g = Fibration(f.name, f.disc, f.fiber,
                  (Crit("a", bent_a, "zs"), Crit("b", straight_b, "zs")),
                  BoundaryAngle(Q(1, 2)))
    report = validate(g)
    assert any("non-reference boundary endpoint" in v
               for v in report.violations)


def test_path_through_third_puncture_flagged():
    f = ts3_fibration()
    through = matching(f.disc, "a", "b")     # fine: no third puncture
    disc3 = DiscModel(f.disc.punctures + (("c", hpt(0, 0)),))
    crits = (Crit("a", vanishing(disc3, "a", Q(1, 2)), "zs"),
             Crit("b", vanishing(disc3, "b", Q(0)), "zs"),
             Crit("c", vanishing(disc3, "c", Q(3, 4)), "zs"))
    mo = MatchingObject("zero-section", arc_through(
        (point_of(disc3, "a"), point_of(disc3, "b")), through.start,
        through.end), "zs", "zs")
    bad = Fibration("ts3x", disc3, sphere_fiber(), crits,
                    BoundaryAngle(Q(0)), objects=(mo,))
    report = validate(bad)
    assert any("passes through puncture" in v for v in report.violations)


def test_undeclared_label_flagged():
    f = ts3_fibration()
    bad = Fibration(f.name, f.disc, f.fiber,
                    (f.crits[0], Crit("b", f.crits[1].path, "mystery")),
                    f.reference_angle)
    report = validate(bad)
    assert any("not declared" in v for v in report.violations)
    # a thimble carries its one label on both slots: reported once
    thimble = MatchingObject("T", f.crits[0].path, "mystery", "mystery")
    report = validate(replace(f, objects=(thimble,)))
    assert [v for v in report.violations if "object 'T'" in v] == [
        f"[{f.name}] object 'T': cycle label 'mystery' is not declared"]


def test_unmatched_labels_without_isotopy_flagged():
    fib = AbstractFiber(
        "two-classes", 2,
        HomologyTable.of({0: (1, ()), 1: (2, ())}),
        (("u", (1, 0)), ("v", (0, 1))))
    f = ts3_fibration()
    crits = (Crit("a", f.crits[0].path, "u"), Crit("b", f.crits[1].path, "v"))
    mo = MatchingObject("m", matching(f.disc, "a", "b"), "u", "v")
    bad = Fibration("mixed", f.disc, fib, crits, f.reference_angle,
                    objects=(mo,))
    report = validate(bad)
    assert any("not declared isotopic" in v for v in report.violations)


def test_bifibration_validation_recurses():
    f = main_fibration("W1")
    inner = f.fiber.fibration
    broken_inner = Fibration(
        inner.name, inner.disc, inner.fiber,
        inner.crits[:1] + (Crit("c-right", inner.crits[1].path, "ghost"),
                           inner.crits[2]),
        inner.reference_angle, objects=inner.objects)
    bad = Fibration(f.name, f.disc, TotalSpaceFiber(broken_inner), f.crits,
                    f.reference_angle)
    report = validate(bad)
    assert any("ghost" in v for v in report.violations)


def _faulty_level(name, fiber, good):
    """A fibration over the main disc with punctures c, d, e added, with
    findings from every check: e's path starts with a zero-length segment,
    b's label is undeclared, b's and c's paths share the reference end,
    d's path crosses a's, object Z is no legal arc and object M has an
    undeclared label.  good is a label that fiber declares."""
    disc = DiscModel(main_disc().punctures + (
        ("c", hpt(0, Q(1, 2))), ("d", hpt(0, Q(-1, 2))),
        ("e", hpt(Q(1, 2), Q(-1, 2)))))
    crits = (
        Crit("e", vanishing(disc, "e", Q(7, 8), point_of(disc, "e")), good),
        Crit("a", vanishing(disc, "a", Q(1, 2)), good),
        Crit("b", vanishing(disc, "b", Q(0)), "ghost"),
        Crit("c", vanishing(disc, "c", Q(0)), good),
        Crit("d", vanishing(disc, "d", Q(1, 4), pt(Q(-3, 4), Q(-1, 4)),
                            pt(Q(-3, 4), Q(1, 4))), good))
    objects = (
        MatchingObject("A", matching(disc, "a", "b"), good, good),
        MatchingObject("Z", matching(disc, "a", "b", point_of(disc, "a")),
                       "ghost", "ghost"),
        MatchingObject("M", matching(disc, "a", "b"), good, "ghost"))
    return Fibration(name, disc, fiber, crits, BoundaryAngle(Q(0)),
                     objects=objects)


def test_bifibration_report_orders_every_finding():
    # per level: crit paths and labels in crit order, then path pairs in
    # pair order, then objects, then the corner note; the inner level's
    # violations and notes follow the outer level's
    inner = _faulty_level("inner", circle_fiber(), "belt")
    report = validate(_faulty_level("outer", TotalSpaceFiber(inner), "A"))

    def level(name, good):
        zero = "zero-length segment at vertex 0"
        return ([f"[{name}] vanishing path of 'e': {zero}",
                 f"[{name}] cycle label 'ghost' of 'b' is not declared"]
                + [f"[{name}] vanishing paths of 'e' and {p!r}: {zero}"
                   for p in "abcd"]
                + [f"[{name}] vanishing paths of 'a' and 'd' cross 1 time(s)"
                   " in minimal position",
                   f"[{name}] object 'Z': {zero}",
                   f"[{name}] object 'M': cycle label 'ghost' is not"
                   " declared",
                   f"[{name}] object 'M': cycle labels {good!r}, 'ghost' are"
                   " not declared isotopic, so the two thimbles do not close"
                   " up to a matching cycle"],
                [f"[{name}] vanishing paths of 'b' and 'c' share the"
                 " reference endpoint",
                 f"[{name}] corner smoothing along the boundary is a no-op"
                 " at this combinatorial level"])

    outer_v, outer_n = level("outer", "A")
    inner_v, inner_n = level("inner", "belt")
    assert report == (tuple(outer_v + inner_v), tuple(outer_n + inner_n))


@pytest.mark.parametrize("n", range(3, 17))
def test_path_findings_match_all_pairs_on_fans(n):
    for seed in range(4):
        f = fan(random.Random(seed), n)
        assert f.path_findings == all_pairs_path_findings(f)


def _two_paths(a, b, reference):
    f = ts3_fibration()
    return Fibration(f.name, f.disc, f.fiber, (Crit("a", a, "zs"),
                                                Crit("b", b, "zs")),
                     BoundaryAngle(Q(reference)))


def test_path_findings_match_all_pairs_on_special_pairs():
    disc = ts3_fibration().disc
    a, b = vanishing(disc, "a", Q(1, 2)), vanishing(disc, "b", Q(0))
    cases = [
        # a's path starts with a zero-length segment; its box and b's are
        # apart, so the pair is checked because a is no legal arc
        (_two_paths(vanishing(disc, "a", Q(1, 2), point_of(disc, "a")), b,
                    0),
         (True, "vanishing paths of 'a' and 'b': zero-length segment at"
          " vertex 0")),
        (_two_paths(vanishing(disc, "a", Q(0), pt(0, Q(3, 4))), b, 0),
         (False, "vanishing paths of 'a' and 'b' share the reference"
          " endpoint")),
        (_two_paths(vanishing(disc, "a", Q(0), pt(0, Q(3, 4))), b, Q(1, 2)),
         (True, "vanishing paths of 'a' and 'b' share a non-reference"
          " boundary endpoint")),
        (_two_paths(a, vanishing(disc, "b", Q(5, 8), pt(0, Q(1, 2)),
                                 pt(Q(-3, 4), Q(1, 4)),
                                 pt(Q(-1, 2), Q(-1, 4))), 0),
         (True, "vanishing paths of 'a' and 'b' cross 1 time(s) in minimal"
          " position")),
    ]
    for f, finding in cases:
        assert f.path_findings == all_pairs_path_findings(f)
        assert finding in f.path_findings


def test_validate_searches_crossings_only_where_paths_touch(monkeypatch):
    # pairs of a fan's legal paths whose closed segments share no point are
    # disjoint, and a shared boundary end is refused before any search
    f = fan(random.Random(0), 16)
    searched = []

    def counted(a, b):
        searched.append((a, b))
        return compute_crossings(a, b)
    monkeypatch.setattr(minpos, "compute_crossings", counted)
    monkeypatch.setattr(fibration, "compute_crossings", counted)
    validate(f)
    paths = [c.path for c in f.crits]
    touching = [(a, b) for a, b in itertools.combinations(paths, 2)
                if any(oracles._closed_segments_touch(a1, a2, b1, b2)
                       for a1, a2 in oracles.segments(a)
                       for b1, b2 in oracles.segments(b))]
    near = [(a, b) for a, b in itertools.combinations(paths, 2)
            if any(box_pairs_between(a.boxes, b.boxes))]
    assert any(a.end == b.end for a, b in touching)
    assert 0 < len(touching) < len(near)
    assert searched == [(a, b) for a, b in touching if a.end != b.end]


# --------------------------------------------------------------------------
# total space homology
# --------------------------------------------------------------------------

def test_empty_fibration_keeps_fiber_homology():
    f = empty_fibration()
    assert total_space_homology(f) == f.fiber.homology


def test_ts3_homology_is_a_three_sphere():
    t = total_space_homology(ts3_fibration())
    assert t == HomologyTable.of({0: (1, ()), 3: (1, ())})
    assert t.euler() == 0
    want = attachment_homology({0: (1, []), 2: (1, [])}, [[1], [1]], 3)
    assert {d: (f, tuple(tor)) for d, (f, tor) in want.items()} == \
        {d: (f, tor) for d, f, tor in t.groups}


def test_aux_total_space_homology():
    for variant in ("W0", "W1"):
        t = total_space_homology(aux_fibration(variant))
        assert t == HomologyTable.of({0: (1, ()), 2: (2, ())})
        assert t.euler() == 3
        want = attachment_homology({0: (1, []), 1: (1, [])},
                                   [[1], [1], [1]], 2)
        assert {d: (f, tuple(tor)) for d, (f, tor) in want.items()} == \
            {d: (f, tor) for d, f, tor in t.groups}


def test_main_homology_agrees_between_variants():
    tables = {}
    for variant in ("W0", "W1"):
        t = total_space_homology(main_fibration(variant))
        assert t == HomologyTable.of({0: (1, ()), 2: (1, ()), 3: (1, ())})
        assert t.euler() == 1
        tables[variant] = t
    assert tables["W0"] == tables["W1"]
    assert tables["W0"].mod2_table() == tables["W1"].mod2_table()


def test_main_homology_against_one_level_oracle():
    f = main_fibration("W1")
    aux = f.fiber.fibration
    cls = {mo.name: matching_cycle_class(aux, mo)
           for mo in aux.objects if mo.name in ("A", "B")}
    u_table = {0: (1, []), 2: (2, [])}
    want = attachment_homology(u_table, [list(cls["A"]), list(cls["B"])], 3)
    t = total_space_homology(f)
    assert {d: (fr, tuple(tor)) for d, (fr, tor) in want.items()} == \
        {d: (fr, tor) for d, fr, tor in t.groups}


def test_homology_invariant_under_crit_relabeling():
    f = aux_fibration("W1")
    base = total_space_homology(f)
    for perm in itertools.permutations(f.crits):
        g = Fibration(f.name, f.disc, f.fiber, perm, f.reference_angle,
                      objects=f.objects)
        assert total_space_homology(g) == base


def test_homology_invariant_under_path_isotopy():
    f = ts3_fibration()
    bent = vanishing(f.disc, "b", Q(0), pt(Q(5, 8), Q(1, 8)),
                     pt(Q(3, 4), Q(0)))
    g = Fibration(f.name, f.disc, f.fiber,
                  (f.crits[0], Crit("b", bent, "zs")), f.reference_angle)
    assert not validate(g).violations
    assert total_space_homology(g) == total_space_homology(f)


def test_torsion_in_attach_target_refused():
    fib = AbstractFiber(
        "torsioned", 2,
        HomologyTable.of({0: (1, ()), 1: (1, (2,))}),
        (("z", (1,)),))
    f = ts3_fibration()
    crits = (Crit("a", f.crits[0].path, "z"),)
    bad = Fibration("t", f.disc, fib, crits, f.reference_angle)
    # a failed handle model caches nothing: every read raises again
    for _ in range(2):
        with pytest.raises(Inconsistent, match="torsion in degree 1"):
            total_space_homology(bad)
        with pytest.raises(Inconsistent, match="torsion in degree 1"):
            bad.handle_model
    # with nothing attached the fiber's table stands, torsion included:
    # the handle model is never derived
    bare = Fibration("t", f.disc, fib, (), f.reference_angle)
    assert total_space_homology(bare) == fib.homology


def _random_attachments():
    """Sixty fibrations, each over a fiber with H_1 free of rank 0-3 and
    with a random vanishing cycle class per critical value."""
    import random
    rng = random.Random(4096)
    for _ in range(60):
        width = rng.randint(0, 3)
        ncrits = rng.randint(0, 4)
        labels = [f"c{i}" for i in range(ncrits)]
        classes = tuple(
            (lab, tuple(rng.randint(-3, 3) for _ in range(width)))
            for lab in labels)
        fib = AbstractFiber(
            "rnd", 2,
            HomologyTable.of({0: (1, ()), 1: (width, ())}),
            classes)
        disc = DiscModel(tuple(
            (lab, hpt(Q(i + 1, ncrits + 2), 0))
            for i, lab in enumerate(labels)))
        crits = tuple(
            Crit(lab, vanishing(disc, lab, Q(0)), lab) for lab in labels)
        yield Fibration("rnd", disc, fib, crits, BoundaryAngle(Q(1, 2)))


def test_random_abstract_attachments_match_oracle():
    for f in _random_attachments():
        t = total_space_homology(f)
        want = attachment_homology(
            {0: (1, []), 1: (f.fiber.homology.free_rank(1), [])},
            [list(vec) for _, vec in f.fiber.cycle_classes], 2)
        assert {d: (fr, tuple(tor)) for d, (fr, tor) in want.items()} == \
            {d: (fr, tor) for d, fr, tor in t.groups}


def test_random_matching_classes_rebuild_their_cell_cycles():
    # the class is the cell cycle: -1, +1 over equal classes, +1, +1 over
    # opposite ones, a kernel vector of the attachment matrix
    pairs = 0
    for f in _random_attachments():
        classes = [vec for _, vec in f.fiber.cycle_classes]
        for (i, ci), (j, cj) in itertools.permutations(enumerate(f.crits), 2):
            mo = MatchingObject("m", matching(f.disc, ci.puncture, cj.puncture),
                                ci.cycle_label, cj.cycle_label)
            if not any(classes[i]) and not any(classes[j]):
                with pytest.raises(UnresolvedSign):
                    matching_cycle_class(f, mo)
                continue
            opposite = classes[i] == tuple(-x for x in classes[j])
            if classes[i] != classes[j] and not opposite:
                continue
            cells = [0] * len(f.crits)
            cells[i], cells[j] = (1 if opposite else -1), 1
            assert matching_cycle_class(f, mo) == tuple(cells)
            assert not any(sum(c * vec[d] for c, vec in zip(cells, classes))
                           for d in range(len(classes[i])))
            pairs += 1
    # the seed gives five pairs of equal or opposite nonzero classes, each
    # taken in both orders
    assert pairs == 10


def _with_matchings(rng, name, disc, fiber, crits, classes):
    """A fibration over these crits, with a matching object over every
    ordered pair of distinct crits whose classes are equal or opposite and
    nonzero (so both orders: opposite classes of objects), and one over a
    loop at a random crit (a zero class)."""
    pairs = itertools.permutations(enumerate(crits), 2)
    objects = [MatchingObject(f"{name}{i}.{j}",
                              matching(disc, ci.puncture, cj.puncture),
                              ci.cycle_label, cj.cycle_label)
               for (i, ci), (j, cj) in pairs
               if any(classes[i]) and classes[i] in
               (classes[j], tuple(-x for x in classes[j]))]
    c = rng.choice(crits)
    objects.append(MatchingObject(f"{name}-loop", matching(
        disc, c.puncture, c.puncture, pt(Q(1, 64), Q(1, 8))),
        c.cycle_label, c.cycle_label))
    return Fibration(name, disc, fiber, tuple(crits), BoundaryAngle(Q(3, 4)),
                     objects=tuple(objects))


def _row_disc(n):
    return DiscModel(tuple((f"p{i}", hpt(Q(i + 1, n + 2) - Q(1, 2), 0))
                           for i in range(n)))


def _random_bifibration(rng, depth):
    """A fibration depth (2 or 3) levels deep.  The innermost fiber has H_1
    of rank 1-3, H_2 of rank 0-2 (the zeros in front of a class in the
    kernel basis, and none in front of a cell cycle), and two to five
    crits with classes drawn from one or two vectors and their negatives,
    so repeated and negated; each outer level has one to four crits,
    labelled by random matching objects of the level inside."""
    width = rng.randint(1, 3)
    pool = [tuple(rng.randint(-2, 2) for _ in range(width))
            for _ in range(rng.randint(1, 2))]
    pool += [tuple(-x for x in v) for v in pool]
    n = rng.randint(2, 5)
    vecs = [rng.choice(pool) for _ in range(n)]
    labels = {v: f"v{i}" for i, v in enumerate(dict.fromkeys(vecs))}
    fib = AbstractFiber("rnd", 2, HomologyTable.of(
        {0: (1, ()), 1: (width, ()), 2: (rng.randint(0, 2), ())}),
        tuple((lab, v) for v, lab in labels.items()))
    disc = _row_disc(n)
    crits = [Crit(f"p{i}", vanishing(disc, f"p{i}", Q(3, 4)), labels[v])
             for i, v in enumerate(vecs)]
    f = _with_matchings(rng, "L1-", disc, fib, crits, vecs)
    for level in range(2, depth + 1):
        names = [mo.name for mo in f.objects]
        fiber = TotalSpaceFiber(f)
        n = rng.randint(1, 4)
        disc = _row_disc(n)
        crits = [Crit(f"p{i}", vanishing(disc, f"p{i}", Q(3, 4)),
                      rng.choice(names)) for i in range(n)]
        classes = [fiber.cycle_class(c.cycle_label) for c in crits]
        f = _with_matchings(rng, f"L{level}-", disc, fiber, crits, classes)
    return f


def _kernel_basis_model(f):
    """The homology table of f's total space and the classes of its
    matching objects as they are in the basis of the fiber's generators
    followed by a kernel basis of the attachment matrix, sympy's: each
    object's cell cycle is decided here on those classes, checked against
    matching_cycle_class, and rewritten in the kernel basis."""
    fiber = f.fiber
    if isinstance(fiber, TotalSpaceFiber):
        table, classes = _kernel_basis_model(fiber.fibration)
    else:
        table = {d: (fr, list(t)) for d, fr, t in fiber.homology.groups}
        classes = dict(fiber.cycle_classes)
    k = fiber.dim // 2 + 1
    columns = [classes[c.cycle_label] for c in f.crits]
    n = len(columns)
    kernel = sympy_kernel_basis(list(zip(*columns)) or [[0] * n])
    fiber_part = (0,) * table.get(k, (0, []))[0]
    out = {}
    for mo in f.objects:
        i = f.crits.index(f.crit_for(mo.path.start.name))
        j = f.crits.index(f.crit_for(mo.path.end.name))
        cl, cr = classes[mo.left_cycle], classes[mo.right_cycle]
        cells = [0] * n
        if i != j:
            cells[i], cells[j] = (-1 if cl == cr else 1), 1
        assert matching_cycle_class(f, mo) == tuple(cells)
        coords = sympy_kernel_coordinates(kernel, cells)
        assert coords is not None, "a cell cycle off the kernel"
        out[mo.name] = fiber_part + coords
    return attachment_homology(table, columns, k), out


def test_bifibration_homology_against_kernel_basis_oracle():
    # an outer attachment matrix in cell coordinates has the rank and
    # invariant factors it has in a kernel basis of the inner one, which
    # the oracle uses; depth 3 takes inner classes through two levels
    rng = random.Random(2026)
    nontrivial = 0
    for trial in range(120):
        f = _random_bifibration(rng, 2 + trial % 2)
        want, _ = _kernel_basis_model(f)
        got = total_space_homology(f)
        assert {d: (fr, tuple(tor)) for d, (fr, tor) in want.items()} == \
            {d: (fr, tor) for d, fr, tor in got.groups}
        nontrivial += any(got.torsion(d) for d in got.degrees())
    # some outer cokernels carry torsion, so the factors themselves count
    assert nontrivial


# --------------------------------------------------------------------------
# matching cycle classes
# --------------------------------------------------------------------------

def test_zero_section_class_generates_top_homology():
    # both cells attach along the sphere's class: the kernel of (1 1) is
    # spanned by the zero section's cell cycle
    f = ts3_fibration()
    assert matching_cycle_class(f, f.objects[0]) == (-1, 1)
    assert total_space_homology(f).free_rank(3) == 1


def test_matching_classes_of_a_and_b_agree():
    for variant in ("W0", "W1"):
        aux = aux_fibration(variant)
        a = matching_cycle_class(aux, aux.object_named("A"))
        b = matching_cycle_class(aux, aux.object_named("B"))
        # the third cell is no end of either path
        assert a == b == (-1, 1, 0)


def test_cancelling_pair_gives_zero():
    f = ts3_fibration()
    loop = arc_through((point_of(f.disc, "a"), pt(0, Q(1, 4)),
                        point_of(f.disc, "a")),
                       Puncture("a"), Puncture("a"))
    mo = MatchingObject("null", loop, "zs", "zs")
    assert matching_cycle_class(f, mo) == (0, 0)


def test_thimble_object_has_no_class():
    aux = aux_fibration("W1")
    with pytest.raises(LefbenchError):
        matching_cycle_class(aux, aux.object_named("L"))


def test_opposite_classes_close_up_with_plus_sign():
    fib = AbstractFiber(
        "opp", 2, HomologyTable.of({0: (1, ()), 1: (1, ())}),
        (("u", (1,)), ("v", (-1,))))
    f = ts3_fibration()
    crits = (Crit("a", f.crits[0].path, "u"), Crit("b", f.crits[1].path, "v"))
    g = Fibration("opp", f.disc, fib, crits, f.reference_angle)
    mo = MatchingObject("m", matching(f.disc, "a", "b"), "u", "v")
    assert matching_cycle_class(g, mo) == (1, 1)


def test_cell_cycle_off_the_kernel_is_inconsistent():
    # no check reads a matching object's labels against its crits again:
    # config loading gives it the cycle labels of the crits at its ends
    matchings = 0
    for name in ("W0", "W1", "ts3", "empty-fibration"):
        f = load_config(resources.files("lefbench") / "scenarios"
                        / f"{name}.cfg").fibration
        while True:
            for mo in f.objects:
                if isinstance(mo.path.end, Puncture):
                    assert (mo.left_cycle, mo.right_cycle) == tuple(
                        f.crit_for(e.name).cycle_label
                        for e in (mo.path.start, mo.path.end))
                    matchings += 1
            if not isinstance(f.fiber, TotalSpaceFiber):
                break
            f = f.fiber.fibration
    assert matchings == 5
    # so over crits attached along (1) and (2) the object config builds
    # carries labels u, w, whose cell cycle would be no kernel vector of
    # (1 2): validation refuses it and no class is made up for it
    fib = AbstractFiber(
        "off", 2, HomologyTable.of({0: (1, ()), 1: (1, ())}),
        (("u", (1,)), ("w", (2,))))
    f = ts3_fibration()
    crits = (Crit("a", f.crits[0].path, "u"), Crit("b", f.crits[1].path, "w"))
    mo = MatchingObject("m", matching(f.disc, "a", "b"), "u", "w")
    g = Fibration("off", f.disc, fib, crits, f.reference_angle,
                  objects=(mo,))
    assert validate(g).violations == (
        "[off] object 'm': cycle labels 'u', 'w' are not declared isotopic,"
        " so the two thimbles do not close up to a matching cycle",)
    with pytest.raises(UnresolvedSign, match="neither equal nor opposite"):
        matching_cycle_class(g, mo)


def test_unresolved_sign_cases():
    f = ts3_fibration()
    fib0 = AbstractFiber(
        "null-classes", 2, HomologyTable.of({0: (1, ()), 1: (1, ())}),
        (("z", (0,)),))
    g0 = Fibration("z", f.disc, fib0,
                   (Crit("a", f.crits[0].path, "z"),
                    Crit("b", f.crits[1].path, "z")), f.reference_angle)
    mo0 = MatchingObject("m", matching(f.disc, "a", "b"), "z", "z")
    with pytest.raises(UnresolvedSign):
        matching_cycle_class(g0, mo0)

    fib1 = AbstractFiber(
        "skew", 2, HomologyTable.of({0: (1, ()), 1: (2, ())}),
        (("u", (1, 0)), ("v", (0, 1))))
    g1 = Fibration("skew", f.disc, fib1,
                   (Crit("a", f.crits[0].path, "u"),
                    Crit("b", f.crits[1].path, "v")), f.reference_angle)
    mo1 = MatchingObject("m", matching(f.disc, "a", "b"), "u", "v")
    with pytest.raises(UnresolvedSign):
        matching_cycle_class(g1, mo1)


def test_total_space_fiber_reports_classes():
    f = main_fibration("W1")
    fiber = f.fiber
    assert fiber.dim == 4
    assert fiber.cycle_class("A") == fiber.cycle_class("B")
    assert fiber.has_label("L")
    with pytest.raises(MissingClass):
        fiber.cycle_class("nonesuch")
