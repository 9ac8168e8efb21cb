"""Programmatic twins of the shipped scenario configs.

Test modules build fibrations directly from these helpers so unit tests do
not depend on the config parser; test_config.py (test_shipped_main_scenarios
and its siblings) asserts that parsing the shipped files yields exactly these
objects.
"""

from fractions import Fraction as Q

from lefbench.disc import BoundaryAngle, DiscModel, PlanarArc, Puncture
from lefbench.exactgeom import Pt
from lefbench.fibration import (AbstractFiber, Crit, Fibration, HomologyTable,
                                MatchingObject, TotalSpaceFiber)
from lefbench.oracle import ALL_SAME, Fact, FiberOracle, LabelDecl, Provenance
from oracles import circle_point, homog, point


def cited(slug: str) -> Provenance:
    return Provenance("cited", slug)


def assumed(slug: str) -> Provenance:
    return Provenance("assumed", slug)


def pt(x, y) -> Pt:
    return Pt(Q(x), Q(y))


def hpt(x, y):
    """The reduced triple of the point (x, y), as a disc keeps a
    puncture."""
    return homog(pt(x, y))


def point_of(disc: DiscModel, name: str) -> Pt:
    """The Fraction point of puncture ``name``."""
    return point(disc.hpoint_of(name))


def arc_through(points, *fields) -> PlanarArc:
    """The arc through the given Fraction points; fields follow hverts."""
    return PlanarArc(tuple(map(homog, points)), *fields)


def vanishing(disc: DiscModel, name: str, angle, *mid) -> PlanarArc:
    """Straight-ish vanishing path from puncture ``name`` out to ``angle``."""
    end = BoundaryAngle(Q(angle))
    vs = (point_of(disc, name),) + tuple(mid) + (circle_point(end.angle),)
    return arc_through(vs, Puncture(name), end)


def matching(disc: DiscModel, a: str, b: str, *mid) -> PlanarArc:
    vs = (point_of(disc, a),) + tuple(mid) + (point_of(disc, b),)
    return arc_through(vs, Puncture(a), Puncture(b))


def circle_fiber() -> AbstractFiber:
    """Cotangent bundle of the circle, truncated: an annulus."""
    return AbstractFiber(
        name="circle-cotangent",
        dim=2,
        homology=HomologyTable.of({0: (1, ()), 1: (1, ())}),
        cycle_classes=(("belt", (1,)),),
    )


def aux_disc(variant: str) -> DiscModel:
    third = hpt(0, 0) if variant == "W1" else hpt(0, Q(-1, 2))
    name = "c-mid" if variant == "W1" else "c-out"
    return DiscModel(punctures=(
        ("c-left", hpt(Q(-1, 4), 0)),
        ("c-right", hpt(Q(1, 4), 0)),
        (name, third),
    ))


def aux_fibration(variant: str, oracle=None) -> Fibration:
    """The inner fibration: three critical values, all with belt cycles.

    W1 places the third critical value between the two matching paths; W0
    places it south of both.  Everything else is shared.
    """
    assert variant in ("W0", "W1")
    disc = aux_disc(variant)
    third = "c-mid" if variant == "W1" else "c-out"
    crits = (
        Crit("c-left", vanishing(disc, "c-left", Q(5, 8)), "belt"),
        Crit("c-right", vanishing(disc, "c-right", Q(7, 8)), "belt"),
        Crit(third, vanishing(disc, third, Q(3, 4)), "belt"),
    )
    alpha = matching(disc, "c-left", "c-right",
                     pt(Q(-3, 20), Q(1, 5)), pt(Q(3, 20), Q(1, 5)))
    beta = matching(disc, "c-left", "c-right",
                    pt(Q(-3, 20), Q(-1, 5)), pt(Q(3, 20), Q(-1, 5)))
    objects = (
        MatchingObject("A", alpha, "belt", "belt"),
        MatchingObject("B", beta, "belt", "belt"),
        MatchingObject("L", crits[2].path, "belt", "belt"),
    )
    return Fibration(
        name=f"aux-{variant}", disc=disc, fiber=circle_fiber(), crits=crits,
        reference_angle=BoundaryAngle(Q(3, 4)), oracle=oracle, objects=objects)


def main_disc() -> DiscModel:
    return DiscModel(punctures=(
        ("a", hpt(Q(-1, 2), 0)),
        ("b", hpt(Q(1, 2), 0)),
    ))


def main_fibration(variant: str, aux_oracle=None, main_oracle=None) -> Fibration:
    disc = main_disc()
    aux = aux_fibration(variant, oracle=aux_oracle)
    crits = (
        Crit("a", vanishing(disc, "a", Q(1, 2)), "A"),
        Crit("b", vanishing(disc, "b", Q(0)), "B"),
    )
    return Fibration(
        name=f"main-{variant}", disc=disc, fiber=TotalSpaceFiber(aux),
        crits=crits, reference_angle=BoundaryAngle(Q(0)),
        oracle=main_oracle)


def sphere_fiber() -> AbstractFiber:
    """Cotangent bundle of the two-sphere, truncated."""
    return AbstractFiber(
        name="sphere-cotangent",
        dim=4,
        homology=HomologyTable.of({0: (1, ()), 2: (1, ())}),
        cycle_classes=(("zs", (1,)),),
    )


def ts3_fibration(oracle=None) -> Fibration:
    disc = main_disc()
    crits = (
        Crit("a", vanishing(disc, "a", Q(1, 2)), "zs"),
        Crit("b", vanishing(disc, "b", Q(0)), "zs"),
    )
    objects = (MatchingObject("zero-section", matching(disc, "a", "b"),
                              "zs", "zs"),)
    return Fibration(
        name="ts3", disc=disc, fiber=sphere_fiber(), crits=crits,
        reference_angle=BoundaryAngle(Q(0)), oracle=oracle, objects=objects)


def fan(rng, n: int, width: int = 20) -> Fibration:
    """A seeded fan: n punctures on the x-axis, at x = k / (2 width) for n
    distinct integers |k| <= width, each with a vanishing path down
    through one point below it to an angle of the lower half circle, the
    angles in the punctures' order but for one swapped neighbour pair.
    The middle points wander, so paths may cross, and two paths may share
    an end."""
    xs = sorted(rng.sample(range(-width, width + 1), n))
    taus = sorted(rng.choice(range(27, 48)) for _ in range(n))
    k = rng.randrange(n - 1)
    taus[k], taus[k + 1] = taus[k + 1], taus[k]
    disc = DiscModel(tuple((f"p{i}", hpt(Q(x, 2 * width), 0))
                           for i, x in enumerate(xs)))
    crits = tuple(
        Crit(f"p{i}", vanishing(disc, f"p{i}", Q(tau, 52),
                                pt(Q(x + rng.randint(-12, 12), 2 * width),
                                   Q(-rng.randint(2, 24), 40))), "belt")
        for i, (x, tau) in enumerate(zip(xs, taus)))
    return Fibration(f"fan-{n}", disc, circle_fiber(), crits,
                     BoundaryAngle(Q(1, 4)))


def empty_fibration() -> Fibration:
    disc = DiscModel(punctures=())
    return Fibration(
        name="no-crits", disc=disc, fiber=circle_fiber(), crits=(),
        reference_angle=BoundaryAngle(Q(0)))


def aux_oracle(with_parity: bool = True) -> FiberOracle:
    parity = (Fact("parity", ("belt", "belt"), ALL_SAME,
                   cited("crossing-generators-share-grading")),)
    return FiberOracle(
        label_decls=(LabelDecl("belt", sphere=True),),
        facts=parity if with_parity else ())


def main_oracle(variant: str) -> FiberOracle:
    """The main oracle of a shipped scenario, its facts in file order."""
    assert variant in ("W0", "W1")
    labels = (LabelDecl("A", sphere=True), LabelDecl("B", sphere=True),
              LabelDecl("L"))
    facts = [Fact("rank", ("A", "B"), 2,
                  cited("matching-paths-share-two-endpoints"))]
    if variant == "W0":
        facts += [Fact("isotopic", ("A", "B"), None,
                       cited("pushed-off-matching-paths")),
                  Fact("disjoint", ("A", "L"), None, cited("paths-apart")),
                  Fact("disjoint", ("B", "L"), None, cited("paths-apart"))]
    else:
        facts += [Fact("rank", ("B", "L"), 2,
                       cited("single-crossing-belt-pair")),
                  Fact("disjoint", ("A", "L"), None, cited("paths-apart")),
                  Fact("witness", ("A", "B", "L"), None,
                       cited("witness-schema"))]
    facts += [Fact("parity", ("A", "B"), ALL_SAME,
                   cited("endpoint-generators-share-grading")),
              Fact("parity", ("A", "A"), ALL_SAME,
                   assumed("uniform-self-grading")),
              Fact("parity", ("B", "B"), ALL_SAME,
                   assumed("uniform-self-grading"))]
    return FiberOracle(label_decls=labels, facts=tuple(facts))


def full_main_fibration(variant: str) -> Fibration:
    """Main fibration with both oracles attached, as the configs ship it."""
    return main_fibration(variant, aux_oracle=aux_oracle(),
                          main_oracle=main_oracle(variant))
