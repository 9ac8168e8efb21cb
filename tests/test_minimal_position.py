"""Crossing computation, bigon elimination, intersection profiles.

Expected counts here are frozen from the naive quadratic sweep in
tests/oracles.py, which shares no code with the library, or read from the
bigon surgery there, which reroutes one arc across each lens.
"""

import random
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings, strategies as st

from lefbench.disc import BoundaryAngle, DiscModel, Puncture
from lefbench.errors import (DegenerateTangency, LefbenchError,
                             SharedBoundaryEndpoint)
from lefbench import minpos
from lefbench.minpos import (Chains, _canonically_after, compute_crossings,
                             eliminate_bigon, find_empty_bigons,
                             intersection_profile, minimal_position)

from oracles import (GenericityError, all_pairs_crossings, brute_crossing_count,
                     canonical_key, first_bigon_reduction,
                     fraction_eliminate_bigon, fraction_empty_bigons, homog,
                     point_at, point_on_segment, segments)
from scen import arc_through, aux_disc, hpt, point, pt
from test_disc import GRID_POINTS, GRID_POLYLINES, no_zero_length


def disc_pq(extra=()):
    return DiscModel(punctures=(("p", hpt(Q(-1, 2), 0)),
                                ("q", hpt(Q(1, 2), 0))) + tuple(extra))


def matching(disc, vertices, a="p", b="q"):
    arc = arc_through(tuple(vertices), Puncture(a), Puncture(b))
    arc.validate(disc)
    return arc


def test_two_diameters_cross_once():
    disc = DiscModel(punctures=(("w", hpt(Q(1, 4), Q(1, 8))),))
    horizontal = arc_through((pt(-1, 0), pt(1, 0)),
                             BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    vertical = arc_through((pt(0, 1), pt(0, -1)),
                           BoundaryAngle(Q(1, 4)), BoundaryAngle(Q(3, 4)))
    assert intersection_profile(horizontal, vertical, disc) == 1
    assert [point(c.hpoint) for c in compute_crossings(horizontal, vertical)
            ] == [pt(0, 0)]
    assert brute_crossing_count(horizontal.vertices, vertical.vertices) == 1


def test_disjoint_matchings_share_only_punctures():
    disc = disc_pq()
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    detour = matching(disc, [pt(Q(-1, 2), 0), pt(Q(-3, 8), Q(-3, 8)),
                             pt(Q(3, 8), Q(-3, 8)), pt(Q(1, 2), 0)])
    assert intersection_profile(straight, detour, disc) == 0
    assert minpos.shared_ends(straight, detour) == [
        (Puncture("p"), True, True), (Puncture("q"), False, False)]
    anchors = [(Q(-1, 2), Q(0)), (Q(1, 2), Q(0))]
    assert brute_crossing_count(straight.vertices, detour.vertices,
                                anchors) == 0


def wiggle_pair(extra_punctures=()):
    disc = disc_pq(extra_punctures)
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    wiggle = matching(disc, [pt(Q(-1, 2), 0), pt(Q(-1, 4), Q(1, 4)),
                             pt(0, Q(-1, 4)), pt(Q(1, 4), Q(1, 4)),
                             pt(Q(1, 2), 0)])
    return disc, straight, wiggle


def test_pushed_off_copy_reduces_to_disjoint():
    disc, straight, wiggle = wiggle_pair()
    assert len(compute_crossings(straight, wiggle)) == 2
    anchors = [(Q(-1, 2), Q(0)), (Q(1, 2), Q(0))]
    assert brute_crossing_count(straight.vertices, wiggle.vertices,
                                anchors) == 2

    crossings = compute_crossings(straight, wiggle)
    bigons = list(find_empty_bigons(straight, wiggle, disc, crossings))
    assert len(bigons) == 1

    assert minimal_position(straight, wiggle, disc) == []
    assert intersection_profile(straight, wiggle, disc) == 0
    assert [e.name for e, _, _ in minpos.shared_ends(straight, wiggle)] == [
        "p", "q"]
    # the reference surgery reroutes one arc off the other
    a2, b2, left = fraction_eliminate_bigon(straight, wiggle, bigons[0], disc,
                                            crossings)
    assert left == []
    assert brute_crossing_count(a2.vertices, b2.vertices, anchors) == 0


def test_puncture_inside_lens_blocks_elimination():
    """a runs straight from u to v; b runs from s down under a and back up
    to t, crossing it twice.  The arcs share no puncture, so their one lens
    is the only bigon: z inside it keeps both crossings, z below it none."""
    for z, count in ((pt(0, Q(-1, 8)), 2), (pt(0, Q(-3, 8)), 0)):
        disc = DiscModel(punctures=(
            ("u", hpt(Q(-3, 4), 0)), ("v", hpt(Q(3, 4), 0)),
            ("s", hpt(Q(-1, 2), Q(1, 2))), ("t", hpt(Q(1, 2), Q(1, 2))),
            ("z", homog(z))))
        straight = matching(disc, [pt(Q(-3, 4), 0), pt(Q(3, 4), 0)], "u", "v")
        dip = matching(disc, [pt(Q(-1, 2), Q(1, 2)), pt(Q(-1, 4), Q(-1, 4)),
                              pt(Q(1, 4), Q(-1, 4)), pt(Q(1, 2), Q(1, 2))],
                       "s", "t")
        crossings = compute_crossings(straight, dip)
        assert len(crossings) == 2
        bigons = list(find_empty_bigons(straight, dip, disc, crossings))
        assert len(bigons) == (0 if count else 1)
        assert intersection_profile(straight, dip, disc) == count


def test_profile_is_symmetric():
    disc, straight, wiggle = wiggle_pair()
    p1 = intersection_profile(straight, wiggle, disc)
    p2 = intersection_profile(wiggle, straight, disc)
    assert p1 == p2


def subdivide(arc):
    vs = list(arc.vertices)
    out = [vs[0]]
    for a, b in zip(vs, vs[1:]):
        out.append(pt((a.x + b.x) / 2, (a.y + b.y) / 2))
        out.append(b)
    return arc_through(out, arc.start, arc.end)


def test_profile_invariant_under_refinement():
    disc, straight, wiggle = wiggle_pair()
    base = intersection_profile(straight, wiggle, disc)
    fine = intersection_profile(subdivide(straight), subdivide(subdivide(wiggle)),
                                disc)
    assert fine == base


def test_identical_arcs_are_degenerate():
    disc = disc_pq()
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    with pytest.raises(DegenerateTangency):
        compute_crossings(straight, straight)


def test_pinned_collinear_departure_is_degenerate():
    disc = disc_pq()
    straight = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    hugging = matching(disc, [pt(Q(-1, 2), 0), pt(Q(-1, 4), 0),
                              pt(0, Q(1, 4)), pt(Q(1, 2), 0)])
    with pytest.raises(DegenerateTangency, match="shared puncture"):
        compute_crossings(straight, hugging)


def test_unpinned_collinear_overlap_resolves():
    """Two arcs sharing a collinear stretch away from any puncture: the
    perturbation turns the overlap into two transverse corner crossings and
    bigon elimination then pulls the arcs apart."""
    disc = DiscModel(punctures=(("w", hpt(0, Q(1, 2))),))
    a = arc_through((pt(-1, 0), pt(Q(-1, 2), Q(-1, 4)), pt(Q(1, 2), Q(-1, 4)),
                     pt(1, 0)),
                    BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    b = arc_through((pt(Q(-4, 5), Q(-3, 5)), pt(Q(-3, 4), Q(-1, 4)),
                     pt(Q(3, 4), Q(-1, 4)), pt(Q(4, 5), Q(-3, 5))),
                    BoundaryAngle(Q(5, 8)), BoundaryAngle(Q(7, 8)))
    a.validate(disc)
    b.validate(disc)
    crossings = compute_crossings(a, b)
    assert sorted(point(c.hpoint) for c in crossings) == [
        pt(Q(-1, 2), Q(-1, 4)), pt(Q(1, 2), Q(-1, 4))]
    assert minimal_position(a, b, disc) == []
    assert intersection_profile(a, b, disc) == 0


def test_shared_boundary_endpoint_rejected():
    disc = disc_pq()
    a = arc_through((pt(Q(1, 2), 0), pt(1, 0)),
                    Puncture("q"), BoundaryAngle(Q(0)))
    b = arc_through((pt(Q(-1, 2), 0), pt(0, Q(-1, 2)), pt(1, 0)),
                    Puncture("p"), BoundaryAngle(Q(0)))
    with pytest.raises(SharedBoundaryEndpoint):
        intersection_profile(a, b, disc)


def test_shared_ends_say_which_arc_starts_there():
    disc = disc_pq()
    pq = matching(disc, [pt(Q(-1, 2), 0), pt(Q(1, 2), 0)])
    qp = matching(disc, [pt(Q(1, 2), 0), pt(0, Q(1, 4)), pt(Q(-1, 2), 0)],
                  "q", "p")
    q_out = arc_through((pt(Q(1, 2), 0), pt(1, 0)),
                        Puncture("q"), BoundaryAngle(Q(0)))
    p_out = arc_through((pt(Q(-1, 2), 0), pt(0, Q(-1, 2)), pt(1, 0)),
                        Puncture("p"), BoundaryAngle(Q(0)))
    assert minpos.shared_ends(pq, qp) == [(Puncture("p"), True, False),
                                          (Puncture("q"), False, True)]
    assert minpos.shared_ends(qp, q_out) == [(Puncture("q"), True, True)]
    assert minpos.shared_ends(q_out, p_out) == [
        (BoundaryAngle(Q(0)), False, False)]
    assert minpos.shared_ends(pq, p_out) == [
        (Puncture("p"), True, True)]
    # the pinned pairs are the end segments at the shared punctures: the
    # contacts there are no crossings
    assert compute_crossings(pq, qp) == []


# ---------------------------------------------------------------------------
# box-pruned crossings against the all-pairs references
# ---------------------------------------------------------------------------

ANCHOR = pt(0, 0)


def _crossings_or_error(fn, a, b):
    try:
        return fn(a, b)
    except LefbenchError as exc:
        return type(exc)


@settings(max_examples=250, deadline=None)
@given(GRID_POLYLINES, GRID_POLYLINES, st.booleans())
def test_box_pruned_crossings_match_oracles(va, vb, pinned):
    """Random grid polylines, optionally pinned together at a shared
    puncture at their first vertex."""
    if pinned:
        va, vb = [ANCHOR] + va[1:], [ANCHOR] + vb[1:]
        assume(no_zero_length(va) and no_zero_length(vb))
        start_a = start_b = Puncture("p")
    else:
        start_a, start_b = BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(1, 4))
    a = arc_through(tuple(va), start_a, BoundaryAngle(Q(0)))
    b = arc_through(tuple(vb), start_b, BoundaryAngle(Q(3, 4)))

    got = _crossings_or_error(compute_crossings, a, b)
    assert got == _crossings_or_error(all_pairs_crossings, a, b)
    if isinstance(got, type):
        return
    if pinned and any(point_on_segment(ANCHOR, p, q)
                      for arc in (a, b) for p, q in segments(arc)[1:]):
        return  # the naive counter would excuse these contacts too
    try:
        expected = brute_crossing_count(va, vb, [ANCHOR] if pinned else [])
    except GenericityError:
        return
    assert len(got) == expected


# ---------------------------------------------------------------------------
# the integer lens test against the Fraction reference
# ---------------------------------------------------------------------------

INSIDE_POINTS = st.lists(
    GRID_POINTS.filter(lambda p: p.x * p.x + p.y * p.y < 1),
    max_size=5, unique=True)


@settings(max_examples=300, deadline=None)
@given(GRID_POLYLINES, GRID_POLYLINES, st.booleans(), INSIDE_POINTS)
def test_integer_lens_test_matches_fraction_reference(va, vb, pinned, points):
    """Random grid arcs, optionally pinned at a shared puncture, and grid
    punctures: on the grid a puncture often lies on a lens edge or level
    with a lens vertex."""
    if pinned:
        va, vb = [ANCHOR] + va[1:], [ANCHOR] + vb[1:]
        assume(no_zero_length(va) and no_zero_length(vb))
        points = [ANCHOR] + [p for p in points if p != ANCHOR]
        start_a = start_b = Puncture("n0")
    else:
        start_a, start_b = BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(1, 4))
    disc = DiscModel(
        punctures=tuple((f"n{k}", homog(p)) for k, p in enumerate(points)))
    a = arc_through(tuple(va), start_a, BoundaryAngle(Q(0)))
    b = arc_through(tuple(vb), start_b, BoundaryAngle(Q(3, 4)))
    try:
        crossings = compute_crossings(a, b)
    except DegenerateTangency:
        return
    assert (list(find_empty_bigons(a, b, disc, crossings))
            == fraction_empty_bigons(a, b, disc, crossings))


# straight a and a b dipping below it form one pentagonal lens:
# (-1/3, 0) -> (1/3, 0) along a, back along b through (1/4, -1/4),
# (0, -1/2) and (-1/4, -1/4); its right edges run down, its left edges up
LENS_A = arc_through((pt(-1, 0), pt(1, 0)),
                     BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
LENS_B = arc_through((pt(Q(-1, 2), Q(1, 2)), pt(Q(-1, 4), Q(-1, 4)),
                      pt(0, Q(-1, 2)), pt(Q(1, 4), Q(-1, 4)),
                      pt(Q(1, 2), Q(1, 2))),
                     BoundaryAngle(Q(3, 8)), BoundaryAngle(Q(1, 8)))


@pytest.mark.parametrize("puncture, empty", [
    (None, True),
    (pt(0, Q(-1, 4)), False),                 # inside
    (pt(Q(-1, 2), Q(-1, 4)), True),           # ray through two side vertices
    (pt(Q(-1, 2), Q(-1, 2)), True),           # ray through the bottom vertex
    (pt(Q(3, 8), Q(-1, 8)), True),            # on a lens edge's line, outside
    # on a lens edge: the half-open ray counts the edges right of the
    # puncture and skips the one it lies on
    (pt(Q(1, 8), Q(-3, 8)), True),            # on a downward edge
    (pt(Q(-1, 8), Q(-3, 8)), False),          # on an upward edge
])
def test_lens_test_pinned_cases(puncture, empty):
    disc = DiscModel(punctures=() if puncture is None
                     else (("z", homog(puncture)),))
    crossings = compute_crossings(LENS_A, LENS_B)
    assert sorted(point(c.hpoint) for c in crossings) == [pt(Q(-1, 3), 0),
                                                          pt(Q(1, 3), 0)]
    bigons = list(find_empty_bigons(LENS_A, LENS_B, disc, crossings))
    assert len(bigons) == (1 if empty else 0)
    assert bigons == fraction_empty_bigons(LENS_A, LENS_B, disc, crossings)


# ---------------------------------------------------------------------------
# randomized order-independence of bigon elimination
# ---------------------------------------------------------------------------

def random_band_pair(rng):
    """Two x-monotone arcs over a shared grid, endpoints pinned at punctures.

    With no puncture between them every bigon is empty, so repeated
    elimination must always land on the crossing parity of the start."""
    n = rng.randint(3, 6)
    xs = [Q(-3, 4) + Q(3, 2) * Q(i, n) for i in range(n + 1)]

    def heights():
        return [Q(rng.randint(-24, 24), 64) for _ in range(n + 1)]

    f = heights()
    g = heights()
    while any(a == b for a, b in zip(f, g)):
        g = heights()

    disc = DiscModel(punctures=(
        ("fL", hpt(xs[0], f[0])), ("fR", hpt(xs[-1], f[-1])),
        ("gL", hpt(xs[0], g[0])), ("gR", hpt(xs[-1], g[-1]))))
    fa = arc_through(tuple(pt(x, y) for x, y in zip(xs, f)),
                     Puncture("fL"), Puncture("fR"))
    ga = arc_through(tuple(pt(x, y) for x, y in zip(xs, g)),
                     Puncture("gL"), Puncture("gR"))
    fa.validate(disc)
    ga.validate(disc)
    return disc, fa, ga


def survivors(chains):
    """The crossings left in chains, walked along a from the head.  Walked
    forward and back along each list, the same crossings come in rank
    order, and exactly the removed ones have next_a -1."""
    n = len(chains.at_a)
    walks = []
    for step in (chains.next_a, chains.prev_a, chains.next_b, chains.prev_b):
        walk, i = [], step[n]
        while i != n:
            walk.append(chains.at_a[i])
            i = step[i]
        walks.append(walk)
    along_a, back_a, along_b, back_b = walks
    assert back_a == along_a[::-1] and back_b == along_b[::-1]
    assert [c.a_rank for c in along_a] == [
        r for r in range(n) if chains.next_a[r] != -1]
    assert sorted(along_b, key=lambda c: c.a_rank) == along_a
    assert [c.b_rank for c in along_b] == sorted(c.b_rank for c in along_b)
    return along_a


def paired(chains):
    """The pairs, as a_ranks in order along a, adjacent on both lists."""
    left = [c.a_rank for c in survivors(chains)]
    return {(i, j) for i, j in zip(left, left[1:])
            if chains.next_b[i] == j or chains.next_b[j] == i}


@pytest.mark.parametrize("seed", range(100))
def test_random_elimination_order_reaches_parity(seed):
    rng = random.Random(seed)
    disc, f, g = random_band_pair(rng)

    start = len(compute_crossings(f, g))
    diffs = [fi.y - gi.y for fi, gi in zip(f.vertices, g.vertices)]
    sign_changes = sum(1 for a, b in zip(diffs, diffs[1:]) if (a > 0) != (b > 0))
    assert start == sign_changes
    assert brute_crossing_count(f.vertices, g.vertices) == start

    # randomized elimination order
    crossings = compute_crossings(f, g)
    # each lens is built from the corners' points: the point at the
    # crossing's position on either arc
    for c in crossings:
        assert point(c.hpoint) == point_at(f, c.a_pos) == point_at(g, c.b_pos)
    chains = Chains.of(crossings)
    while bigons := list(find_empty_bigons(f, g, disc, crossings)):
        bigon = rng.choice(bigons)
        before, new = paired(chains), []
        eliminate_bigon(bigon, chains, new)
        left = survivors(chains)
        # no arc is rerouted: the bigon's two corners leave the lists
        assert len(left) == len(crossings) - 2
        assert bigon.first not in left and bigon.second not in left
        # the pairs queued are the ones the removal made adjacent on both
        # lists, each once
        assert len(set(new)) == len(new)
        assert set(new) == paired(chains) - before
        crossings = left
    final = len(crossings)
    assert final == start % 2

    # canonical order agrees
    assert len(minimal_position(f, g, disc)) == final


# ---------------------------------------------------------------------------
# the crossing-list reduction against the geometric bigon surgery
# ---------------------------------------------------------------------------

def zigzag_pair(k, rng):
    """The W0 disc, its matching B, and a matching A through k interior
    vertices strictly increasing in x inside B's straight middle stretch,
    alternately above and below it, first and last above (as the
    bigon-surgery benchmark workload builds them).  No puncture lies
    between A and B, so each of the (k - 1) / 2 surgeries removes two of
    the k - 1 crossings."""
    disc = aux_disc("W0")
    left, right = pt(Q(-1, 4), 0), pt(Q(1, 4), 0)
    b = matching(disc, [left, pt(Q(-3, 20), Q(-1, 5)),
                        pt(Q(3, 20), Q(-1, 5)), right], "c-left", "c-right")
    highs, lows = (-7, -3, -1, 1, 3, 7, 9), (-13, -11, -9)   # B: -8
    mids = [pt(Q(-3, 20) + Q(3, 10) * Q(i, k + 1),
               Q(rng.choice(highs if i % 2 else lows), 40))
            for i in range(1, k + 1)]
    a = matching(disc, [left, *mids, right], "c-left", "c-right")
    return disc, a, b


def reduce_by_reference(a, b, disc, pick):
    """Remove bigons geometrically (oracles: the Fraction lens test, and the
    one pick chooses rerouted by the Fraction surgery, checked over the
    whole pair) until none is left; returns the final crossing count."""
    crossings = compute_crossings(a, b)
    while bigons := fraction_empty_bigons(a, b, disc, crossings):
        a, b, crossings = fraction_eliminate_bigon(a, b, pick(bigons), disc,
                                                   crossings)
    return len(crossings)


@pytest.mark.parametrize("seed", range(100))
def test_surgery_matches_fraction_reference_on_band_pairs(seed):
    rng = random.Random(seed)
    disc, f, g = random_band_pair(rng)
    count = intersection_profile(f, g, disc)
    assert reduce_by_reference(f, g, disc, rng.choice) == count


@pytest.mark.parametrize("k", range(9, 22, 2))
def test_surgery_matches_fraction_reference_on_zigzags(k):
    disc, a, b = zigzag_pair(k, random.Random(k))
    assert len(compute_crossings(a, b)) == k - 1
    assert intersection_profile(a, b, disc) == 0
    assert reduce_by_reference(a, b, disc, lambda bigons: bigons[0]) == 0


def shared_ends_pair(rng):
    """Two matching arcs from s = (0, 0) to t = (3/5, 0), each through 1-5
    interior vertices drawn on the 1/100 grid, in a disc whose only
    punctures are s and t.  All such arcs are isotopic rel endpoints, so
    minimal position leaves no crossing; a crossing near s or t can only
    go as a half-bigon."""
    disc = DiscModel(punctures=(("s", hpt(0, 0)), ("t", hpt(Q(3, 5), 0))))
    arcs = []
    for _ in range(2):
        mids = [pt(Q(rng.randint(-20, 80), 100), Q(rng.randint(-30, 30), 100))
                for _ in range(rng.randint(1, 5))]
        arcs.append(arc_through((pt(0, 0), *mids, pt(Q(3, 5), 0)),
                                Puncture("s"), Puncture("t")))
    return disc, *arcs


def test_shared_ends_pairs_have_no_crossing_in_minimal_position():
    counted = 0
    for seed in range(1000):
        disc, a, b = shared_ends_pair(random.Random(seed))
        try:
            a.validate(disc)
            b.validate(disc)
            compute_crossings(a, b)
        except LefbenchError:
            continue
        assert intersection_profile(a, b, disc) == 0, seed
        counted += 1
    assert counted > 300


def test_half_bigon_at_one_shared_puncture():
    """a leaves p radially to the boundary; b leaves p, crosses a once at
    (3/8, 0) and turns back over p to the boundary.  The half-lens of p and
    that crossing holds no puncture (q lies below it), so the arcs can be
    pulled apart."""
    disc = DiscModel(punctures=(("p", hpt(0, 0)), ("q", hpt(0, Q(-1, 2)))))
    a = arc_through((pt(0, 0), point(BoundaryAngle(Q(0)).hpoint)),
                    Puncture("p"), BoundaryAngle(Q(0)))
    b = arc_through((pt(0, 0), pt(Q(1, 4), Q(-1, 8)), pt(Q(1, 2), Q(1, 8)),
                     pt(0, Q(1, 2)), point(BoundaryAngle(Q(1, 4)).hpoint)),
                    Puncture("p"), BoundaryAngle(Q(1, 4)))
    assert [point(c.hpoint) for c in compute_crossings(a, b)] == [
        pt(Q(3, 8), 0)]
    assert list(find_empty_bigons(a, b, disc, compute_crossings(a, b))) == []
    assert intersection_profile(a, b, disc) == 0


def punctured_zigzag_pair(k, rng):
    """zigzag_pair(k) with one more puncture inside each lens below B, on
    the vertical through A's vertex there, halfway up to B.  Only the
    lenses above B are empty, so the first crossing stays and its lens
    with the next crossing along A grows with every surgery."""
    disc, a, b = zigzag_pair(k, rng)
    level = Q(-1, 5)
    extra = tuple((f"z{i}", hpt(v.x, (v.y + level) / 2)) for i, v in
                  enumerate(v for v in a.vertices[1:-1] if v.y < level))
    disc = DiscModel(punctures=disc.punctures + extra)
    a.validate(disc)
    b.validate(disc)
    return disc, a, b


def check_removal_order(monkeypatch, a, b, disc):
    """Wrap eliminate_bigon: each bigon the reduction removes must be the
    first that fraction_empty_bigons lists among the crossings still in
    the chains.  Returns the list of bigons removed."""
    real, removed = minpos.eliminate_bigon, []

    def eliminate(bigon, chains, queue):
        alive = survivors(chains)
        assert fraction_empty_bigons(a, b, disc, alive)[:1] == [bigon]
        removed.append(bigon)
        real(bigon, chains, queue)
    monkeypatch.setattr(minpos, "eliminate_bigon", eliminate)
    return removed


def test_worklist_keeps_the_crossings_of_first_bigon_order(monkeypatch):
    """The heap takes the first empty bigon along a, as a restart of the
    search after each surgery would: the crossings kept are those of the
    reference that does restart, on band pairs in both argument orders and
    on zig-zags.  None of these pairs leaves a half-bigon."""
    pairs = []
    for seed in range(200):
        disc, f, g = random_band_pair(random.Random(seed))
        pairs += [(disc, f, g), (disc, g, f)]
    pairs += [zigzag_pair(k, random.Random(k)) for k in range(3, 42, 2)]
    surgeries = 0
    for disc, a, b in pairs:
        with monkeypatch.context() as m:
            removed = check_removal_order(m, a, b, disc)
            assert minimal_position(a, b, disc) == first_bigon_reduction(
                a, b, disc)
        surgeries += len(removed)
    assert surgeries > 500


def test_worklist_count_matches_reference_surgery(monkeypatch):
    """With the half-bigon phase off, the bigon phase keeps as many
    crossings as the geometric surgery, and the same ones as the
    first-bigon reference, on pairs whose lenses hold punctures and on
    pairs that share both ends."""
    monkeypatch.setattr(minpos, "_half_bigon", lambda *args: None)
    pairs = [punctured_zigzag_pair(k, random.Random(k))
             for k in range(3, 22, 2)]
    for seed in range(400):
        disc, a, b = shared_ends_pair(random.Random(seed))
        try:
            a.validate(disc)
            b.validate(disc)
            compute_crossings(a, b)
        except LefbenchError:
            continue
        pairs.append((disc, a, b))
    left = 0
    for disc, a, b in pairs:
        with monkeypatch.context() as m:
            check_removal_order(m, a, b, disc)
            kept = minimal_position(a, b, disc)
        assert kept == first_bigon_reduction(a, b, disc)
        assert len(kept) == reduce_by_reference(a, b, disc,
                                                lambda bigons: bigons[0])
        left += len(kept)
    assert len(pairs) > 120 and left > 60


def t_contact_pair():
    """The W0 disc and two matchings from c-left to c-right: B's vertex
    (0, 1/10) touches A's straight middle."""
    disc = aux_disc("W0")
    left, right = pt(Q(-1, 4), 0), pt(Q(1, 4), 0)
    a = matching(disc, [left, pt(Q(-1, 8), Q(1, 10)), pt(Q(1, 8), Q(1, 10)),
                        right], "c-left", "c-right")
    b = matching(disc, [left, pt(Q(-1, 16), Q(-1, 5)), pt(0, Q(1, 10)),
                        pt(Q(1, 16), Q(-1, 5)), right], "c-left", "c-right")
    return disc, a, b


def test_t_contact_bigon_has_one_point_kept_side():
    """B's vertex (0, 1/10) touches A's straight middle: the perturbation
    resolves the contact into two crossings at that one point, so the kept
    side of the bigon's lens is a single point.  The reference surgery
    joins its step-off points directly."""
    disc, a, b = t_contact_pair()
    crossings = compute_crossings(a, b)
    assert [point(c.hpoint) for c in crossings] == [pt(0, Q(1, 10))] * 2
    bigon = next(find_empty_bigons(a, b, disc, crossings))
    chains, queue = Chains.of(crossings), []
    eliminate_bigon(bigon, chains, queue)
    assert queue == [] and survivors(chains) == []
    want = fraction_eliminate_bigon(a, b, bigon, disc, crossings)
    assert want[0] == a and want[2] == []
    # B's tip is cut off by one straight segment below A
    assert len(want[1].hverts) == len(b.hverts) + 1
    assert intersection_profile(a, b, disc) == 0


def test_zigzag_reduction_builds_one_lens_per_surgery(monkeypatch):
    """Reducing the k = 21 zig-zag takes (k - 1) / 2 = 10 eliminate_bigon
    calls, as the bigon-surgery benchmark counts them: the lazy bigon search
    builds the first lens of each crossing list, which is empty, and no
    more; the reduction builds no arc's Fraction points."""
    disc, a, b = zigzag_pair(21, random.Random(0))
    lenses, calls = [], []
    real_lens, real_eliminate = minpos._lens, minpos.eliminate_bigon

    def lens(*args):
        lenses.append(args)
        return real_lens(*args)

    def eliminate(*args):
        calls.append(len(lenses))
        return real_eliminate(*args)

    monkeypatch.setattr(minpos, "_lens", lens)
    monkeypatch.setattr(minpos, "eliminate_bigon", eliminate)
    assert intersection_profile(a, b, disc) == 0
    assert calls == list(range(1, 11))
    assert len(lenses) == 10
    assert "vertices" not in a.__dict__ and "vertices" not in b.__dict__


# ---------------------------------------------------------------------------
# ranks along each arc against the exact order of positions
# ---------------------------------------------------------------------------

def assert_ranked_as_positions(crossings):
    """On each side the ranks are 0..n-1, and ordering by them is the
    stable sort by position on that side."""
    n = len(crossings)
    for side in (0, 1):
        ranks = [(c.a_rank, c.b_rank)[side] for c in crossings]
        assert sorted(ranks) == list(range(n))
        by_rank = sorted(range(n), key=ranks.__getitem__)
        by_pos = sorted(range(n), key=lambda k: crossings[k].pos(side))
        assert by_rank == by_pos


def test_ranks_order_crossings_as_their_positions():
    pairs = [random_band_pair(random.Random(seed))[1:] for seed in range(100)]
    pairs += [zigzag_pair(k, random.Random(k))[1:] for k in range(9, 22, 2)]
    for seed in range(1000):
        disc, a, b = shared_ends_pair(random.Random(seed))
        if a.is_legal(disc) and b.is_legal(disc):
            pairs.append((a, b))
    ranked = 0
    for a, b in pairs:
        for p, q in ((a, b), (b, a)):
            try:
                crossings = compute_crossings(p, q)
            except DegenerateTangency:
                continue
            assert_ranked_as_positions(crossings)
            assert ([(c.a_rank, c.b_rank) for c in crossings]
                    == [(c.a_rank, c.b_rank)
                        for c in all_pairs_crossings(p, q)])
            ranked += len(crossings) > 1
    assert ranked > 400

    # the two crossings of the T-contact lie at one position on A, and
    # rank there in list order
    _, a, b = t_contact_pair()
    first, second = compute_crossings(a, b)
    assert first.a_pos == second.a_pos and first.b_pos < second.b_pos
    assert (first.a_rank, second.a_rank) == (0, 1)
    assert (first.b_rank, second.b_rank) == (0, 1)
    assert_ranked_as_positions([first, second])


# ---------------------------------------------------------------------------
# the integer canonical order against the Fraction tuple order
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(GRID_POLYLINES, GRID_POLYLINES, st.sampled_from(["any", "equal", "prefix"]),
       st.integers(0, 8), st.lists(st.integers(1, 12), min_size=9, max_size=9))
def test_integer_canonical_order_matches_tuple_reference(va, vb, shape, cut,
                                                         scales):
    """k/4-grid arcs, equal arcs and arcs of which one is a prefix of the
    other; the order must also hold on triples that are not reduced."""
    if shape == "equal":
        vb = va
    elif shape == "prefix":
        vb = va[:max(cut, 1)]
    a = arc_through(va, BoundaryAngle(Q(1, 2)), BoundaryAngle(Q(0)))
    b = arc_through(vb, BoundaryAngle(Q(1, 4)), BoundaryAngle(Q(0)))
    scaled_a = tuple((x * s, y * s, w * s) for (x, y, w), s in zip(a.hverts, scales))
    scaled_b = tuple((x * s, y * s, w * s)
                     for (x, y, w), s in zip(b.hverts, scales[::-1]))
    for p, q, hp, hq in ((a, b, scaled_a, scaled_b), (b, a, scaled_b, scaled_a)):
        expect = canonical_key(p) > canonical_key(q)
        assert _canonically_after(p.hverts, q.hverts) == expect
        assert _canonically_after(hp, hq) == expect
