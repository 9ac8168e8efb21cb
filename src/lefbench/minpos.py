"""Minimal position and intersection profiles for disc arcs.

Crossings between two arcs are computed with the symbolic perturbation of
exactgeom (the canonically larger arc plays the "later-declared" role and is
the one infinitesimally shifted, so results do not depend on argument order)
over the segment pairs whose box keys meet, each pair tested directly
(exactgeom.box_pairs_between): wherever two arcs are compared, one side is
a few segments.  Skipping the other pairs is exact: boxes whose keys are
apart leave a positive gap in x or y, which the infinitesimal shift (eps,
eps^2) cannot close.

Minimal position is reached on the crossing list, by the bigon criterion
(Farb-Margalit, A Primer on Mapping Class Groups, 1.2): two arcs are in
minimal position exactly when they bound no empty bigon and, at a shared
puncture, no empty half-bigon.  A bigon is two crossings adjacent along
both arcs whose lens (the two sub-arcs between them) holds no puncture;
isotoping one arc across it removes exactly those two crossings and keeps
the order of the others along both arcs, so removing a bigon is dropping
its corners from the list, and no rerouted arc is built.  Each later lens
is built on the input arcs: the isotopies so far swept discs holding no
puncture, so that lens is homotopic, in the disc minus the punctures, to
the lens of the rerouted pair, a simple closed curve; it is empty exactly
when its winding number around every puncture is 0.  So a lens depends
on its corners alone: the pairs adjacent on both arcs wait on a heap in
order along a (Chains), each tested once, and the first empty bigon along
a goes first, as in a search restarted after each surgery, so the same
crossings are kept.  Then a crossing first along both arcs from a shared
puncture p is dropped when the half-lens it bounds with p winds around
no other puncture, until none is left.  All of it runs on homogeneous
integer points and on ranks, and builds no Fraction: compute_crossings
ranks the crossings along each arc by the floor keys (segment,
floor(t * 2^64)) of their positions t, exact within a run of equal keys.
intersection_profile reduces a pair and keeps only the number of crossings
left.  Which ends a pair shares is decided in one place, shared_ends: the
segment pairs pinned at a shared puncture, the refusal of a shared
boundary end, the half-bigons and the shared generators of
oracle.matching_floer_rank all read it.
"""

from __future__ import annotations

from functools import cmp_to_key
from heapq import heappop, heappush
from itertools import groupby
from typing import Iterator, NamedTuple

from .disc import BoundaryAngle, DiscModel, Endpoint, PlanarArc, Puncture
from .errors import DegenerateTangency, SharedBoundaryEndpoint
from .exactgeom import (KEY_BITS, Hpt, box_pairs_between, segment_crossing,
                        segments_overlap_collinear, winding_number)


class ArcCrossing(NamedTuple):
    """One transverse crossing event between two arcs: its point as a
    reduced triple, the segment of each arc it lies on, and its rank along
    each arc (compute_crossings)."""
    hpoint: Hpt
    a_seg: int
    b_seg: int
    a_rank: int
    b_rank: int


def shared_ends(a: PlanarArc, b: PlanarArc
                ) -> list[tuple[Endpoint, bool, bool]]:
    """Each endpoint (puncture or boundary angle) that a and b share, with
    whether it is a's start and whether it is b's start, in a's end
    order."""
    return [(e, i == 0, j == 0)
            for i, e in enumerate((a.start, a.end))
            for j, f in enumerate((b.start, b.end)) if e == f]


def _canonically_after(ha: tuple[Hpt, ...], hb: tuple[Hpt, ...]) -> bool:
    """The vertex sequence ha comes after hb in the canonical order: by the
    first vertex where they differ, x then y, and else the longer last."""
    for (ax, ay, aw), (bx, by, bw) in zip(ha, hb):
        d = ax * bw - bx * aw or ay * bw - by * aw
        if d:
            return d > 0
    return len(ha) > len(hb)


def _ranks(positions: list[tuple[int, tuple[int, int]]]) -> list[int]:
    """Each position's index in the stable sort of positions, (segment,
    (n, d)) for the parameter n / d, d > 0: by the floor key (segment,
    floor(n / d * 2^64)), and a run of equal keys, positions within 2^-64
    of each other, by cross-multiplication."""
    keys = [(s, (n << KEY_BITS) // d) for s, (n, d) in positions]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    if len(set(keys)) < len(keys):
        ts = [t for _, t in positions]
        exact = cmp_to_key(
            lambda u, v: ts[u][0] * ts[v][1] - ts[v][0] * ts[u][1])
        order = [k for _, run in groupby(order, keys.__getitem__)
                 for k in sorted(run, key=exact)]
    ranks = [0] * len(keys)
    for r, k in enumerate(order):
        ranks[k] = r
    return ranks


def compute_crossings(a: PlanarArc, b: PlanarArc) -> list[ArcCrossing]:
    """All transverse crossing events between a and b, exact, in the order
    of their segment pairs (i of a, j of b); a segment pair holds at most
    one crossing.  Each is ranked along a and along b by one stable sort
    of its positions on that arc (_ranks).

    Segment pairs pinned together at a shared puncture are treated specially:
    the pinned contact itself is structural (it becomes a shared-endpoint
    generator, not a crossing) and an overlapping collinear departure from the
    shared puncture cannot be resolved by translating one arc, hence
    DegenerateTangency.
    """
    incident = {(0 if a_start else len(a.hverts) - 2,
                 0 if b_start else len(b.hverts) - 2)
                for end, a_start, b_start in shared_ends(a, b)
                if isinstance(end, Puncture)}
    shift_b = not _canonically_after(a.hverts, b.hverts)
    ha, hb = a.hverts, b.hverts
    found = []
    # pinned pairs share their puncture, so their boxes meet and they are
    # always tested
    for i, j in box_pairs_between(a.boxes, b.boxes):
        a1, a2, b1, b2 = ha[i], ha[i + 1], hb[j], hb[j + 1]
        if (i, j) in incident:
            if segments_overlap_collinear(a1, a2, b1, b2):
                raise DegenerateTangency(
                    "arcs leave a shared puncture along overlapping"
                    " collinear segments")
            continue
        hit = segment_crossing(a1, a2, b1, b2, shift_b=shift_b)
        if hit is not None:
            found.append((hit, i, j))
    return [ArcCrossing(hit.hpoint, i, j, ra, rb) for (hit, i, j), ra, rb
            in zip(found, _ranks([(i, hit.ta) for hit, i, _ in found]),
                   _ranks([(j, hit.tb) for hit, _, j in found]))]


# --------------------------------------------------------------------------
# bigons
# --------------------------------------------------------------------------

class Bigon(NamedTuple):
    """Two crossings adjacent along both arcs bounding a puncture-free disc."""
    first: ArcCrossing
    second: ArcCrossing


def _lens(a: PlanarArc, b: PlanarArc, x: ArcCrossing,
          y: ArcCrossing) -> list[Hpt]:
    """The lens of crossings x and y, x before y along a: along a from
    corner to corner, then back along b.  Each side runs from its first
    corner's point through the vertices between to the other's: a
    crossing's point is the point at its position on either arc, exactly."""
    lo, hi = (x, y) if x.b_rank < y.b_rank else (y, x)
    side_a = [x.hpoint, *a.hverts[x.a_seg + 1: y.a_seg + 1], y.hpoint]
    side_b = [lo.hpoint, *b.hverts[lo.b_seg + 1: hi.b_seg + 1], hi.hpoint]
    if side_a[0] != side_b[0]:
        side_b = side_b[::-1]
    return side_a + side_b[::-1][1:-1]


def _empty(a: PlanarArc, b: PlanarArc, disc: DiscModel, x: ArcCrossing,
           y: ArcCrossing) -> bool:
    """The lens of x and y (_lens) winds around no puncture."""
    poly = _lens(a, b, x, y)
    for p in disc.hpoints:
        if winding_number(p, poly):
            return False
    return True


def find_empty_bigons(a: PlanarArc, b: PlanarArc, disc: DiscModel,
                      crossings: list[ArcCrossing]) -> Iterator[Bigon]:
    """The bigons of a and b among crossings (compute_crossings, or some of
    them): corners adjacent on both arcs, by rank, and an empty lens
    (_empty), lazily in order along a, each lens built and tested only
    when the next bigon is asked for.  _reduce asks for the first."""
    by_a = sorted(crossings, key=lambda c: c.a_rank)
    b_index = {r: k for k, r in enumerate(sorted([c.b_rank
                                                   for c in crossings]))}
    for x, y in zip(by_a, by_a[1:]):
        if (abs(b_index[x.b_rank] - b_index[y.b_rank]) == 1
                and _empty(a, b, disc, x, y)):
            yield Bigon(x, y)


class Chains(NamedTuple):
    """A pair's crossings still in play as two doubly linked lists over
    a_ranks (at_a[r] has a_rank r), along a and along b; the last index,
    n, heads both, and a removed crossing's next_a is -1."""
    at_a: list[ArcCrossing]
    next_a: list[int]
    prev_a: list[int]
    next_b: list[int]
    prev_b: list[int]

    @classmethod
    def of(cls, crossings: list[ArcCrossing]) -> Chains:
        n = len(crossings)
        at_a, ring = [*crossings], [n] * (n + 2)
        for c in crossings:
            at_a[c.a_rank], ring[c.b_rank + 1] = c, c.a_rank
        next_b, prev_b = [n] * (n + 1), [n] * (n + 1)
        for u, v in zip(ring, ring[1:]):
            next_b[u], prev_b[v] = v, u
        return cls(at_a, [*range(1, n + 1), 0], [n, *range(n)], next_b, prev_b)

    def remove(self, i: int) -> None:
        """Unlink the crossing of a_rank i from both lists."""
        for after, before in ((self.next_a, self.prev_a),
                              (self.next_b, self.prev_b)):
            after[before[i]], before[after[i]] = after[i], before[i]
        self.next_a[i] = -1


def eliminate_bigon(bigon: Bigon, chains: Chains,
                    queue: list[tuple[int, int]]) -> None:
    """Splice the corners of one empty bigon, neighbours on both lists, out
    of both in O(1) (the isotopy across its lens moves no other crossing);
    push on the heap queue the pairs (a_ranks) this makes adjacent."""
    _, next_a, prev_a, next_b, prev_b = chains
    x, y = bigon.first.a_rank, bigon.second.a_rank
    lo, hi = (x, y) if next_b[x] == y else (y, x)
    p, q, r, s = prev_a[x], next_a[y], prev_b[lo], next_b[hi]
    next_a[p], prev_a[q], next_b[r], prev_b[s] = q, p, s, r
    next_a[x] = next_a[y] = -1
    n = len(next_a) - 1
    if p != n != q and (next_b[p] == q or next_b[q] == p):
        heappush(queue, (p, q))
    r, s = min(r, s), max(r, s)
    if s != n and next_a[r] == s and (r, s) != (p, q):
        heappush(queue, (r, s))


def _half_bigon(a: PlanarArc, b: PlanarArc, disc: DiscModel,
                chains: Chains) -> ArcCrossing | None:
    """A crossing c that is the first along both arcs (an end of both lists)
    from a shared puncture p, where the half-lens (a from p to c, then b
    back to p) winds around no puncture but p; None if there is none.  The
    shared ends are taken in puncture-name order: _reduce has refused a
    shared boundary end, so each is a puncture."""
    ends = ((chains.next_a, chains.prev_a), (chains.next_b, chains.prev_b))
    for _, *at_starts in sorted(shared_ends(a, b), key=lambda s: s[0].name):
        corners, sides = [], []
        for side, (arc, at_start, (after, before)) in enumerate(
                zip((a, b), at_starts, ends)):
            c = chains.at_a[(after if at_start else before)[-1]]
            s = (c.a_seg, c.b_seg)[side]
            corners.append(c)
            sides.append([*(arc.hverts[:s + 1] if at_start
                            else arc.hverts[:s:-1]), c.hpoint])
        half = sides[0] + sides[1][::-1][1:-1]
        p = half[0]
        if corners[0] is corners[1] and not any(
                winding_number(q, half) for q in disc.hpoints if q != p):
            return corners[0]
    return None


# --------------------------------------------------------------------------
# public operations
# --------------------------------------------------------------------------

def _reduce(a: PlanarArc, b: PlanarArc, disc: DiscModel
            ) -> list[ArcCrossing]:
    """The crossings the pair keeps in minimal position (up to isotopy rel
    endpoints in the punctured disc): those of compute_crossings that no
    bigon or half-bigon removes, located on a and b, in list order."""
    a.validate(disc)
    b.validate(disc)
    angles = sorted([e.angle for e, _, _ in shared_ends(a, b)
                     if isinstance(e, BoundaryAngle)])
    if angles:
        raise SharedBoundaryEndpoint(
            "arcs share boundary endpoint angle(s) "
            + ", ".join(map(str, angles)))
    crossings = compute_crossings(a, b)
    at_a, next_a, _, next_b, _ = chains = Chains.of(crossings)
    bigon = next(find_empty_bigons(a, b, disc, crossings), None)
    queue = [(i, i + 1) for i in range(bigon.second.a_rank + 1,
                                       len(crossings) - 1)
             if next_b[i] == i + 1 or next_b[i + 1] == i] if bigon else []
    while bigon:
        eliminate_bigon(bigon, chains, queue)
        bigon = None
        while queue and not bigon:
            i, j = heappop(queue)
            if next_a[i] == j and _empty(a, b, disc, at_a[i], at_a[j]):
                bigon = Bigon(at_a[i], at_a[j])
    while next_a[-1] != len(crossings) and (
            c := _half_bigon(a, b, disc, chains)):
        chains.remove(c.a_rank)
    return [c for c in crossings if next_a[c.a_rank] != -1]


def minimal_position(a: PlanarArc, b: PlanarArc,
                     disc: DiscModel) -> list[ArcCrossing]:
    """The crossings the pair keeps in minimal position, located on a and
    b."""
    return _reduce(a, b, disc)


def intersection_profile(a: PlanarArc, b: PlanarArc,
                         disc: DiscModel) -> int:
    """The number of interior crossings of the pair in minimal position.

    Both arcs are validated and the pair is reduced first.  Symmetric in
    the two arcs.
    """
    return len(_reduce(a, b, disc))
