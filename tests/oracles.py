"""Independent reference implementations used to cross-check the library.

Everything in this module is written from scratch in the most naive way that
could possibly work: quadratic segment sweeps, dense GF(2) linear algebra on
bitmask rows, and sympy for Smith normal forms.  Nothing here imports from
``lefbench`` internals, on purpose -- these are the other side of every
dual-route check in the test suite.  The exceptions are the last sections,
which keep the library's own code as it was before its integer kernel, on
``Fraction`` points: the segment predicates (the reference the
homogeneous-integer predicates must agree with); the embedding check and
crossing computation as they were before the box-pruned sweep, scanning
every segment pair with those predicates, and the puncture rule as it was
before the puncture keys, scanning every puncture and segment, so that a
comparison isolates both the pruning and the integer arithmetic; the lens
test; and the bigon surgery that reroutes one arc across each lens, with
each surgery checked over the whole pair: the geometric reference for the
library's reduction of the crossing list; a tower stage counted on its
wrapped spiral and on its word in the cuts, the references for the
library's closed-form count; and the check of every pair of vanishing
paths, the reference for the library's box sweep over them.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, dropwhile, takewhile
from math import lcm
from typing import NamedTuple

# the Fraction point type, for the Fraction predicates
from lefbench.exactgeom import Pt


class GenericityError(AssertionError):
    """A fixture handed to the naive sweep was not in generic position."""


# ---------------------------------------------------------------------------
# naive crossing counter
# ---------------------------------------------------------------------------

def _turn(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _on_segment(p, a, b):
    if _turn(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def brute_crossing_count(path_a, path_b, allowed_contacts=()):
    """Count strict proper crossings between two polylines.

    ``allowed_contacts`` is a set of points where the two paths are allowed
    to touch (shared endpoint anchors); any other non-transverse contact
    raises :class:`GenericityError` since this counter has no perturbation
    story and refuses to guess.
    """
    allowed = {(Fraction(x), Fraction(y)) for (x, y) in allowed_contacts}
    segs_a = list(zip(path_a, path_a[1:]))
    segs_b = list(zip(path_b, path_b[1:]))
    count = 0
    for a, b in segs_a:
        for c, d in segs_b:
            s1 = _turn(a, b, c)
            s2 = _turn(a, b, d)
            s3 = _turn(c, d, a)
            s4 = _turn(c, d, b)
            if s1 != s2 and s3 != s4 and 0 not in (s1, s2, s3, s4):
                count += 1
                continue
            touch = [p for p in (a, b) if _on_segment(p, c, d)]
            touch += [p for p in (c, d) if _on_segment(p, a, b)]
            if not touch:
                continue
            for p in touch:
                if (Fraction(p[0]), Fraction(p[1])) not in allowed:
                    raise GenericityError(
                        f"non-generic contact at {p} between {a}-{b} and {c}-{d}")
    return count


def polyline_is_embedded(path):
    """True when a polyline has no self-contact beyond consecutive joints."""
    segs = list(zip(path, path[1:]))
    n = len(segs)
    for i in range(n):
        a, b = segs[i]
        for j in range(i + 1, n):
            c, d = segs[j]
            s1 = _turn(a, b, c)
            s2 = _turn(a, b, d)
            s3 = _turn(c, d, a)
            s4 = _turn(c, d, b)
            if s1 != s2 and s3 != s4 and 0 not in (s1, s2, s3, s4):
                return False
            touch = [p for p in (a, b) if _on_segment(p, c, d)]
            touch += [p for p in (c, d) if _on_segment(p, a, b)]
            if j == i + 1:
                if any(p != b for p in touch):
                    return False
            elif touch:
                return False
    return True


# ---------------------------------------------------------------------------
# GF(2) linear algebra on bitmask rows
# ---------------------------------------------------------------------------

def gf2_rank(rows):
    rank = 0
    basis = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
            basis.sort(reverse=True)
            rank += 1
    return rank


def gf2_mat_mul(a_rows, b_rows, inner):
    out = []
    for row in a_rows:
        acc = 0
        for k in range(inner):
            if (row >> k) & 1:
                acc ^= b_rows[k]
        out.append(acc)
    return out


def gf2_mat_vec(rows, v):
    out = 0
    for i, row in enumerate(rows):
        if bin(row & v).count("1") % 2:
            out |= 1 << i
    return out


def gf2_kernel_basis(rows, ncols):
    """Basis of {v : M v = 0} with vectors as column bitmasks."""
    mat = [gf2_column(rows, j, len(rows)) for j in range(ncols)]
    # mat[j] is the j-th column; eliminate over columns tracking combinations
    combo = [1 << j for j in range(ncols)]
    pivots = {}
    kernel = []
    for j in range(ncols):
        col, cmb = mat[j], combo[j]
        for p, (pc, pcmb) in pivots.items():
            if (col >> p) & 1:
                col ^= pc
                cmb ^= pcmb
        if col == 0:
            kernel.append(cmb)
        else:
            low = col.bit_length() - 1
            pivots[low] = (col, cmb)
    return kernel


def gf2_column(rows, j, nrows):
    col = 0
    for i in range(nrows):
        if (rows[i] >> j) & 1:
            col |= 1 << i
    return col


def random_invertible(n, rng):
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if n == 0:
            return rows
        if gf2_rank(list(rows)) == n:
            return rows


def gf2_inverse(rows, n):
    aug = [(rows[i], 1 << i) for i in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if (aug[r][0] >> col) & 1:
                piv = r
                break
        assert piv is not None, "matrix not invertible"
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(n):
            if r != col and (aug[r][0] >> col) & 1:
                aug[r] = (aug[r][0] ^ aug[col][0], aug[r][1] ^ aug[col][1])
    return [inv for (_, inv) in aug]


def random_differential(n, rng):
    """A random n x n matrix D over GF(2) with D*D = 0 (row bitmasks)."""
    if n == 0:
        return []
    pairs = rng.randrange(0, n // 2 + 1)
    d0 = [0] * n
    for i in range(pairs):
        d0[2 * i] = 1 << (2 * i + 1)        # row 2i has a 1 in column 2i+1
    p = random_invertible(n, rng)
    pinv = gf2_inverse(p, n)
    return gf2_mat_mul(gf2_mat_mul(p, d0, n), pinv, n)


def random_chain_map(dk, dl, nk, nl, rng):
    """A random chain map f : (K, dK) -> (L, dL) as an nl x nk matrix."""
    # unknowns: entries f[i][j], i < nl, j < nk; constraint dL f = f dK
    nunk = nl * nk
    eq_rows = []
    for i in range(nl):
        for j in range(nk):
            # equation (i, j): sum_k dL[i][k] f[k][j] + sum_k f[i][k] dK[k][j]
            row = 0
            for k in range(nl):
                if (dl[i] >> k) & 1:
                    row ^= 1 << (k * nk + j)
            for k in range(nk):
                if (dk[k] >> j) & 1:
                    row ^= 1 << (i * nk + k)
            eq_rows.append(row)
    kern = gf2_kernel_basis(eq_rows, nunk)
    vec = 0
    for b in kern:
        if rng.getrandbits(1):
            vec ^= b
    rows = []
    for i in range(nl):
        row = 0
        for j in range(nk):
            if (vec >> (i * nk + j)) & 1:
                row |= 1 << j
        rows.append(row)
    return rows


def homology_rank(d, n):
    return n - 2 * gf2_rank(list(d))


def induced_map_rank(f, dk, dl, nk, nl):
    """Rank of the map H(K) -> H(L) induced by the chain map f."""
    cycles_k = gf2_kernel_basis(dk, nk)
    image_l = [gf2_mat_vec(dl, 1 << j) for j in range(nl)]
    base = gf2_rank([v for v in image_l if v])
    mapped = [gf2_mat_vec(f, z) for z in cycles_k]
    return gf2_rank([v for v in image_l + mapped if v]) - base


def cone_homology_rank(f, dk, dl, nk, nl):
    """Homology rank of the mapping cone of f : K -> L over GF(2).

    Cone space is K (shifted) followed by L; differential sends the K block
    through dK and drops into L through f.
    """
    # the K block keeps columns [0, nk); the L block lives at [nk, nk + nl)
    rows = []
    for i in range(nk):
        rows.append(dk[i])                      # K -> K
    for i in range(nl):
        rows.append(f[i] | (dl[i] << nk))       # K -> L  and  L -> L
    total = nk + nl
    d2 = gf2_mat_mul(rows, rows, total)
    assert all(r == 0 for r in d2), "cone differential does not square to zero"
    return total - 2 * gf2_rank(list(rows))


# ---------------------------------------------------------------------------
# sympy-backed integer normal form
# ---------------------------------------------------------------------------

def sympy_invariant_factors(rows):
    """Nonzero invariant factors of an integer matrix, via sympy."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form
    if not rows or not rows[0]:
        return []
    snf = smith_normal_form(Matrix(rows))
    out = []
    for i in range(min(snf.rows, snf.cols)):
        v = int(snf[i, i])
        if v != 0:
            out.append(abs(v))
    return out


def sympy_smith_decomposition(rows):
    """(S, U, V), each a tuple of row tuples, with S = U @ rows @ V the
    Smith form and U, V unimodular, via sympy; rows has at least one row."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_decomp
    decomp = smith_normal_decomp(Matrix(rows), domain=ZZ)
    return tuple(tuple(tuple(int(v) for v in m.row(i)) for i in range(m.rows))
                 for m in decomp)


def sympy_kernel_basis(rows):
    """A basis of the integer kernel of rows, as a tuple of column tuples:
    the columns of V in the Smith decomposition S = U @ rows @ V from the
    rank on.  They extend to a basis of Z^n (the columns of V)."""
    s, _, v = sympy_smith_decomposition(rows)
    rank = sum(1 for i in range(min(len(s), len(s[0]))) if s[i][i])
    return tuple(zip(*v))[rank:]


def sympy_kernel_coordinates(columns, x):
    """The integer z with sum z_j columns_j = x, for linearly independent
    integer columns, via sympy; None unless x is in their integer span."""
    from sympy import Matrix
    if not columns:
        return () if not any(x) else None
    try:
        z, params = Matrix(columns).T.gauss_jordan_solve(Matrix(x))
    except ValueError:       # no rational solution
        return None
    assert not params, "the columns are linearly dependent"
    if any(not v.is_integer for v in z):
        return None
    return tuple(int(v) for v in z)


def sympy_maximal_minor_gcd(rows):
    """gcd of the r x r minors of an m x r integer matrix, via sympy; it is
    1 exactly when the r columns extend to a basis of Z^m."""
    from itertools import combinations
    from math import gcd
    from sympy import Matrix
    m = Matrix(rows)
    return gcd(*(int(m.extract(list(sub), list(range(m.cols))).det())
                 for sub in combinations(range(m.rows), m.cols)))


def matrix_multiply(a, b):
    """Integer matrix product, as a tuple of row tuples."""
    if not a:
        return ()
    inner = len(b)
    assert all(len(row) == inner for row in a)
    width = len(b[0]) if inner else 0
    return tuple(tuple(sum(row[k] * b[k][j] for k in range(inner))
                       for j in range(width)) for row in a)


def attachment_homology(fiber_h, pairing_rows, attach_deg):
    """One-pass homology of attaching cells along a pairing matrix.

    ``fiber_h`` maps degree -> (free rank, [torsion orders]); the attached
    cells kill/extend classes in degrees attach_deg-1 and attach_deg, with
    ``pairing_rows[i][j]`` the incidence of cell i on fiber class j in degree
    attach_deg - 1.  Returns the same shape of table for the total space.
    """
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    ncells = len(pairing_rows)
    below = attach_deg - 1
    out = {d: (f, list(t)) for d, (f, t) in fiber_h.items()}
    free_below, tors_below = out.get(below, (0, []))
    assert not tors_below, "oracle only handles torsion-free target degree"
    if ncells == 0:
        return {d: (f, t) for d, (f, t) in out.items() if f or t}
    if free_below == 0:
        f, t = out.get(attach_deg, (0, []))
        out[attach_deg] = (f + ncells, t)
        return {d: (f, t) for d, (f, t) in out.items() if f or t}
    m = Matrix(pairing_rows)  # ncells x free_below
    snf = smith_normal_form(m)
    diag = [int(snf[i, i]) for i in range(min(snf.rows, snf.cols))]
    nonzero = [abs(v) for v in diag if v != 0]
    rank = len(nonzero)
    torsion = [v for v in nonzero if v > 1]
    kernel_rank = ncells - rank
    f_at, t_at = out.get(attach_deg, (0, []))
    out[attach_deg] = (f_at + kernel_rank, list(t_at))
    out[below] = (free_below - rank, sorted(torsion))
    return {d: (f, t) for d, (f, t) in out.items() if f or t}


def random_int_matrix(rows, cols, rng, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# boundary angles
# ---------------------------------------------------------------------------

def ccw_gap(a, b):
    """Counterclockwise angular distance from a to b in turns, in (0, 1]."""
    g = Fraction(b - a) % 1
    return g if g else Fraction(1)


def sorted_min_gap(angles):
    """Smallest circular gap between the distinct angles of a non-empty
    list, in turns: each angle taken modulo a turn as a Fraction, sorted,
    and subtracted from the next; a full turn when there is only one."""
    uniq = sorted({Fraction(a) % 1 for a in angles})
    return min([b - a for a, b in zip(uniq, uniq[1:])]
               + [1 - uniq[-1] + uniq[0]])


# ---------------------------------------------------------------------------
# Fraction geometry: the library's predicates and spiral before its integer
# kernel
# ---------------------------------------------------------------------------

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def circle_point(tau: Fraction) -> Pt:
    """Exact rational point of the unit circle at turn fraction tau."""
    tau = Fraction(tau) % 1
    if tau == HALF:
        return Pt(-Fraction(1), ZERO)
    if tau < HALF:
        t = 2 * tau / (1 - 2 * tau)
    else:
        s = tau - 1
        t = 2 * s / (1 + 2 * s)
    d = 1 + t * t
    return Pt((1 - t * t) / d, 2 * t / d)


def homog(p: Pt) -> tuple[int, int, int]:
    """The homogeneous form of p over the lcm of its denominators, the
    reduced triple the library keeps each point as."""
    x, y = p
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator),
            y.numerator * (w // y.denominator), w)


def point(h) -> Pt:
    """The Fraction point of a homogeneous triple."""
    x, y, w = h
    return Pt(Fraction(x, w), Fraction(y, w))


def puncture_points(disc) -> list[tuple[str, Pt]]:
    """The disc's punctures as (name, Fraction point)."""
    return [(name, point(h)) for name, h in disc.punctures]


def spiral_vertices(start, end, r_out, resolution):
    """The vertices of a wrapped spiral from angle start to end, climbing
    from radius r_out to (1 + r_out)/2, one Fraction at a time."""
    r_last = (1 + r_out) / 2
    step = Fraction(1, resolution)
    angles = [start]
    k = 0
    while start + step / 2 + k * step < end:
        angles.append(start + step / 2 + k * step)
        k += 1
    angles.append(end)
    span = end - start
    spiral = []
    for ang in angles:
        r = r_out + (r_last - r_out) * (ang - start) / span
        c = circle_point(ang)
        spiral.append(Pt(r * c.x, r * c.y))
    return spiral


def sub(a: Pt, b: Pt) -> Pt:
    return Pt(a.x - b.x, a.y - b.y)


def cross(a: Pt, b: Pt) -> Fraction:
    return a.x * b.y - a.y * b.x


def dot(a: Pt, b: Pt) -> Fraction:
    return a.x * b.x + a.y * b.y


def sgn(v: Fraction) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orient(a: Pt, b: Pt, c: Pt) -> int:
    """Sign of the turn a->b->c: +1 left (ccw), -1 right, 0 collinear."""
    return sgn(cross(sub(b, a), sub(c, a)))


def sgn_eps(base: Fraction, c1: Fraction, c2: Fraction) -> int:
    """Sign of base + c1*eps + c2*eps^2 for an infinitesimal eps > 0."""
    if base:
        return sgn(base)
    if c1:
        return sgn(c1)
    return sgn(c2)


def point_on_segment(p: Pt, a: Pt, b: Pt) -> bool:
    """Exact: p lies on the closed segment [a, b]."""
    # the coordinate ranges are cheaper than the turn and usually decide
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y)
            and orient(a, b, p) == 0)


def segments_overlap_collinear(a1: Pt, a2: Pt, b1: Pt, b2: Pt) -> bool:
    """True when the two segments are collinear and share more than a point."""
    if orient(a1, a2, b1) != 0 or orient(a1, a2, b2) != 0:
        return False
    d = sub(a2, a1)
    # project onto the carrier line
    ta = sorted([ZERO, dot(d, d)])
    tb = sorted([dot(d, sub(b1, a1)), dot(d, sub(b2, a1))])
    lo = max(ta[0], tb[0])
    hi = min(ta[1], tb[1])
    return lo < hi


def _orient_coeffs_target_shifted(a1: Pt, a2: Pt, q: Pt) -> tuple[Fraction, Fraction, Fraction]:
    # orient(a1, a2, q + (eps, eps^2)) as polynomial in eps
    d = sub(a2, a1)
    base = cross(d, sub(q, a1))
    return base, -d.y, d.x


def _orient_coeffs_base_shifted(b1: Pt, b2: Pt, p: Pt) -> tuple[Fraction, Fraction, Fraction]:
    # orient(b1 + e, b2 + e, p) with e = (eps, eps^2)
    d = sub(b2, b1)
    base = cross(d, sub(p, b1))
    return base, d.y, -d.x


class Crossing(NamedTuple):
    """exactgeom.Crossing with its point as a Fraction point."""
    point: Pt
    ta: Fraction
    tb: Fraction


def segment_crossing(a1: Pt, a2: Pt, b1: Pt, b2: Pt,
                     shift_b: bool) -> Crossing | None:
    """Proper crossing of two segments under the symbolic perturbation.

    When shift_b is True the second segment's arc is the perturbed one
    (translated by (eps, eps^2)); otherwise the first.  The perturbed
    configuration has no tangencies, so the answer is always a clean
    yes/no; collinear overlaps resolve to "no crossing" (parallel translates
    never meet) and T-contacts resolve one way or the other consistently
    across all segment pairs of the same arc pair.
    """
    if not shift_b:
        # shifting arc A by +e is the same picture as shifting arc B by -e;
        # flip roles so only one code path exists.
        res = segment_crossing(b1, b2, a1, a2, shift_b=True)
        if res is None:
            return None
        return Crossing(res.point, res.tb, res.ta)

    o1 = sgn_eps(*_orient_coeffs_target_shifted(a1, a2, b1))
    o2 = sgn_eps(*_orient_coeffs_target_shifted(a1, a2, b2))
    if o1 == o2:
        return None
    o3 = sgn_eps(*_orient_coeffs_base_shifted(b1, b2, a1))
    o4 = sgn_eps(*_orient_coeffs_base_shifted(b1, b2, a2))
    if o3 == o4:
        return None
    da = sub(a2, a1)
    db = sub(b2, b1)
    den = cross(da, db)
    # crossing of the perturbed pair implies the carrier lines are not
    # parallel (parallel translates keep o1 == o2), so den != 0
    ta = cross(sub(b1, a1), db) / den
    tb = cross(sub(b1, a1), da) / den
    point = Pt(a1.x + ta * da.x, a1.y + ta * da.y)
    return Crossing(point, ta, tb)


def segment_point_dist2(p: Pt, a: Pt, b: Pt) -> Fraction:
    """Exact squared distance from p to the closed segment [a, b]."""
    d = sub(b, a)
    dd = dot(d, d)
    if dd == 0:
        return dot(sub(p, a), sub(p, a))
    t = dot(sub(p, a), d) / dd
    if t <= 0:
        return dot(sub(p, a), sub(p, a))
    if t >= 1:
        return dot(sub(p, b), sub(p, b))
    q = sub(p, Pt(a.x + t * d.x, a.y + t * d.y))
    return dot(q, q)


def _closed_segments_touch(a1: Pt, a2: Pt, b1: Pt, b2: Pt) -> bool:
    """Exact: the closed segments share at least one point."""
    d1 = orient(a1, a2, b1)
    d2 = orient(a1, a2, b2)
    d3 = orient(b1, b2, a1)
    d4 = orient(b1, b2, a2)
    if d1 != d2 and d3 != d4:
        return True
    for p, a, b in ((b1, a1, a2), (b2, a1, a2), (a1, b1, b2), (a2, b1, b2)):
        if point_on_segment(p, a, b):
            return True
    return False


# ---------------------------------------------------------------------------
# all-pairs references for the box-pruned sweep
# ---------------------------------------------------------------------------

def segments(arc):
    """The arc's segments as pairs of Fraction points."""
    vs = arc.vertices
    return list(zip(vs, vs[1:]))


def canonical_key(arc):
    """The canonical order of arcs as a key: the tuple of the vertices'
    Fraction coordinates (reference for minpos._canonically_after)."""
    return tuple((v.x, v.y) for v in arc.vertices)


def all_pairs_check_embedded(arc):
    """PlanarArc._check_embedded over every segment pair."""
    from lefbench.errors import NonEmbeddableInput

    segs = segments(arc)
    n = len(segs)
    for i in range(n):
        a1, a2 = segs[i]
        for j in range(i + 1, n):
            b1, b2 = segs[j]
            if j == i + 1:
                # consecutive segments share exactly the joint vertex
                if segments_overlap_collinear(a1, a2, b1, b2):
                    raise NonEmbeddableInput(
                        f"arc folds back onto itself at vertex {a2}")
                continue
            if _closed_segments_touch(a1, a2, b1, b2):
                # closed arc endpoints may coincide only for loops, which
                # we do not model
                raise NonEmbeddableInput(
                    f"arc self-intersects between segments {i} and {j}"
                    " (if this arc is a synthesized spiral, raise the run"
                    " disc's resolution or --resolution)")


def all_pairs_puncture_check(arc, disc):
    """PlanarArc._check's puncture rule as it was before the puncture
    keys: every puncture in declaration order over every segment, on
    Fraction points; a puncture may touch only the end segment that it
    anchors."""
    from lefbench.errors import LefbenchError

    segs = segments(arc)
    first, last = arc.vertices[0], arc.vertices[-1]
    for name, p in puncture_points(disc):
        for i, (a, b) in enumerate(segs):
            if (point_on_segment(p, a, b)
                    and not (i == 0 and p == first)
                    and not (i == len(segs) - 1 and p == last)):
                raise LefbenchError(
                    f"arc passes through puncture {name!r} at {p}")


def puncture_ends(arc) -> list[tuple[str, int]]:
    """(puncture name, end segment index) of each end of arc at a
    puncture."""
    from lefbench.disc import Puncture
    ends = ((arc.start, 0), (arc.end, len(arc.hverts) - 2))
    return [(e.name, i) for e, i in ends if isinstance(e, Puncture)]


def all_pairs_crossings(a, b):
    """minpos.compute_crossings over every segment pair; the pairs pinned
    together are the end segments of a puncture that both arcs end at.
    Each crossing's rank along an arc is its index in the stable sort of
    the crossings by their Fraction positions on that arc."""
    from lefbench.errors import DegenerateTangency
    from lefbench.minpos import ArcCrossing

    shift_b = not (canonical_key(a) > canonical_key(b))
    incident = {(i, j) for p, i in puncture_ends(a)
                for q, j in puncture_ends(b) if p == q}

    segs_a = segments(a)
    segs_b = segments(b)
    found = []
    for i, (a1, a2) in enumerate(segs_a):
        for j, (b1, b2) in enumerate(segs_b):
            if (i, j) in incident:
                if segments_overlap_collinear(a1, a2, b1, b2):
                    raise DegenerateTangency(
                        "arcs leave a shared puncture along overlapping"
                        " collinear segments")
                continue
            hit = segment_crossing(a1, a2, b1, b2, shift_b=shift_b)
            if hit is not None:
                found.append((homog(hit.point), (i, hit.ta), (j, hit.tb)))
    by_a = sorted(found, key=lambda c: c[1])
    by_b = sorted(found, key=lambda c: c[2])
    return [ArcCrossing(c[0], c[1][0], c[2][0], by_a.index(c), by_b.index(c))
            for c in found]


# ---------------------------------------------------------------------------
# Fraction lens test: minpos.find_empty_bigons on Fraction points
# ---------------------------------------------------------------------------

def point_at(arc, pos) -> Pt:
    """The point at position (segment index, parameter) on arc; a crossing's
    point (minpos.ArcCrossing.hpoint) is this point on either arc."""
    s, t = pos
    v0, v1 = arc.vertices[s], arc.vertices[s + 1]
    return Pt(v0.x + t * (v1.x - v0.x), v0.y + t * (v1.y - v0.y))


def position(arc, s, h) -> tuple[int, Fraction]:
    """The position (s, parameter) of the point h, which lies on segment s
    of arc, projected on the segment's Fraction points: a crossing's
    position on either arc, read from its point and segment alone."""
    p, v0, v1 = point(h), arc.vertices[s], arc.vertices[s + 1]
    d = sub(v1, v0)
    return s, dot(sub(p, v0), d) / dot(d, d)


def positions(a, b, c) -> tuple[tuple[int, Fraction], tuple[int, Fraction]]:
    """The positions of the crossing c of a and b on a and on b."""
    return position(a, c.a_seg, c.hpoint), position(b, c.b_seg, c.hpoint)


def _subpath(arc, lo, hi) -> list[Pt]:
    """Polyline of arc between two positions, lo <= hi, ends included."""
    pts = [point_at(arc, lo), *arc.vertices[lo[0] + 1: hi[0] + 1],
           point_at(arc, hi)]
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _lens_polygon(a, b, x, y) -> list[Pt]:
    (xa, xb), (ya, yb) = positions(a, b, x), positions(a, b, y)
    a_lo, a_hi = sorted([xa, ya])
    b_lo, b_hi = sorted([xb, yb])
    side_a = _subpath(a, a_lo, a_hi)
    side_b = _subpath(b, b_lo, b_hi)
    if side_a[0] != side_b[0]:
        side_b = side_b[::-1]
    poly = side_a + side_b[::-1][1:-1]
    return poly


def fraction_empty_bigons(a, b, disc, crossings):
    """minpos.find_empty_bigons, building each lens and its winding
    numbers in Fraction."""
    from lefbench.minpos import Bigon

    if len(crossings) < 2:
        return []
    pos = {id(c): positions(a, b, c) for c in crossings}
    by_a = sorted(crossings, key=lambda c: pos[id(c)][0])
    by_b = sorted(crossings, key=lambda c: pos[id(c)][1])
    b_index = {id(c): k for k, c in enumerate(by_b)}
    bigons = []
    for x, y in zip(by_a, by_a[1:]):
        if abs(b_index[id(x)] - b_index[id(y)]) != 1:
            continue
        poly = _lens_polygon(a, b, x, y)
        if any(winding_number(p, poly) for _, p in puncture_points(disc)):
            continue
        bigons.append(Bigon(x, y))
    return bigons


def first_bigon_reduction(a, b, disc):
    """minpos's bigon phase in the order minpos removes bigons: on
    all_pairs_crossings, drop the corners of the first empty bigon along a
    (fraction_empty_bigons over the crossings still there) until none is
    left.  Returns the crossings kept, in list order."""
    crossings = all_pairs_crossings(a, b)
    while bigons := fraction_empty_bigons(a, b, disc, crossings):
        corners = bigons[0]
        crossings = [c for c in crossings
                     if c is not corners.first and c is not corners.second]
    return crossings


# ---------------------------------------------------------------------------
# Fraction bigon surgery: each bigon removed by rerouting one arc
# ---------------------------------------------------------------------------

def line_intersection(a1: Pt, a2: Pt, b1: Pt, b2: Pt) -> Pt:
    """Intersection point of two non-parallel lines (exact)."""
    da = sub(a2, a1)
    db = sub(b2, b1)
    den = cross(da, db)
    if den == 0:
        raise ZeroDivisionError("parallel lines")
    t = cross(sub(b1, a1), db) / den
    return Pt(a1.x + t * da.x, a1.y + t * da.y)


def polygon_area2(poly: list[Pt]) -> Fraction:
    """Twice the signed area (positive for counterclockwise)."""
    s = ZERO
    n = len(poly)
    for i in range(n):
        s += cross(poly[i], poly[(i + 1) % n])
    return s


def winding_number(p: Pt, closed: list[Pt]) -> int:
    """Winding number of a closed rational polyline around p (p off the curve)."""
    wn = 0
    n = len(closed)
    for i in range(n):
        a, b = closed[i], closed[(i + 1) % n]
        if a.y <= p.y:
            if b.y > p.y and orient(a, b, p) > 0:
                wn += 1
        else:
            if b.y <= p.y and orient(a, b, p) < 0:
                wn -= 1
    return wn


def _l1(v: Pt) -> Fraction:
    return abs(v.x) + abs(v.y)


def _offset_chain(pts: list[Pt], side: int, eps: Fraction) -> list[Pt]:
    """Polyline parallel to pts on the given side (+1 = left of travel),
    its segment copies displaced by eps in L1 length and its interior
    joints mitred."""
    offs = []
    for w0, w1 in zip(pts, pts[1:]):
        d = sub(w1, w0)
        n = Pt(-d.y, d.x) if side > 0 else Pt(d.y, -d.x)
        sc = eps / _l1(d)
        offs.append(Pt(n.x * sc, n.y * sc))

    def shift(p: Pt, o: Pt) -> Pt:
        return Pt(p.x + o.x, p.y + o.y)

    out = [shift(pts[0], offs[0])]
    for i in range(len(offs) - 1):
        joint = pts[i + 1]
        a0, a1 = shift(pts[i], offs[i]), shift(joint, offs[i])
        b0, b1 = shift(joint, offs[i + 1]), shift(pts[i + 2], offs[i + 1])
        if cross(sub(a1, a0), sub(b1, b0)) == 0:
            q = a1
        else:
            q = line_intersection(a0, a1, b0, b1)
        if q != out[-1]:
            out.append(q)
    last = shift(pts[-1], offs[-1])
    if last != out[-1]:
        out.append(last)
    return out


def _step_from(arc, pos, eps: Fraction, forward: bool) -> tuple[Pt, int]:
    """A point on arc strictly before (forward=False) or after (forward=True)
    pos, within L1 distance eps of it, and the index of its segment."""
    s, t = pos
    if forward:
        if t == 1:
            s, t = s + 1, ZERO
        v0, v1 = arc.vertices[s], arc.vertices[s + 1]
        step = min((1 - t) / 2, eps / _l1(sub(v1, v0)))
        t2 = t + step
    else:
        if t == 0:
            s, t = s - 1, Fraction(1)
        v0, v1 = arc.vertices[s], arc.vertices[s + 1]
        step = min(t / 2, eps / _l1(sub(v1, v0)))
        t2 = t - step
    return Pt(v0.x + t2 * (v1.x - v0.x), v0.y + t2 * (v1.y - v0.y)), s


def _without_repeats(pts):
    out = [pts[0]]
    for p in pts[1:]:
        if p != out[-1]:
            out.append(p)
    return out


def _arc_embedded(arc) -> bool:
    from lefbench.errors import LefbenchError

    try:
        arc._check_embedded()
        return True
    except LefbenchError:
        return False


def _vertices_legal(pts: list[Pt], disc) -> bool:
    """The vertices lie strictly inside the unit circle and no segment
    between consecutive ones passes through a puncture."""
    return (all(dot(v, v) < 1 for v in pts)
            and not any(point_on_segment(p, a, b)
                        for _, p in puncture_points(disc)
                        for a, b in zip(pts, pts[1:])))


def fraction_eliminate_bigon(a, b, bigon, disc, crossings):
    """Remove one empty bigon of a and b (crossings as compute_crossings
    gives them) by rerouting the canonically larger arc between the two
    corners along the outside of the other arc's side of the lens, in a
    corridor of width eps built on Fraction points: the step-off points
    before and after the corners, the mitred offset chain and the lens
    area.  The width shrinks until the whole pair checks out: the rerouted
    arc is embedded, the pair has exactly two crossings fewer
    (compute_crossings over the new pair) and the swap loop winds around
    no puncture.  Returns the new pair in argument order with its
    crossings."""
    from dataclasses import replace

    from lefbench.errors import DegenerateTangency
    from lefbench.minpos import compute_crossings

    if canonical_key(a) > canonical_key(b):
        moved, kept, m_side = a, b, 0
    else:
        moved, kept, m_side = b, a, 1
    k_side = 1 - m_side

    x, y = positions(a, b, bigon.first), positions(a, b, bigon.second)
    if x[m_side] > y[m_side]:
        x, y = y, x
    m_lo, m_hi = x[m_side], y[m_side]

    k_lo, k_hi = sorted((x[k_side], y[k_side]))
    kept_sub = _subpath(kept, k_lo, k_hi)
    if kept_sub[0] != point_at(moved, m_lo):
        kept_sub = kept_sub[::-1]
    moved_sub = _subpath(moved, m_lo, m_hi)
    lens = kept_sub + moved_sub[::-1][1:-1]
    side = -1 if polygon_area2(lens) > 0 else 1

    xs = [p.x for p in lens]
    ys = [p.y for p in lens]
    eps0 = min(max(max(xs) - min(xs), max(ys) - min(ys)), Fraction(1)) / 16
    if eps0 == 0:
        eps0 = Fraction(1, 64)

    for attempt in range(64):
        side_now = side if attempt % 2 == 0 else -side
        eps = eps0 / 4 ** (attempt // 2)
        p_before, s_before = _step_from(moved, m_lo, eps, forward=False)
        p_after, s_after = _step_from(moved, m_hi, eps, forward=True)
        if len(kept_sub) == 1:
            # both corners at one point of the kept arc: no side to hug
            chain = []
        else:
            chain = _offset_chain(kept_sub, side_now, eps)[1:-1]
            if not chain:
                k0, k1 = kept_sub[0], kept_sub[-1]
                d = sub(k1, k0)
                n = Pt(-d.y, d.x) if side_now > 0 else Pt(d.y, -d.x)
                sc = eps / _l1(d)
                chain = [Pt((k0.x + k1.x) / 2 + n.x * sc,
                            (k0.y + k1.y) / 2 + n.y * sc)]
        middle = _without_repeats([p_before] + chain + [p_after])
        if not _vertices_legal(middle, disc):
            continue
        mid_h = tuple(map(homog, middle))
        candidate = replace(moved, hverts=moved.hverts[:s_before + 1] + mid_h
                            + moved.hverts[s_after + 1:])
        pair = (candidate, kept) if m_side == 0 else (kept, candidate)
        if not _arc_embedded(candidate):
            continue
        try:
            new_crossings = compute_crossings(*pair)
        except DegenerateTangency:
            continue
        if len(new_crossings) != len(crossings) - 2:
            continue
        closed = _without_repeats([middle[0]] + moved_sub + [middle[-1]]
                                  + middle[::-1])
        if closed[0] == closed[-1]:
            closed = closed[:-1]
        if any(winding_number(p, closed) != 0
               for _, p in puncture_points(disc)):
            continue
        return *pair, new_crossings
    raise DegenerateTangency("bigon surgery did not stabilize; the input"
                             " configuration is too degenerate to reroute")


# ---------------------------------------------------------------------------
# tower stages on spirals
# ---------------------------------------------------------------------------

def spiral_stage_counts(f, cx, cy, m, params):
    """(crossings, u) of the tower stage cx:cy at level m, by the route
    tower.build_stage took before it counted words: wrap cx's path into its
    stage spiral, validate the spiral, and reduce it against cy's path to
    minimal position."""
    from lefbench.minpos import intersection_profile
    from lefbench.wrapping import wrap
    spiral = wrap(cx.path, m, params, f.disc, bend=cx == cy)
    spiral.validate(f.disc)
    shared = ({p for p, _ in puncture_ends(spiral)}
              & {p for p, _ in puncture_ends(cy.path)})
    return intersection_profile(spiral, cy.path, f.disc), len(shared)


def boundary_turn(f):
    """One turn of the boundary in the cuts along f's vanishing paths:
    (boundary angle, puncture) of each, counterclockwise from angle 0, and
    at a shared end in the order the last segments reach it, read on
    Fraction points with the naive turn test."""
    def ccw(ci, cj):
        (*_, vi, p), (*_, vj, _) = ci.path.vertices, cj.path.vertices
        return ci.path.end.angle - cj.path.end.angle or _turn(p, vi, vj)
    return [(c.path.end.angle, c.puncture)
            for c in sorted(f.crits, key=cmp_to_key(ccw))]


def word_stage_count(f, cx, cy, m):
    """Crossings of the tower stage cx:cy at level m, by the route
    tower.build_stage took before its closed form: take the wrapped copy's
    word in the cuts (m turns of boundary_turn from just past cx's end,
    then the cuts tied there after cx), strip its leading letters of cx's
    own cut (the half-bigons at cx's puncture) and count cy's letters."""
    turn = boundary_turn(f)
    i = [p for _, p in turn].index(cx.puncture)
    word = [p for _, p in turn[i + 1:] + turn[:i + 1]] * m
    word += [p for _, p in takewhile(lambda e: e[0] == turn[i][0],
                                     turn[i + 1:])]
    return list(dropwhile(lambda p: p == cx.puncture, word)).count(
        cy.puncture)


# ---------------------------------------------------------------------------
# vanishing-path pairs
# ---------------------------------------------------------------------------

def all_pairs_path_findings(f):
    """Fibration.path_findings by the route it took before its box sweep:
    every pair of vanishing paths reduced to minimal position, in pair
    order."""
    from lefbench.fibration import _check_disjoint_paths
    return tuple(found for ci, cj in combinations(f.crits, 2)
                 for found in _check_disjoint_paths(f, ci, cj))
