"""Independent reference implementations used to cross-check the library.

Everything in this module is written from scratch in the most naive way that
could possibly work: quadratic segment sweeps, dense GF(2) linear algebra on
bitmask rows, and sympy for Smith normal forms.  Nothing here imports from
``lefbench`` internals, on purpose -- these are the other side of every
dual-route check in the test suite.  The one exception is the last section:
the library's embedding check and crossing computation as they were before
the box-pruned sweep, scanning every segment pair with the library's own
predicates, so that a comparison isolates the pruning.
"""

from __future__ import annotations

import random
from fractions import Fraction


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


def gf2_identity(n):
    return [1 << i for i in range(n)]


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


# ---------------------------------------------------------------------------
# all-pairs references for the box-pruned sweep
# ---------------------------------------------------------------------------

def all_pairs_check_embedded(arc):
    """PlanarArc._check_embedded over every segment pair."""
    from lefbench.disc import _closed_segments_touch
    from lefbench.errors import NonEmbeddableInput
    from lefbench.exactgeom import segments_overlap_collinear

    segs = arc.segments()
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
                    " (if this arc is a synthesized spiral, raise the"
                    " disc boundary_resolution)")


def all_pairs_crossings(a, b):
    """minpos.compute_crossings over every segment pair."""
    from lefbench.errors import DegenerateTangency
    from lefbench.exactgeom import segment_crossing, segments_overlap_collinear
    from lefbench.minpos import (ArcCrossing, _endpoint_segment_indices,
                                 _shared_anchor_points)

    shift_b = not (a.canonical_key() > b.canonical_key())

    incident: set[tuple[int, int]] = set()
    for s in _shared_anchor_points(a, b):
        for i in _endpoint_segment_indices(a, s):
            for j in _endpoint_segment_indices(b, s):
                incident.add((i, j))

    segs_a = a.segments()
    segs_b = b.segments()
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
                found.append(ArcCrossing(hit.point, (i, hit.ta), (j, hit.tb)))
    return found
