"""Integer matrix normal form and exact lattice computations.

Everything is plain Python integers (arbitrary precision); matrices are
tuples of row tuples.  The Smith form here tracks both change-of-basis
matrices, so kernels, cokernel invariants and integer solves all come out of
one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def _to_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithForm:
    """Decomposition S = left @ original @ right with unimodular factors.

    ``diag`` holds the full diagonal of S (min(m, n) entries, nonnegative,
    each dividing the next); ``rank`` counts its nonzero entries.
    """
    shape: tuple[int, int]
    diag: tuple[int, ...]
    rank: int
    left: Matrix
    right: Matrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.diag[:self.rank]


def smith_form(rows: Sequence[Sequence[int]]) -> SmithForm:
    m = len(rows)
    n = len(rows[0]) if m else 0
    s = [list(map(int, row)) for row in rows]
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in s:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        s[i] = [-a for a in s[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while True:
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] != 0 and (pivot is None
                                     or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])

        while True:
            # clear the pivot column, then the pivot row; restart on residue
            dirty = False
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = -(s[i][t] // s[t][t])
                    add_row(t, i, q)
                    if s[i][t] != 0:
                        # remainder smaller than the pivot: promote it
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = -(s[t][j] // s[t][t])
                    add_col(t, j, q)
                    if s[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if not dirty:
                break

        # force divisibility of the remaining block by the pivot
        piv = s[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % piv != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue  # redo this pivot position

        if s[t][t] < 0:
            negate_row(t)
        t += 1
        if t >= min(m, n):
            break

    diag = tuple(s[i][i] if i < n else 0 for i in range(min(m, n)))
    rank = sum(1 for d in diag if d != 0)
    return SmithForm((m, n), diag, rank,
                     _to_matrix(u), _to_matrix(v))


def kernel_basis(rows: Sequence[Sequence[int]],
                 ncols: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Lattice basis of {x : rows @ x = 0} (x runs over columns of ``rows``).

    ``ncols`` is only needed when ``rows`` is empty (no constraints)."""
    m = len(rows)
    n = len(rows[0]) if m else (ncols or 0)
    if n == 0:
        return ()
    if m == 0:
        return tuple(tuple(1 if i == j else 0 for i in range(n))
                     for j in range(n))
    sf = smith_form(rows)
    cols = []
    for j in range(sf.rank, n):
        cols.append(tuple(sf.right[i][j] for i in range(n)))
    return tuple(cols)


def cokernel_invariants(rows: Sequence[Sequence[int]],
                        ambient: int) -> tuple[int, list[int]]:
    """(free rank, torsion orders) of Z^ambient modulo the column span.

    ``rows`` is an ambient x k matrix whose columns span the sublattice.
    """
    if ambient == 0:
        return 0, []
    if not rows or not rows[0]:
        return ambient, []
    assert len(rows) == ambient
    sf = smith_form(rows)
    free = ambient - sf.rank
    torsion = [d for d in sf.invariant_factors if d > 1]
    return free, sorted(torsion)


def solve_integer(rows: Sequence[Sequence[int]],
                  target: Sequence[int]) -> tuple[int, ...] | None:
    """One integer solution x of rows @ x = target, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    b = [int(t) for t in target]
    assert len(b) == m
    if n == 0:
        return () if all(t == 0 for t in b) else None
    sf = smith_form(rows)
    ub = [sum(sf.left[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(min(m, n)):
        d = sf.diag[i]
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
    for i in range(n, m):
        if ub[i] != 0:
            return None
    x = [sum(sf.right[i][j] * y[j] for j in range(n)) for i in range(n)]
    return tuple(x)
