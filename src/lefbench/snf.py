"""Integer matrix normal form.

Everything is plain Python integers (arbitrary precision); matrices are
tuples of row tuples.  The Smith form here tracks only the inverse of its
column change of basis.  That is what the handle model of a fibration
reads: the rank, the invariant factors, and the coordinates of a vector in
the column basis whose last columns span the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithForm:
    """Decomposition S = U @ original @ V with U and V unimodular.

    ``diag`` holds the full diagonal of S (min(m, n) entries, nonnegative,
    each dividing the next); ``rank`` counts its nonzero entries.  The
    columns of V from ``rank`` on are a basis of the kernel; ``right_inv``
    is V^-1, so ``right_inv @ x`` gives the coordinates of x in the columns
    of V, and x lies in the kernel exactly when those before ``rank`` are
    zero.  Neither U nor V is kept.
    """
    diag: tuple[int, ...]
    rank: int
    right_inv: Matrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.diag[:self.rank]


def smith_form(rows: Sequence[Sequence[int]], ncols: int = 0) -> SmithForm:
    """Smith form of ``rows``; ``ncols`` is the width of a matrix with no
    rows."""
    m = len(rows)
    n = len(rows[0]) if m else ncols
    s = [list(map(int, row)) for row in rows]
    w = _identity(n)   # V^-1: a column op on S acts inversely on rows of w

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        w[i], w[j] = w[j], w[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]

    def add_col(src, dst, q):
        # col_dst += q * col_src; the inverse does row_src -= q * row_dst
        for row in s:
            row[dst] += q * row[src]
        w[src] = [a - q * b for a, b in zip(w[src], w[dst])]

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
            s[t] = [-a for a in s[t]]
        t += 1
        if t >= min(m, n):
            break

    diag = tuple(s[i][i] for i in range(min(m, n)))
    rank = sum(1 for d in diag if d != 0)
    return SmithForm(diag, rank, tuple(map(tuple, w)))
