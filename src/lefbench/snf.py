"""Integer matrix normal form.

Everything is plain Python integers (arbitrary precision); a matrix is a
sequence of rows.  The Smith form here keeps only its diagonal: that is all
the handle model of a fibration reads, the rank and the invariant factors,
and neither depends on a choice of basis.
"""

from __future__ import annotations

from typing import Sequence


def smith_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal entries of the Smith form of ``rows``: positive,
    each dividing the next, as many as the rank.  A matrix with no rows has
    none, whatever its width."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    s = [list(map(int, row)) for row in rows]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row_dst += q * row_src
        s[dst] = [a + q * b for a, b in zip(s[dst], s[src])]

    def add_col(src, dst, q):
        # col_dst += q * col_src
        for row in s:
            row[dst] += q * row[src]

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

    # the pivots so far are the nonzero diagonal; the rest is zero
    return tuple([s[i][i] for i in range(t)])
