"""Integer matrix normal form: the diagonal of the Smith form of a sequence
of rows of plain Python integers, all that the handle model of a fibration
reads (the rank and the invariant factors, neither depending on a basis).

Entries stay in [0, M), M = 2|D| for a nonzero maximal minor D that
fraction-free elimination finds with the rank r (Bareiss, Math. Comp. 22,
1968; elimination mod D: Hafner and McCurley, SIAM J. Comput. 20, 1991).
Integer row and column operations stay invertible mod M.  Each invariant
factor d_i divides D (d_1...d_r divides every r x r minor), so gcd(pivot_i,
M) = d_i; d_r <= |D| < M, so each of the r pivots is nonzero mod M, d_i
times a unit mod M / d_i.  u + c v generates the ideal of u and v mod M
when c keeps just the primes of M where u's gcd with M divides v's.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


def _maximal_minor(rows: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, a nonzero maximal minor up to sign), by fraction-free
    elimination; a matrix of rank 0 gives (0, 1)."""
    a, rank, minor = [list(row) for row in rows], 0, 1
    for j in range(len(a[0]) if a else 0):
        i = next((i for i in range(rank, len(a)) if a[i][j]), None)
        if i is not None:
            a[rank], a[i] = a[i], a[rank]
            p = a[rank][j]
            a[rank + 1:] = [[(p * x - row[j] * y) // minor
                             for x, y in zip(row, a[rank])]
                            for row in a[rank + 1:]]
            rank, minor = rank + 1, p
            if rank == len(a):
                break
    return rank, minor


def smith_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """The nonzero diagonal entries of the Smith form of ``rows``: positive,
    each dividing the next, as many as the rank.  A matrix with no rows has
    none, whatever its width."""
    rank, minor = _maximal_minor(rows)
    mod = 2 * abs(minor)
    k, s = mod.bit_length(), [[x % mod for x in row] for row in rows]
    for t in range(rank):
        block, pivot = s[t:], s[t]
        # column t takes in the block's ideal g, then the pivot takes it in
        g = gcd(mod, *[row[t] for row in block])
        for j in range(t + 1, len(pivot)):
            if g > 1 and (h := gcd(g, *[row[j] for row in block])) < g:
                c = mod // gcd(mod, pow(g // h, k, mod))
                for row in block:
                    row[t] = (row[t] + c * row[j]) % mod
                g = h
        for row in block[1:]:
            if (gp := gcd(mod, pivot[t])) > g:
                c = mod // gcd(mod, pow(gp // gcd(gp, row[t]), k, mod))
                pivot[:] = [(x + c * y) % mod for x, y in zip(pivot, row)]
        # so every entry below the pivot is a multiple of it: clear them
        unit = pow(pivot[t] // g, -1, mod // g)
        for row in block[1:]:
            q = row[t] // g * unit
            row[:] = [(x - q * y) % mod for x, y in zip(row, pivot)]
    return tuple([gcd(mod, s[t][t]) for t in range(rank)])
