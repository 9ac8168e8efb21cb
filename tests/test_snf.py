"""Integer normal form against an independent sympy reference."""

import os
import random
import resource
import subprocess
import sys
from math import prod
from pathlib import Path

from hypothesis import given, settings, strategies as st

import lefbench
from lefbench.snf import smith_form

from oracles import (matrix_multiply, random_int_matrix,
                     sympy_invariant_factors, sympy_kernel_basis,
                     sympy_kernel_coordinates, sympy_maximal_minor_gcd,
                     sympy_smith_decomposition)


def test_known_forms():
    assert smith_form([[1, 0], [0, 1]]) == (1, 1)
    assert smith_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_form([[0, 0], [0, 0]]) == ()
    assert smith_form([[2, 4], [6, 8]]) == (2, 4)
    assert smith_form([[42]]) == (42,)
    # columns (2, 0, 0) and (0, 3, 0) in Z^3: the quotient is Z/6 + Z
    factors = smith_form([[2, 0], [0, 3], [0, 0]])
    assert (factors, 3 - len(factors)) == ((1, 6), 1)


def test_decomposition_reconstructs():
    rows = [[3, 1, -4], [2, -3, 1]]
    _check_smith_form(rows, smith_form(rows))


def test_kernel_columns_and_coordinates_roundtrip():
    rows = [[1, 2, 3], [2, 4, 6]]
    assert smith_form(rows) == (1,)
    kernel = sympy_kernel_basis(rows)
    assert len(kernel) == 3 - 1
    assert matrix_multiply(rows, list(zip(*kernel))) == ((0, 0), (0, 0))
    # a kernel vector has integer coordinates in the kernel columns, which
    # rebuild it; a vector off the kernel has none
    x = (3, 0, -1)
    assert _combine(kernel, sympy_kernel_coordinates(kernel, x), 3) == x
    assert sympy_kernel_coordinates(kernel, (1, 1, 1)) is None


def test_empty_kernel_shapes():
    # a matrix with no rows has no invariant factors, whatever its width
    assert smith_form([]) == ()
    # full column rank: as many factors as columns, and no kernel
    assert smith_form([[1, 0], [0, 1]]) == (1, 1)
    assert sympy_kernel_basis([[1, 0], [0, 1]]) == ()


def test_invariant_factors_match_sympy_randoms():
    rng = random.Random(20260814)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = random_int_matrix(m, n, rng)
        assert smith_form(rows) == tuple(sympy_invariant_factors(rows)), rows


def _seeded_square(n):
    # rows of random.randint(-9, 9) after random.seed(12)
    rng = random.Random(12)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def test_seeded_squares_within_a_second_of_cpu():
    # unreduced elimination grows these matrices' entries to tens of
    # thousands of bits, for minutes at 14 x 14; the child computing both
    # is killed past 1 s of CPU
    src = Path(lefbench.__file__).resolve().parents[1]
    code = ("import random; from lefbench.snf import smith_form\n"
            "for n in 14, 20:\n"
            "    rng = random.Random(12)\n"
            "    print(*smith_form([[rng.randint(-9, 9) for _ in range(n)]"
            " for _ in range(n)]))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_CPU, (1, 1)))
    assert proc.returncode == 0, proc.stderr
    for n, line in zip((14, 20), proc.stdout.splitlines(), strict=True):
        factors = tuple(sympy_invariant_factors(_seeded_square(n)))
        assert tuple(map(int, line.split())) == factors
        assert len(factors) == n and factors[-1] > 10 ** 15


def test_rank_deficient_and_scaled_shapes_match_sympy():
    # tall, wide and square products of lower rank, scaled so that entries,
    # pivots and the modulus share primes
    rng = random.Random(20261020)
    for m, n, r in ((7, 3, 2), (3, 7, 2), (6, 6, 3), (8, 2, 1), (2, 9, 2)):
        for _ in range(6):
            rows = matrix_multiply(random_int_matrix(m, r, rng),
                                   random_int_matrix(r, n, rng))
            for scale in (1, 4, 12, 210):
                scaled = [[scale * x for x in row] for row in rows]
                factors = smith_form(scaled)
                assert factors == tuple(sympy_invariant_factors(scaled)), scaled
                assert len(factors) <= r


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


def _check_smith_form(rows, factors):
    """The factors are a positive divisibility chain; sympy's S = U @ rows
    @ V, U and V unimodular, is the diagonal matrix of the factors, so
    rows = U^-1 @ S @ V^-1; and when the columns of rows are independent,
    the factors multiply to the gcd of the maximal minors."""
    m, n = len(rows), len(rows[0])
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    s, u, v = sympy_smith_decomposition(rows)
    assert abs(_det(u)) == 1 and abs(_det(v)) == 1
    assert matrix_multiply(matrix_multiply(u, rows), v) == s
    assert s == tuple(tuple(factors[i] if i == j and i < len(factors) else 0
                            for j in range(n)) for i in range(m))
    if len(factors) == n:
        assert sympy_maximal_minor_gcd(rows) == prod(factors)


@settings(max_examples=150, deadline=None)
@given(int_matrices)
def test_smith_form_properties(rows):
    _check_smith_form(rows, smith_form(rows))


@settings(max_examples=100, deadline=None)
@given(int_matrices, st.randoms(use_true_random=False))
def test_kernel_coordinates_agree_with_membership(rows, rnd):
    # the kernel is saturated, as the handle model of a bifibration needs:
    # its n - rank basis columns rebuild every integer combination of
    # them, and x lies in the kernel exactly when it has integer
    # coordinates in those columns
    n, r = len(rows[0]), len(smith_form(rows))
    kernel = sympy_kernel_basis(rows)
    assert len(kernel) == n - r
    z = tuple(rnd.randint(-4, 4) for _ in range(n - r))
    assert sympy_kernel_coordinates(kernel, _combine(kernel, z, n)) == z
    x = tuple(rnd.randint(-4, 4) for _ in range(n))
    coords = sympy_kernel_coordinates(kernel, x)
    assert (not any(_apply(rows, x))) == (coords is not None)
    if coords is not None:
        assert _combine(kernel, coords, n) == x


def _combine(columns, coords, n):
    """sum coords_j columns_j, a vector of length n."""
    return tuple(sum(c * col[i] for c, col in zip(coords, columns))
                 for i in range(n))


def _apply(mat, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in mat)


def _det(mat):
    mat = [list(r) for r in mat]
    n = len(mat)
    from fractions import Fraction
    a = [[Fraction(v) for v in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det
