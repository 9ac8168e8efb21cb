"""Integer normal form against an independent sympy reference."""

import random

from hypothesis import given, settings, strategies as st

from lefbench.snf import (cokernel_invariants, kernel_basis, smith_form,
                          solve_integer)

from oracles import matrix_multiply, random_int_matrix, sympy_invariant_factors


def test_known_forms():
    assert smith_form([[1, 0], [0, 1]]).invariant_factors == (1, 1)
    assert smith_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)
    assert smith_form([[0, 0], [0, 0]]).invariant_factors == ()
    assert smith_form([[2, 4], [6, 8]]).invariant_factors == (2, 4)
    assert smith_form([[42]]).invariant_factors == (42,)


def test_decomposition_reconstructs():
    rows = [[3, 1, -4], [2, -3, 1]]
    sf = smith_form(rows)
    s = matrix_multiply(matrix_multiply(sf.left, rows), sf.right)
    for i in range(2):
        for j in range(3):
            assert s[i][j] == (sf.diag[i] if i == j else 0)


def test_kernel_and_solve_roundtrip():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = kernel_basis(rows)
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(r[i] * vec[i] for i in range(3)) == 0 for r in rows)
    x = solve_integer(rows, [6, 12])
    assert x is not None
    assert [sum(r[i] * x[i] for i in range(3)) for r in rows] == [6, 12]
    assert solve_integer(rows, [1, 1]) is None      # incompatible rows
    assert solve_integer([[2]], [3]) is None        # divisibility failure


def test_empty_kernel_shapes():
    assert kernel_basis([], ncols=3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert kernel_basis([[1, 0], [0, 1]]) == ()


def test_cokernel_invariants():
    # columns (2, 0) and (0, 3) inside Z^3: quotient (Z/2 + Z/3) + Z = Z/6 + Z
    rows = [[2, 0], [0, 3], [0, 0]]
    assert cokernel_invariants(rows, 3) == (1, [6])
    assert cokernel_invariants([], 2) == (2, [])
    assert cokernel_invariants([[1], [0]], 2) == (1, [])


def test_invariant_factors_match_sympy_randoms():
    rng = random.Random(20260814)
    for _ in range(300):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = random_int_matrix(m, n, rng)
        assert smith_form(rows).invariant_factors == tuple(sympy_invariant_factors(rows)), rows


int_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9),
                     min_size=n, max_size=n),
            min_size=m, max_size=m)))


@settings(max_examples=150, deadline=None)
@given(int_matrices)
def test_smith_form_properties(rows):
    sf = smith_form(rows)
    m, n = sf.shape
    # reconstruction
    s = matrix_multiply(matrix_multiply(sf.left, rows), sf.right)
    for i in range(m):
        for j in range(n):
            assert s[i][j] == (sf.diag[i] if i == j and i < len(sf.diag) else 0)
    # divisibility chain on nonzero entries, all nonnegative
    nz = [d for d in sf.diag if d != 0]
    assert all(d > 0 for d in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # change-of-basis matrices are unimodular
    assert abs(_det(sf.left)) == 1
    assert abs(_det(sf.right)) == 1
    # kernel vectors really annihilate
    for vec in kernel_basis(rows):
        assert all(sum(row[i] * vec[i] for i in range(n)) == 0 for row in rows)


@settings(max_examples=100, deadline=None)
@given(int_matrices, st.randoms(use_true_random=False))
def test_solve_integer_agrees_with_membership(rows, rnd):
    n = len(rows[0])
    x = [rnd.randint(-4, 4) for _ in range(n)]
    b = [sum(row[i] * x[i] for i in range(n)) for row in rows]
    got = solve_integer(rows, b)
    assert got is not None
    assert [sum(row[i] * got[i] for i in range(n)) for row in rows] == b


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
