"""Integer normal form against an independent sympy reference."""

import random

from hypothesis import given, settings, strategies as st

from lefbench.snf import smith_form

from oracles import (matrix_multiply, random_int_matrix,
                     sympy_integer_inverse, sympy_invariant_factors,
                     sympy_maximal_minor_gcd)


def test_known_forms():
    assert smith_form([[1, 0], [0, 1]]).invariant_factors == (1, 1)
    assert smith_form([[2, 0], [0, 3]]).invariant_factors == (1, 6)
    assert smith_form([[0, 0], [0, 0]]).invariant_factors == ()
    assert smith_form([[2, 4], [6, 8]]).invariant_factors == (2, 4)
    assert smith_form([[42]]).invariant_factors == (42,)
    # columns (2, 0, 0) and (0, 3, 0) in Z^3: the quotient is Z/6 + Z
    sf = smith_form([[2, 0], [0, 3], [0, 0]])
    assert (sf.invariant_factors, 3 - sf.rank) == ((1, 6), 1)


def test_decomposition_reconstructs():
    rows = [[3, 1, -4], [2, -3, 1]]
    _check_smith_form(rows, smith_form(rows))


def test_kernel_columns_and_coordinates_roundtrip():
    rows = [[1, 2, 3], [2, 4, 6]]
    sf = smith_form(rows)
    assert sf.rank == 1
    kernel = _kernel_columns(sf)
    assert matrix_multiply(rows, kernel) == ((0, 0), (0, 0))
    # a kernel vector has coordinates zero before rank, and the kernel
    # columns rebuild it from the rest
    x = (3, 0, -1)
    y = _apply(sf.right_inv, x)
    assert y[:sf.rank] == (0,)
    assert _apply(kernel, y[sf.rank:]) == x
    # a vector off the kernel does not
    assert any(_apply(sf.right_inv, (1, 1, 1))[:sf.rank])


def test_empty_kernel_shapes():
    # a matrix with no rows constrains nothing: its width comes from ncols
    sf = smith_form([], ncols=3)
    assert (sf.diag, sf.rank) == ((), 0)
    assert sf.right_inv == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    sf = smith_form([[1, 0], [0, 1]])
    assert sf.rank == 2 and _kernel_columns(sf) == [(), ()]


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


def _kernel_columns(sf):
    """The columns of V = right_inv^-1 from rank on, as rows of V."""
    return [row[sf.rank:] for row in sympy_integer_inverse(sf.right_inv)]


def _check_smith_form(rows, sf):
    """S = U @ rows @ V for some unimodular U, with S diagonal in Smith
    form and V = right_inv^-1: rows @ V is zero from column rank on, and its
    column j < rank is diag[j] times column j of U^-1, r columns that
    extend to a basis."""
    m, n, r = len(rows), len(rows[0]), sf.rank
    # diagonal: nonnegative divisibility chain, zero from rank on
    assert len(sf.diag) == min(m, n)
    nz = sf.diag[:r]
    assert all(d > 0 for d in nz) and not any(sf.diag[r:])
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
    # right_inv is unimodular: V is an integer matrix, and V @ right_inv = I
    assert abs(_det(sf.right_inv)) == 1
    right = sympy_integer_inverse(sf.right_inv)
    assert matrix_multiply(right, sf.right_inv) == tuple(
        tuple(int(i == j) for j in range(n)) for i in range(n))
    image = matrix_multiply(rows, right)
    # the kernel columns really annihilate
    assert matrix_multiply(rows, [col[r:] for col in right]) == tuple(
        (0,) * (n - r) for _ in range(m))
    # column j < rank is diag[j] times a primitive integer column
    assert all(row[j] % sf.diag[j] == 0 for row in image for j in range(r))
    if r:
        cols = [[row[j] // sf.diag[j] for j in range(r)] for row in image]
        assert sympy_maximal_minor_gcd(cols) == 1


@settings(max_examples=150, deadline=None)
@given(int_matrices)
def test_smith_form_properties(rows):
    _check_smith_form(rows, smith_form(rows))


@settings(max_examples=100, deadline=None)
@given(int_matrices, st.randoms(use_true_random=False))
def test_kernel_coordinates_agree_with_membership(rows, rnd):
    # the check matching_cycle_class makes: x lies in the kernel exactly
    # when its coordinates right_inv @ x vanish before rank, and then the
    # kernel columns rebuild x from the rest
    sf = smith_form(rows)
    n, r = len(rows[0]), sf.rank
    kernel = _kernel_columns(sf)
    z = tuple(rnd.randint(-4, 4) for _ in range(n - r))
    assert _apply(sf.right_inv, _apply(kernel, z)) == (0,) * r + z
    x = tuple(rnd.randint(-4, 4) for _ in range(n))
    y = _apply(sf.right_inv, x)
    assert (not any(_apply(rows, x))) == (not any(y[:r]))
    if not any(y[:r]):
        assert _apply(kernel, y[r:]) == x


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
