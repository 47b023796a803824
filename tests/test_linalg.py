"""Tests for the self-contained solvers: Jacobi eigenvalues, the one-sided
Jacobi SVD and Sturm bisection.

Oracles: ``numpy.linalg.eigvalsh`` and ``numpy.linalg.svd`` (kept out of the
library's computational path precisely so they can serve as independent
references here).
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    guarded_sturm_eigvalsh,
    reference_jacobi_eigh,
    reference_jacobi_svd,
    stacked_householder_tridiagonal,
)
from xychain import ChainSpec, QRacahParams, build_chain, contiguity_coefficients, linalg
from xychain.errors import ConvergenceFailure
from xychain.freefermion import assemble
from xychain.linalg import (
    _householder_tridiagonal,
    _tournament,
    jacobi_eigh,
    jacobi_svd,
    offdiag_max,
    sturm_eigvalsh,
)
from xychain.spinoracle import _coupled_blocks, build_spin_hamiltonian


def random_symmetric(rng, n, scale=1.0):
    raw = rng.normal(size=(n, n)) * scale
    return (raw + raw.T) / 2


class TestAgainstNumpyOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 64, 128])
    def test_eigenvalues_match(self, rng, n):
        matrix = random_symmetric(rng, n)
        values = jacobi_eigh(matrix)
        expected = np.linalg.eigvalsh(matrix)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * max(1, n))

    # odd n runs with one isolated padding column
    @pytest.mark.parametrize("n", [2, 4, 9, 7, 13, 33])
    def test_eigenpairs_satisfy_definition(self, rng, n):
        # The SVD of a symmetric matrix with distinct |eigenvalues| pairs
        # each right vector with +-itself: an eigenpair, the sign its
        # eigenvalue's.
        matrix = random_symmetric(rng, n)
        values, right, left = jacobi_svd(matrix)
        eigenvalues = values * np.sign(np.sum(right * left, axis=0))
        scale = np.max(np.abs(matrix))
        residual = np.max(np.abs(matrix @ right - right * eigenvalues))
        assert residual < 1e-12 * max(1.0, scale) * n
        ortho = np.max(np.abs(right.T @ right - np.eye(n)))
        assert ortho < 1e-13 * n
        np.testing.assert_allclose(
            np.sort(eigenvalues), np.linalg.eigvalsh(matrix), rtol=0, atol=1e-12 * max(1, n)
        )

    def test_large_scale_matrix(self, rng):
        matrix = random_symmetric(rng, 6, scale=1e8)
        values = jacobi_eigh(matrix)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(matrix), rtol=1e-12, atol=1e-4
        )

    def test_tiny_scale_matrix(self, rng):
        matrix = random_symmetric(rng, 6, scale=1e-9)
        values = jacobi_eigh(matrix)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(matrix), rtol=0, atol=1e-21
        )

    def test_degenerate_spectrum(self, rng):
        # Conjugate diag(2, 2, 2, -1) by a random rotation: a genuinely
        # degenerate eigenvalue with a 3-dimensional eigenspace.
        q_mat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        matrix = q_mat @ np.diag([2.0, 2.0, 2.0, -1.0]) @ q_mat.T
        values = jacobi_eigh(matrix)
        np.testing.assert_allclose(values, [-1.0, 2.0, 2.0, 2.0], atol=1e-12)

    def test_tridiagonal_chain_matrix(self, rng):
        n = 10
        diag = rng.uniform(-2, 2, n)
        off = rng.uniform(0.1, 1.5, n - 1)
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        values = jacobi_eigh(matrix)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(matrix), atol=1e-12)

    def test_block_diagonal_input_stays_blocked(self, rng):
        # Column pairs across the blocks are exactly orthogonal and never
        # rotated, so every singular vector lives on one block exactly.
        blocks = [random_symmetric(rng, 5), random_symmetric(rng, 6)]
        matrix = np.zeros((11, 11))
        matrix[:5, :5], matrix[5:, 5:] = blocks
        np.testing.assert_allclose(
            jacobi_eigh(matrix), np.linalg.eigvalsh(matrix), rtol=0, atol=1e-12 * 11
        )
        values, right, left = jacobi_svd(matrix)
        assert_matches_svd(values, matrix)
        for vectors in (right, left):
            on_first = np.any(vectors[:5] != 0.0, axis=0)
            on_second = np.any(vectors[5:] != 0.0, axis=0)
            assert not np.any(on_first & on_second)
            assert on_first.sum() == 5 and on_second.sum() == 6


def assert_matches_svd(values, matrix, rtol=1e-13):
    """Ascending and within ``rtol`` relative of ``numpy.linalg.svd``."""
    expected = np.sort(np.linalg.svd(matrix, compute_uv=False))
    np.testing.assert_allclose(values, expected, rtol=rtol, atol=0)


def assert_factors(matrix, values, right, left, tol=1e-13):
    """``matrix @ right = left * values`` and orthonormal factors, within
    ``tol`` times the size (and the largest value, for the residual)."""
    n = matrix.shape[1]
    residual = np.max(np.abs(matrix @ right - left * values), initial=0.0)
    assert residual <= tol * n * max(values[-1], np.finfo(float).tiny)
    assert np.max(np.abs(right.T @ right - np.eye(n))) <= tol * n
    assert np.max(np.abs(left.T @ left - np.eye(n))) <= tol * n


class TestJacobiSVD:
    # odd column counts run with one padding column that is never rotated
    @pytest.mark.parametrize("n", [2, 4, 9, 7, 13, 33])
    def test_factors_satisfy_definition(self, rng, n):
        matrix = rng.normal(size=(n, n))
        values, right, left = jacobi_svd(matrix)
        assert_matches_svd(values, matrix)
        assert_factors(matrix, values, right, left)

    @pytest.mark.parametrize("shape", [(1, 1), (5, 1), (6, 3), (40, 7)])
    def test_tall_matrices(self, rng, shape):
        matrix = rng.normal(size=shape)
        values, right, left = jacobi_svd(matrix)
        assert right.shape == (shape[1], shape[1]) and left.shape == shape
        assert_matches_svd(values, matrix)
        assert_factors(matrix, values, right, left)

    def test_graded_matrix_is_relatively_accurate(self, rng):
        # The smallest value is about 1e-15 of the largest; relative
        # accuracy needs a one-sided Jacobi, an eigensolver of the Gram
        # matrix would lose it.
        grading = np.diag(10.0 ** -np.arange(8, dtype=float))
        matrix = rng.normal(size=(8, 8)) @ grading
        values, right, left = jacobi_svd(matrix)
        assert_matches_svd(values, matrix, rtol=1e-12)
        assert_factors(matrix, values, right, left)

    def test_zero_matrix(self):
        values, right, left = jacobi_svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(values, np.zeros(3))
        np.testing.assert_array_equal(right, np.eye(3))
        assert_factors(np.zeros((4, 3)), values, right, left)

    def test_exact_zero_columns(self):
        # Rank 2 of 4: two exact zeros, whose left vectors are completed
        # orthonormally from unit vectors.
        matrix = np.array([[1.0, 0, 2, 0], [0, 0, 1, 0], [3, 0, 0, 0], [0, 0, 1, 0]])
        values, right, left = jacobi_svd(matrix)
        np.testing.assert_array_equal(values[:2], [0.0, 0.0])
        assert_matches_svd(values[2:], matrix[:, [0, 2]])
        assert_factors(matrix, values, right, left)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales(self, rng, scale):
        # scaled by a power of two first, so no squared norm overflows or
        # underflows
        matrix = rng.normal(size=(6, 6)) * scale
        values, right, left = jacobi_svd(matrix)
        assert_matches_svd(values, matrix)
        assert_factors(matrix, values, right, left)

    def test_underflowing_column_counts_as_zero(self):
        # Scaled to entries below one, the second column's squared norm
        # underflows: it counts as zero, not as an endless rotation.  The
        # smallest value is about 1 (the determinant is 1e200), so relative
        # accuracy is lost; the error stays within eps of the largest.
        matrix = np.array([[1e200, 1.0], [0.0, 1.0]])
        values, right, left = jacobi_svd(matrix)
        expected = np.sort(np.linalg.svd(matrix, compute_uv=False))
        np.testing.assert_allclose(
            values, expected, rtol=0, atol=np.finfo(float).eps * expected[-1]
        )
        assert np.max(np.abs(left.T @ left - np.eye(2))) < 1e-15

    def test_input_not_mutated(self, rng):
        matrix = rng.normal(size=(5, 4))
        copy = matrix.copy()
        jacobi_svd(matrix)
        np.testing.assert_array_equal(matrix, copy)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ValueError, match="rows >= columns"):
            jacobi_svd(np.zeros((3, 4)))

    def test_sweep_budget_exhaustion_raises(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceFailure):
            jacobi_svd(rng.normal(size=(6, 6)))


class TestTournament:
    @pytest.mark.parametrize("size", [2, 4, 6, 8, 34])
    def test_each_pair_once_per_sweep(self, size):
        step = _tournament(size)
        order = np.arange(size)
        met = []
        for _ in range(size - 1):
            met.extend(frozenset(pair) for pair in order.reshape(-1, 2).tolist())
            order = order[step]
        assert len(met) == len(set(met)) == size * (size - 1) // 2
        np.testing.assert_array_equal(order, np.arange(size))


class TestEdgeCases:
    def test_one_by_one(self):
        np.testing.assert_array_equal(jacobi_eigh(np.array([[3.5]])), [3.5])

    def test_zero_matrix(self):
        np.testing.assert_array_equal(jacobi_eigh(np.zeros((4, 4))), np.zeros(4))

    def test_already_diagonal(self):
        values = jacobi_eigh(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_array_equal(values, [-1.0, 2.0, 3.0])

    def test_values_sorted_ascending(self, rng):
        values = jacobi_eigh(random_symmetric(rng, 7))
        assert np.all(np.diff(values) >= 0)

    def test_input_not_mutated(self, rng):
        matrix = random_symmetric(rng, 5)
        copy = matrix.copy()
        jacobi_eigh(matrix)
        np.testing.assert_array_equal(matrix, copy)


class TestValidation:
    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((3, 4)))

    def test_non_symmetric_rejected(self):
        matrix = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ValueError):
            jacobi_eigh(matrix)

    def test_sweep_budget_exhaustion_raises(self, rng, monkeypatch):
        matrix = random_symmetric(rng, 6)
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceFailure):
            jacobi_eigh(matrix)

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_symmetry_is_judged_relative_to_the_largest_entry(self, k):
        # An asymmetry of 1e-13 of the largest entry is accepted at every
        # scale 2^k, and one of 1e-11 refused; the SVD takes either.
        scale = 2.0**k
        near, far = (np.array([[1.0, 0.5], [0.5 + gap, -1.0]]) for gap in (1e-13, 1e-11))
        for solve in (jacobi_eigh, lambda matrix: sturm_eigvalsh([matrix])[0]):
            np.testing.assert_array_equal(solve(scale * near), scale * solve(near))
            with pytest.raises(ValueError, match="not symmetric"):
                solve(scale * far)
            assert solve(np.zeros((3, 3))).tolist() == [0.0] * 3
        for matrix in (near, far):
            np.testing.assert_array_equal(jacobi_svd(scale * matrix)[0],
                                          scale * jacobi_svd(matrix)[0])

    def test_tiny_asymmetric_matrix_rejected(self):
        # the same matrix times 1e13 has always been refused
        for matrix in ([[0.0, 1e-13], [0.0, 0.0]], [[0.0, 1.0], [0.0, 0.0]]):
            with pytest.raises(ValueError, match="not symmetric"):
                jacobi_eigh(matrix)
            with pytest.raises(ValueError, match="not symmetric"):
                sturm_eigvalsh([matrix])


class TestFloatRange:
    """Entries near the top of the float range are fine; values beyond it
    raise ``OverflowError``."""

    # eigenvalues 0 and 2e308, singular values likewise
    BEYOND = np.full((2, 2), 1e308)

    @pytest.mark.parametrize(
        "solve",
        [jacobi_eigh, lambda m: jacobi_svd(m)[0], lambda m: sturm_eigvalsh([m])[0]],
        ids=["jacobi_eigh", "jacobi_svd", "sturm_eigvalsh"],
    )
    def test_values_beyond_the_float_range_raise(self, solve):
        with np.errstate(over="ignore"), pytest.raises(OverflowError, match="too large"):
            solve(self.BEYOND)

    @pytest.mark.parametrize("solve, values", [
        (jacobi_eigh, "eigenvalues"),
        (lambda m: jacobi_svd(m)[0], "singular values"),
        (lambda m: sturm_eigvalsh([m])[0], "eigenvalues"),
    ], ids=["jacobi_eigh", "jacobi_svd", "sturm_eigvalsh"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_entry_raises(self, solve, values, entry):
        # A NaN fails every rotation test, which would leave zero singular
        # values or spend the whole sweep budget.
        matrix = np.array([[entry, 1.0], [1.0, 2.0]])
        with pytest.raises(OverflowError, match=f"^{values} too large for a float$"):
            solve(matrix)

    def test_jacobi_eigh_near_the_top_of_the_range(self):
        # The hopping matrix of a 10-site chain with two bonds at 8e307: the
        # rotation angles of the unscaled matrix overflowed, leaving
        # eigenvalues 2 % off.
        hopping = np.diag([8e307, 8e307] + [1.0] * 7, 1)
        matrix = hopping + hopping.T
        assert_matches_eigvalsh(jacobi_eigh(matrix), matrix)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_jacobi_eigh_extreme_scales(self, rng, scale):
        matrix = random_symmetric(rng, 6, scale=scale)
        assert_matches_eigvalsh(jacobi_eigh(matrix), matrix)


class TestOffdiagMax:
    def test_reports_largest_off_diagonal(self):
        matrix = np.array([[5.0, 0.25, -0.5], [0.25, 1.0, 0.125], [-0.5, 0.125, 2.0]])
        assert offdiag_max(matrix) == 0.5

    def test_zero_for_diagonal(self):
        assert offdiag_max(np.diag([1.0, 2.0])) == 0.0


def assert_matches_eigvalsh(values, matrix):
    """Ascending and within 1e-12 of the spectral radius of ``numpy.linalg.eigvalsh``."""
    expected = np.linalg.eigvalsh(matrix)
    scale = float(np.max(np.abs(expected), initial=0.0))
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * scale)
    assert np.all(np.diff(values) >= 0)


class TestSturmEigvalsh:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 129])
    def test_random_symmetric(self, rng, n):
        matrix = random_symmetric(rng, n)
        assert_matches_eigvalsh(sturm_eigvalsh([matrix])[0], matrix)

    def test_zero_matrix(self):
        np.testing.assert_array_equal(sturm_eigvalsh([np.zeros((4, 4))])[0], np.zeros(4))

    def test_diagonal_matrix_skips_every_reflection(self):
        # The midpoint 0 of the Gershgorin interval [-1, 1] makes the first
        # pivot exactly zero, and the next coupling is zero too: without the
        # pivot guard that is 0 / 0 and the count is lost.
        matrix = np.diag([0.0, -1.0, 1.0, 0.5, -0.25])
        exponent, diag, off = _householder_tridiagonal(matrix)
        np.testing.assert_array_equal(np.ldexp(diag, exponent), np.diag(matrix))
        np.testing.assert_array_equal(off, np.zeros(5))
        assert_matches_eigvalsh(sturm_eigvalsh([matrix])[0], matrix)

    def test_zero_coupling_mid_way(self, rng):
        # A tridiagonal input is already reduced; the zero splits it in two.
        diag = rng.uniform(-2, 2, 9)
        off = rng.uniform(0.1, 1.5, 8)
        off[4] = 0.0
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        _, _, coupling = _householder_tridiagonal(matrix)
        assert coupling[5] == 0.0
        assert_matches_eigvalsh(sturm_eigvalsh([matrix])[0], matrix)

    @pytest.mark.parametrize(
        ("matrix", "eigenvalues"),
        [
            # Gershgorin interval [-7, 7]: the first midpoint is the
            # eigenvalue 0 and the first pivot is exactly zero.
            ([[0, 3, 0], [3, 0, 4], [0, 4, 0]], [-5, 0, 5]),
            # not tridiagonal, so the reflections run: eigenvalues 2 +- 1, 2 +- 3
            ([[2, 1, 0, 3], [1, 2, 3, 0], [0, 3, 2, 1], [3, 0, 1, 2]], [-2, 0, 4, 6]),
        ],
    )
    def test_integer_matrix_with_integer_eigenvalues(self, matrix, eigenvalues):
        matrix = np.array(matrix, dtype=float)
        values = sturm_eigvalsh([matrix])[0]
        scale = max(map(abs, eigenvalues))
        np.testing.assert_allclose(values, eigenvalues, rtol=0, atol=1e-12 * scale)

    def test_exact_degeneracy(self, rng):
        # identity plus rank one: 1 repeated n - 1 times, and 1 + |u|^2
        u = rng.normal(size=12)
        matrix = np.eye(12) + np.outer(u, u)
        values = sturm_eigvalsh([matrix])[0]
        assert_matches_eigvalsh(values, matrix)
        np.testing.assert_allclose(values[:-1], 1.0, rtol=0, atol=1e-12 * values[-1])

    def test_graded_matrix(self, rng):
        grading = np.diag(10.0 ** -np.arange(10))
        matrix = grading @ random_symmetric(rng, 10) @ grading
        assert_matches_eigvalsh(sturm_eigvalsh([matrix])[0], matrix)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scales(self, rng, scale):
        # scaled by a power of two first, so no square overflows or vanishes
        matrix = random_symmetric(rng, 6, scale=scale)
        assert_matches_eigvalsh(sturm_eigvalsh([matrix])[0], matrix)

    def test_blocks_in_one_call_equal_separate_calls(self, rng):
        matrices = [
            random_symmetric(rng, 9),
            np.zeros((0, 0)),
            np.array([[2.5]]),
            np.diag([0.0, -1.0, 1.0]),
            random_symmetric(rng, 31, scale=1e3),
            np.eye(4) + 1.0,
        ]
        together = sturm_eigvalsh(matrices)
        assert len(together) == len(matrices)
        for values, matrix in zip(together, matrices):
            np.testing.assert_array_equal(values, sturm_eigvalsh([matrix])[0])
            if matrix.size:
                assert_matches_eigvalsh(values, matrix)
        assert sturm_eigvalsh([]) == []

    def test_input_not_mutated(self, rng):
        matrix = random_symmetric(rng, 5)
        copy = matrix.copy()
        sturm_eigvalsh([matrix])
        np.testing.assert_array_equal(matrix, copy)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            sturm_eigvalsh([random_symmetric(rng, 2), np.zeros((3, 4))])

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sturm_eigvalsh([np.eye(2), np.array([[1.0, 2.0], [0.5, 1.0]])])


def bits(values):
    return np.asarray(values).view(np.int64)


def assert_guarded_bits(matrices):
    """``sturm_eigvalsh`` raises no warning and returns the bits of the
    always-guarded reference; returns the reference's guarded step count."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sturm_eigvalsh(matrices)
    expected, steps = guarded_sturm_eigvalsh(matrices)
    assert len(got) == len(expected)
    for values, reference in zip(got, expected):
        np.testing.assert_array_equal(bits(values), bits(reference))
    return steps


#: Uniform chains, (alpha, beta, gamma) of every bond, site and bond, whose
#: spin blocks put bisection midpoints exactly on pivots.
UNIFORM_CHAINS = {
    "xx": (1.0, 0.0, 0.0),
    "xx-field": (1.0, 1.0, 0.0),
    "xy": (1.0, 0.5, 0.25),
    "ising": (0.5, 1.0, 0.5),
    "zero": (0.0, 0.0, 0.0),
}


def uniform_spin_blocks(kind, sites):
    alpha, beta, gamma = UNIFORM_CHAINS[kind]
    hamiltonian = build_spin_hamiltonian(ChainSpec(
        np.full(sites - 1, alpha), np.full(sites, beta), np.full(sites - 1, gamma)))
    return [hamiltonian[np.ix_(block, block)] for block in _coupled_blocks(hamiltonian)]


class TestSturmGuardBits:
    """Rows past 0 run unguarded and a step reruns guarded only when one of
    their pivots falls below ``pivmin``: the values keep the bits of the
    guard on every row."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 59])
    def test_random_and_integer_matrices(self, rng, n):
        integer = rng.integers(-3, 4, size=(n, n)).astype(float)
        assert_guarded_bits([random_symmetric(rng, n)])
        assert_guarded_bits([integer + integer.T])

    def test_zero_matrices(self):
        # every midpoint is 0 and every pivot 0, so every step reruns guarded
        assert assert_guarded_bits([np.zeros((1, 1)), np.zeros((6, 6))]) == linalg.BISECTION_STEPS

    def test_one_by_one_blocks_among_larger_ones(self, rng):
        integer = rng.integers(-2, 3, size=(9, 9)).astype(float)
        assert_guarded_bits([np.array([[0.0]]), random_symmetric(rng, 7), np.array([[3.0]]),
                             integer + integer.T, np.zeros((0, 0)), np.array([[-1.5]])])

    @pytest.mark.parametrize("sites", range(2, 10))
    @pytest.mark.parametrize("kind", sorted(UNIFORM_CHAINS))
    def test_uniform_chain_spin_blocks(self, kind, sites):
        assert_guarded_bits(uniform_spin_blocks(kind, sites))

    def test_guarded_rerun_is_exercised(self):
        # the 9-site zero-field XX chain's sectors hit a pivot below pivmin
        # past row 0, so some steps take the guarded loop
        assert assert_guarded_bits(uniform_spin_blocks("xx", 9)) > 0

    def test_subnormal_pivot(self):
        # The first midpoint is 0, so pivot 1 is the subnormal 1e-310 and
        # 0.25 / 1e-310 overflows in the unguarded rows; the guarded rerun
        # makes pivot 1 -pivmin instead, and no warning escapes.
        matrix = np.array([[0.5, 0.0, 0.0], [0.0, 1e-310, 0.5], [0.0, 0.5, 0.0]])
        assert assert_guarded_bits([matrix]) > 0
        assert_matches_eigvalsh(sturm_eigvalsh([matrix])[0], matrix)


class TestHouseholderBits:
    @pytest.mark.parametrize("n", [2, 3, 4, 9, 31, 64, 129])
    @pytest.mark.parametrize("density", [1.0, 0.1])
    def test_same_bits_as_stacked_update(self, rng, n, density):
        matrix = random_symmetric(rng, n) * (rng.random((n, n)) < density)
        matrix = matrix + matrix.T
        exponent, diag, off = _householder_tridiagonal(matrix)
        expected = stacked_householder_tridiagonal(matrix)
        assert exponent == expected[0]
        np.testing.assert_array_equal(bits(diag), bits(expected[1]))
        np.testing.assert_array_equal(bits(off), bits(expected[2]))


def assert_jacobi_bits(matrix):
    """``jacobi_svd`` of ``matrix`` and ``jacobi_eigh`` of its symmetric part
    (of ``matrix.T @ matrix`` when it is not square) raise no warning and
    return the bits of the references, which allocate every temporary and
    reduce over the pair axis."""
    symmetric = (matrix + matrix.T) / 2 if matrix.shape[0] == matrix.shape[1] else matrix.T @ matrix
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = jacobi_svd(matrix)
        values = jacobi_eigh(symmetric)
    for array, reference in zip(got, reference_jacobi_svd(matrix)):
        np.testing.assert_array_equal(bits(array), bits(reference))
    np.testing.assert_array_equal(bits(values), bits(reference_jacobi_eigh(symmetric)))


def pool_chains(low, high):
    """The chains of the verify-qr24 pool's q-Racah points at ``low <= N <= high``."""
    pool = json.loads((Path(__file__).resolve().parent.parent / "bench" / "data" / "pool.json")
                      .read_text())
    for group in pool["verify-qr24"]:
        for candidate in group["candidates"]:
            config = dict(candidate["config"])
            family = config.pop("family")
            if family == "qr24" and low <= config["N"] <= high:
                yield build_chain(contiguity_coefficients(family, QRacahParams(**config)))


class TestJacobiBits:
    """The Jacobi rounds run on buffers and views made once per call, with
    the pair tests taken on the pair's two columns: values and factors keep
    the bits of the rounds that allocate every temporary (``helpers``)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 13, 26])
    def test_random_and_integer_matrices(self, rng, n):
        assert_jacobi_bits(rng.normal(size=(n, n)))
        assert_jacobi_bits(rng.normal(size=(n + 3, n)))
        assert_jacobi_bits(rng.integers(-3, 4, size=(n, n)).astype(float))

    def test_zero_and_rank_deficient_matrices(self, rng):
        assert_jacobi_bits(np.zeros((1, 1)))
        assert_jacobi_bits(np.zeros((5, 5)))
        assert_jacobi_bits(np.zeros((6, 3)))
        matrix = rng.normal(size=(7, 7))
        matrix[:, [1, 4]] = 0.0
        assert_jacobi_bits(matrix)
        assert_jacobi_bits(np.outer(rng.normal(size=6), rng.normal(size=6)))

    def test_verify_pool_doubled_matrices(self):
        chains = list(pool_chains(9, 12))
        assert len(chains) >= 40
        for chain in chains:
            system = assemble(chain)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = jacobi_svd(system.A + system.B), jacobi_eigh(system.H)
            expected = reference_jacobi_svd(system.A + system.B), reference_jacobi_eigh(system.H)
            for array, reference in zip((*got[0], got[1]), (*expected[0], expected[1])):
                np.testing.assert_array_equal(bits(array), bits(reference))

    def test_negative_zero_tau(self):
        # Equal diagonal entries (and, for the SVD, equal column norms) with
        # a negative off-diagonal entry make tau = 0 / negative = -0.0, where
        # np.where takes the +1 branch and np.copysign would take -1; the
        # rotation, and with it every later round, depends on that choice.
        assert_jacobi_bits(np.array([[5.0, -3.0], [0.0, 4.0]]))
        assert_jacobi_bits(np.array([[5.0, -3.0, 1.0], [0.0, 4.0, 2.0], [1.0, 1.0, 3.0]]))
        symmetric = np.array([[1.0, -0.5, 0.25, 0.0], [-0.5, 1.0, 0.5, 0.125],
                              [0.25, 0.5, 2.0, -0.75], [0.0, 0.125, -0.75, 3.0]])
        assert_jacobi_bits(symmetric)
