"""Tests for the self-contained Jacobi eigensolver.

Oracle: ``numpy.linalg.eigh`` (kept out of the library's computational path
precisely so it can serve as an independent reference here).
"""

import numpy as np
import pytest

from xychain.errors import ConvergenceFailure
from xychain.linalg import _tournament, jacobi_eigh, offdiag_max


def random_symmetric(rng, n, scale=1.0):
    raw = rng.normal(size=(n, n)) * scale
    return (raw + raw.T) / 2


class TestAgainstNumpyOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 64, 128])
    def test_eigenvalues_match(self, rng, n):
        matrix = random_symmetric(rng, n)
        values, _ = jacobi_eigh(matrix)
        expected = np.linalg.eigvalsh(matrix)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12 * max(1, n))

    # odd n runs with one isolated padding row and column
    @pytest.mark.parametrize("n", [2, 4, 9, 7, 13, 33])
    def test_eigenpairs_satisfy_definition(self, rng, n):
        matrix = random_symmetric(rng, n)
        values, vectors = jacobi_eigh(matrix)
        scale = np.max(np.abs(matrix))
        residual = np.max(np.abs(matrix @ vectors - vectors * values))
        assert residual < 1e-12 * max(1.0, scale) * n
        ortho = np.max(np.abs(vectors.T @ vectors - np.eye(n)))
        assert ortho < 1e-13 * n

    def test_large_scale_matrix(self, rng):
        matrix = random_symmetric(rng, 6, scale=1e8)
        values, _ = jacobi_eigh(matrix)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(matrix), rtol=1e-12, atol=1e-4
        )

    def test_tiny_scale_matrix(self, rng):
        matrix = random_symmetric(rng, 6, scale=1e-9)
        values, _ = jacobi_eigh(matrix)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(matrix), rtol=0, atol=1e-21
        )

    def test_degenerate_spectrum(self, rng):
        # Conjugate diag(2, 2, 2, -1) by a random rotation: a genuinely
        # degenerate eigenvalue with a 3-dimensional eigenspace.
        q_mat, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        matrix = q_mat @ np.diag([2.0, 2.0, 2.0, -1.0]) @ q_mat.T
        values, vectors = jacobi_eigh(matrix)
        np.testing.assert_allclose(values, [-1.0, 2.0, 2.0, 2.0], atol=1e-12)
        residual = np.max(np.abs(matrix @ vectors - vectors * values))
        assert residual < 1e-12

    def test_tridiagonal_chain_matrix(self, rng):
        n = 10
        diag = rng.uniform(-2, 2, n)
        off = rng.uniform(0.1, 1.5, n - 1)
        matrix = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        values, _ = jacobi_eigh(matrix)
        np.testing.assert_allclose(values, np.linalg.eigvalsh(matrix), atol=1e-12)

    def test_block_diagonal_input_stays_blocked(self, rng):
        # Pairs across the blocks have a zero off-diagonal entry and are
        # skipped, so every eigenvector lives on one block exactly.
        blocks = [random_symmetric(rng, 5), random_symmetric(rng, 6)]
        matrix = np.zeros((11, 11))
        matrix[:5, :5], matrix[5:, 5:] = blocks
        values, vectors = jacobi_eigh(matrix)
        np.testing.assert_allclose(
            values, np.linalg.eigvalsh(matrix), rtol=0, atol=1e-12 * 11
        )
        on_first = np.any(vectors[:5] != 0.0, axis=0)
        on_second = np.any(vectors[5:] != 0.0, axis=0)
        assert not np.any(on_first & on_second)
        assert on_first.sum() == 5 and on_second.sum() == 6


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
        values, vectors = jacobi_eigh(np.array([[3.5]]))
        assert values[0] == 3.5
        assert vectors[0, 0] == 1.0

    def test_zero_matrix(self):
        values, vectors = jacobi_eigh(np.zeros((4, 4)))
        np.testing.assert_array_equal(values, np.zeros(4))
        np.testing.assert_array_equal(vectors, np.eye(4))

    def test_already_diagonal(self):
        matrix = np.diag([3.0, -1.0, 2.0])
        values, vectors = jacobi_eigh(matrix)
        np.testing.assert_array_equal(values, [-1.0, 2.0, 3.0])
        residual = np.max(np.abs(matrix @ vectors - vectors * values))
        assert residual == 0.0

    def test_values_sorted_ascending(self, rng):
        values, _ = jacobi_eigh(random_symmetric(rng, 7))
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

    def test_sweep_budget_exhaustion_raises(self, rng):
        matrix = random_symmetric(rng, 6)
        with pytest.raises(ConvergenceFailure):
            jacobi_eigh(matrix, max_sweeps=0)


class TestOffdiagMax:
    def test_reports_largest_off_diagonal(self):
        matrix = np.array([[5.0, 0.25, -0.5], [0.25, 1.0, 0.125], [-0.5, 0.125, 2.0]])
        assert offdiag_max(matrix) == 0.5

    def test_zero_for_diagonal(self):
        assert offdiag_max(np.diag([1.0, 2.0])) == 0.0
