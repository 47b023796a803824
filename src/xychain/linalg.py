"""Dense symmetric eigensolver built on round-robin Jacobi rotations.

Kept in-repo (rather than delegating to LAPACK) so the verification layers
have a numerical route that is independent of the library eigensolvers used
as oracles in the test suite, with explicit control of the termination
tolerance, and for the high relative accuracy of Jacobi iteration (Demmel &
Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).  Each sweep visits every
index pair once in the round-robin (tournament) order of Brent & Luk (SIAM J.
Sci. Stat. Comput. 6(1), 1985): a round holds ``n/2`` disjoint pairs, whose
rotations commute and are applied together as array operations.
"""

import numpy as np

from .errors import ConvergenceFailure

__all__ = ["jacobi_eigh", "offdiag_max"]

#: Termination: largest off-diagonal magnitude must fall below this factor
#: times the largest magnitude of the input matrix.
OFFDIAG_TOL_FACTOR = 1e-12

MAX_SWEEPS = 100


def offdiag_max(matrix):
    """Largest absolute off-diagonal entry."""
    if matrix.shape[0] < 2:
        return 0.0
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def _tournament(size):
    """Round-robin successor order for an even ``size``.

    A round pairs the indices at positions ``2k`` and ``2k + 1``.  Taking rows
    and columns in the returned order keeps position 0 fixed and moves every
    other index one place round a ring, so ``size - 1`` rounds meet every pair
    exactly once and then restore the original order.
    """
    half = size // 2
    if half == 1:
        return np.arange(2)
    step = np.empty(size, dtype=np.intp)
    step[0::2] = np.r_[0, 1, 2 * np.arange(1, half - 1)]
    step[1::2] = np.r_[2 * np.arange(1, half) + 1, size - 2]
    return step


def jacobi_eigh(matrix, max_sweeps=MAX_SWEEPS):
    """Full eigendecomposition of a real symmetric matrix.

    Repeatedly applies two-sided Givens rotations over all index pairs until
    every off-diagonal entry is at most ``OFFDIAG_TOL_FACTOR`` times the
    largest magnitude of the input.  Returns ``(values, vectors)`` with eigenvalues
    ascending and eigenvectors as the corresponding columns.

    Raises
    ------
    ValueError
        If the matrix is not square or not symmetric.
    ConvergenceFailure
        If the sweep budget is exhausted before reaching tolerance.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    scale = float(np.max(np.abs(a))) if n else 0.0
    if n and float(np.max(np.abs(a - a.T))) > 1e-12 * max(scale, 1.0):
        raise ValueError("matrix is not symmetric")
    if n < 2 or scale == 0.0:
        values = np.diag(a).copy()
        order = np.argsort(values, kind="stable")
        return values[order], np.eye(n)[:, order]

    # An odd dimension gets one isolated zero row and column: every pair it
    # joins has a zero off-diagonal entry, so it is never rotated.
    size = n + n % 2
    half = size // 2
    pairs = (half, 2, size)  # rows 2k, 2k + 1 as the k-th pair
    a = np.pad(a, ((0, size - n), (0, size - n)))
    vectors_t = np.eye(size)  # row k holds the current k-th eigenvector
    work = np.empty((size, size))
    rotations = np.empty((half, 2, 2))
    step = _tournament(size)
    # flat positions of the rotated a[p, q] and a[q, p] after the columns,
    # but not yet the rows, have been put in the next round's order
    pos = np.arange(0, size, 2)
    moved = np.argsort(step)
    annihilated = np.stack([pos * size + moved[pos + 1], (pos + 1) * size + moved[pos]])

    threshold = OFFDIAG_TOL_FACTOR * scale
    # rotating entries already far below threshold wastes sweeps without
    # improving the final off-diagonal maximum
    skip = 0.1 * threshold
    for sweep in range(max_sweeps + 1):
        if offdiag_max(a) <= threshold:
            break
        if sweep == max_sweeps:
            raise ConvergenceFailure(
                f"Jacobi iteration did not reach off-diagonal tolerance "
                f"{threshold:.3e} within {max_sweeps} sweeps "
                f"(current {offdiag_max(a):.3e})"
            )
        for _ in range(size - 1):
            flat = a.reshape(-1)
            app = flat[0 :: 2 * size + 2]
            aqq = flat[size + 1 :: 2 * size + 2]
            apq = flat[1 :: 2 * size + 2]
            rotate = np.abs(apq) > skip
            # rotation angle annihilating a[p, q]
            tau = (aqq - app) / (2.0 * np.where(rotate, apq, 1.0))
            t = np.where(tau >= 0.0, 1.0, -1.0) / (
                np.abs(tau) + np.sqrt(1.0 + tau * tau)
            )
            c = np.where(rotate, 1.0 / np.sqrt(1.0 + t * t), 1.0)
            s = np.where(rotate, t * c, 0.0)
            rotations[:, 0, 0] = c
            rotations[:, 0, 1] = -s
            rotations[:, 1, 0] = s
            rotations[:, 1, 1] = c
            # A <- S^T R^T A R S, with R the rotations (rows p, q become
            # c p - s q and s p + c q) and S the next round's order.  As A is
            # symmetric, the transpose of S^T R^T A is A R S, so the column
            # pass rotates rows too.  Every index of ``step`` is in range;
            # mode="clip" lets ``take`` write straight into ``out``.
            np.matmul(rotations, a.reshape(pairs), out=work.reshape(pairs))
            np.take(work, step, axis=0, out=a, mode="clip")
            np.matmul(rotations, a.T.reshape(pairs), out=work.reshape(pairs))
            work.reshape(-1)[annihilated[:, rotate]] = 0.0
            np.take(work, step, axis=0, out=a, mode="clip")
            np.matmul(rotations, vectors_t.reshape(pairs), out=work.reshape(pairs))
            np.take(work, step, axis=0, out=vectors_t, mode="clip")
    values = np.diag(a)[:n].copy()
    order = np.argsort(values, kind="stable")
    return values[order], vectors_t[order, :n].T
