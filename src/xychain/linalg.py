"""Dense solvers kept in-repo, one per verification route.

The solvers are kept in-repo (rather than delegating to LAPACK) so the
verification layers have numerical routes that are independent of the library
solvers used as oracles in the test suite, and of each other.

:func:`jacobi_svd`, the free-fermion path's solver, is a one-sided Jacobi SVD
with relatively accurate values and orthogonal factors (Demmel & Veselic,
SIAM J. Matrix Anal. Appl. 13(4), 1992); :func:`jacobi_eigh`, the
eigenvalues of the doubled matrix that certify it, and on an XX chain those
of the hopping matrix ``A`` as well, a two-sided Jacobi.  Each
sweep of either visits every index pair once in the round-robin (tournament)
order of Brent & Luk (SIAM J. Sci. Stat. Comput. 6(1), 1985): a round holds
``n/2`` disjoint pairs, whose rotations commute and are applied together.

:func:`sturm_eigvalsh` is the spin oracle's values-only solver and shares no
code with the Jacobi solvers.  It reduces each matrix to tridiagonal form by
Householder reflections (Golub & Van Loan, Matrix Computations, 4th ed.,
Sec. 8.3.1) and finds every eigenvalue of every matrix in one Sturm-count
bisection (Barth, Martin & Wilkinson, Numer. Math. 9, 1967), with the tiny
pivot guard of LAPACK ``dstebz``.  The guard runs on row 0 only; the other
rows run unguarded, one check per step finds a pivot the guard would have
changed, and only such a step reruns guarded, as LAPACK ``dlaneg`` does
(Marques, Riedy & Voemel, SIAM J. Sci. Comput. 28(5), 2006).

Each solver works on a copy scaled by a power of two to entries below one,
so no intermediate overflows, and raises ``OverflowError`` when an input
entry, or a value it returns, scaled back, is not a finite float.

The solver loops keep their bits by one rule: an iteration computes every
value it keeps with the same float operations, on the same operands and in
the same order, as the plain formulation (the references in
``tests/helpers.py``); only the buffers it writes and the row views it reads
are made once per call instead of once per iteration.
"""

import math

import numpy as np

from .errors import ConvergenceFailure

__all__ = ["jacobi_eigh", "jacobi_svd", "sturm_eigvalsh"]

#: Termination of :func:`jacobi_eigh`: largest off-diagonal magnitude must
#: fall below this factor times the largest magnitude of the input matrix.
OFFDIAG_TOL_FACTOR = 1e-12

#: Sweep budget of both Jacobi solvers, read when each is called.
MAX_SWEEPS = 100

#: Bisection steps of :func:`sturm_eigvalsh`.  Each halves every eigenvalue's
#: interval; after 53 the midpoint of a Gershgorin interval ``[lo, hi]`` is
#: within a unit roundoff of ``max(|lo|, |hi|)`` of the eigenvalue.
BISECTION_STEPS = 53


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


def _rotations(app, aqq, apq, rotate, work):
    """Rotations annihilating ``apq`` of each block ``[[app, apq], [apq, aqq]]``
    where ``rotate`` holds, written into the rotations of ``work`` (see
    :func:`_rotation_buffers`): rotation ``k`` takes rows ``p, q`` of pair
    ``k`` to ``c p - s q`` and ``s p + c q``."""
    (c, minus_s, s, c_again), tau, den, nonnegative, one, two, zero, minus_one = work
    np.multiply(two, np.where(rotate, apq, one), den)
    np.divide(np.subtract(aqq, app, tau), den, tau)
    # hypot(1, tau) is sqrt(1 + tau^2) without overflow; s is scratch here
    np.add(np.abs(tau, den), np.hypot(one, tau, s), den)
    t = np.divide(np.where(np.greater_equal(tau, zero, nonnegative), one, minus_one), den, tau)
    # t = 0 where no rotation: then c = 1 / hypot(1, 0) = 1 and s = 0 * c = 0
    t = np.where(rotate, t, zero)
    np.divide(one, np.hypot(one, t, c), c)
    np.negative(np.multiply(t, c, s), minus_s)
    c_again[...] = c


def _rotation_buffers(pairs):
    """``(rotations, work)``: the ``(pairs, 2, 2)`` rotations, and the views
    of their four entries and the buffers that :func:`_rotations` fills them
    through, made once per solver call."""
    rotations = np.empty((pairs, 2, 2))
    entries = (rotations[:, 0, 0], rotations[:, 0, 1], rotations[:, 1, 0], rotations[:, 1, 1])
    # the scalar operands as arrays: a ufunc converts a Python float on
    # every call
    constants = np.repeat([[1.0], [2.0], [0.0], [-1.0]], pairs, axis=1)
    return rotations, (entries, *np.empty((2, pairs)), np.empty(pairs, dtype=bool), *constants)


def _scaled_symmetric_copy(matrix):
    """``(a, exponent)``: a float copy of a real symmetric matrix times
    ``2^-exponent``, whose entries are below one in magnitude.

    Raises
    ------
    ValueError
        If the matrix is not square or not symmetric: ``max |a - a^T|``
        above ``1e-12`` times ``max |a|``.
    OverflowError
        If an entry is an infinity or NaN.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _finite(a, "eigenvalues")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    # relative to the largest entry, so a matrix and its power-of-two
    # multiples are judged alike; the zero matrix is symmetric
    if a.size and float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    exponent = int(np.frexp(scale)[1])
    return np.ldexp(a, -exponent, out=a), exponent


def _finite(values, what):
    """``values``, checked to hold no infinity or NaN."""
    if not np.all(np.isfinite(values)):
        raise OverflowError(f"{what} too large for a float")
    return values


def jacobi_eigh(matrix):
    """Eigenvalues of a real symmetric matrix, ascending.

    The matrix is scaled by a power of two to entries below one, then
    two-sided Givens rotations over all index pairs are applied until every
    off-diagonal entry is at most ``OFFDIAG_TOL_FACTOR`` times the largest
    magnitude; the eigenvalues are then the diagonal, scaled back.

    Raises
    ------
    ValueError
        If the matrix is not square or not symmetric.
    ConvergenceFailure
        If the sweep budget is exhausted before reaching tolerance.
    OverflowError
        If an eigenvalue is too large for a float, or an entry is an
        infinity or NaN.
    """
    a, exponent = _scaled_symmetric_copy(matrix)
    n = a.shape[0]
    if n < 2 or not a.any():
        return _finite(np.ldexp(np.sort(np.diag(a)), exponent), "eigenvalues")

    # An odd dimension gets one isolated zero row and column: every pair it
    # joins has a zero off-diagonal entry, so it is never rotated.
    size = n + n % 2
    half = size // 2
    pairs = (half, 2, size)  # rows 2k, 2k + 1 as the k-th pair
    a = np.pad(a, ((0, size - n), (0, size - n)))
    work = np.empty((size, size))
    rotations, rotation_work = _rotation_buffers(half)
    step = _tournament(size)
    # flat positions of the rotated a[p, q] and a[q, p] after the columns,
    # but not yet the rows, have been put in the next round's order
    pos = np.arange(0, size, 2)
    moved = np.argsort(step)
    annihilated = np.stack([pos * size + moved[pos + 1], (pos + 1) * size + moved[pos]])

    threshold = OFFDIAG_TOL_FACTOR * float(np.max(np.abs(a)))
    # rotating entries already far below threshold wastes sweeps without
    # improving the final off-diagonal maximum
    skip = 0.1 * threshold
    # the pairs' diagonal and off-diagonal entries and the stacked views:
    # made once, as take(out=a) keeps a's buffer in place
    flat, flat_work = a.reshape(-1), work.reshape(-1)
    app, aqq, apq = flat[0 :: 2 * size + 2], flat[size + 1 :: 2 * size + 2], flat[1 :: 2 * size + 2]
    magnitude = np.empty(half)
    rotate = np.empty(half, dtype=bool)
    rows, columns, packed_work = a.reshape(pairs), a.T.reshape(pairs), work.reshape(pairs)
    for sweep in range(MAX_SWEEPS + 1):
        if offdiag_max(a) <= threshold:
            break
        if sweep == MAX_SWEEPS:
            raise ConvergenceFailure(
                f"Jacobi iteration did not reach off-diagonal tolerance "
                f"{threshold:.3e} within {MAX_SWEEPS} sweeps "
                f"(current {offdiag_max(a):.3e})"
            )
        for _ in range(size - 1):
            np.greater(np.abs(apq, magnitude), skip, rotate)
            _rotations(app, aqq, apq, rotate, rotation_work)
            # A <- S^T R^T A R S, with R the rotations and S the next round's
            # order.  As A is symmetric, the transpose of S^T R^T A is A R S,
            # so the column pass rotates rows too.  Every index of ``step``
            # is in range; mode="clip" lets ``take`` write straight into ``out``.
            np.matmul(rotations, rows, packed_work)
            work.take(step, 0, a, "clip")
            np.matmul(rotations, columns, packed_work)
            flat_work[annihilated.compress(rotate, 1)] = 0.0
            work.take(step, 0, a, "clip")
    return _finite(np.ldexp(np.sort(np.diag(a)[:n]), exponent), "eigenvalues")


def jacobi_svd(matrix):
    """SVD of a real matrix with no more columns than rows, by one-sided
    (Hestenes) Jacobi rotations of column pairs.

    The matrix is scaled by a power of two to entries below one, and sweeps
    run until one finds every pair orthogonal, ``|c_i . c_j| <= rows * eps *
    |c_i| |c_j|``.  A column whose squared norm then underflows, one about
    ``1e154`` below the largest, counts as zero: values are relatively
    accurate only above that, and within ``eps`` of the largest always.
    Returns ``(values, right, left)``, values ascending, with ``matrix @
    right = left * values``, ``right`` orthogonal and ``left`` orthonormal:
    Gram-Schmidt of unit vectors completes it for zero values.

    Raises
    ------
    ValueError
        If the matrix is not two-dimensional or has more columns than rows.
    ConvergenceFailure
        If the sweep budget is exhausted before every pair is orthogonal.
    OverflowError
        If a singular value is too large for a float, or an entry is an
        infinity or NaN.
    """
    g = np.array(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] < g.shape[1]:
        raise ValueError(f"expected a matrix with rows >= columns, got shape {g.shape}")
    # a NaN fails every rotation test and would end as a zero value
    _finite(g, "singular values")
    m, n = g.shape
    exponent = int(np.frexp(np.max(np.abs(g), initial=0.0))[1])
    # row k holds column k and then row k of the right factor; an odd count
    # gets one zero row, which is never rotated
    size = n + n % 2
    pairs = (size // 2, 2, m + n)
    stack = np.zeros((size, m + n))
    stack[:n, :m] = np.ldexp(g.T, -exponent)
    stack[:n, m:] = np.eye(n)
    work = np.empty_like(stack)
    rotations, rotation_work = _rotation_buffers(size // 2)
    step = _tournament(size)
    tol, tiny = m * np.finfo(float).eps, np.finfo(float).tiny
    # the pairs' columns, their squared norms and cross products, and the
    # orthogonality bound: views and buffers made once, as take(out=stack)
    # keeps stack's buffer in place
    columns = stack[:, :m].reshape(pairs[:2] + (m,))
    first, second = columns[:, 0], columns[:, 1]
    norms2, norms = np.empty((2,) + pairs[:2])
    n0, n1, root0, root1 = norms2[:, 0], norms2[:, 1], norms[:, 0], norms[:, 1]
    cross, bound, other = np.empty((3, size // 2))
    rotate, orthogonal = np.empty((2, size // 2), dtype=bool)
    packed, packed_work = stack.reshape(pairs), work.reshape(pairs)
    for _ in range(MAX_SWEEPS):
        rotated = False
        for _ in range(size - 1):
            np.einsum("kij,kij->ki", columns, columns, out=norms2)
            np.einsum("kj,kj->k", first, second, out=cross)
            np.greater_equal(np.minimum(n0, n1, out=bound), tiny, rotate)
            # sqrt(n0) * sqrt(n1) is what np.prod forms over the pair
            np.sqrt(norms2, norms)
            np.multiply(tol, np.multiply(root0, root1, bound), bound)
            rotate &= np.greater(np.abs(cross, other), bound, orthogonal)
            rotated = rotated or np.count_nonzero(rotate) > 0
            _rotations(n0, n1, cross, rotate, rotation_work)
            np.matmul(rotations, packed, packed_work)
            work.take(step, 0, stack, "clip")
        if not rotated:
            break
    else:
        raise ConvergenceFailure(
            f"one-sided Jacobi left a column pair above orthogonality tolerance "
            f"{tol:.3e} after {MAX_SWEEPS} sweeps"
        )
    columns, right_t = stack[:n, :m], stack[:n, m:]
    norms2 = np.einsum("ij,ij->i", columns, columns)
    live = norms2 >= tiny
    values = np.where(live, np.sqrt(norms2), 0.0)
    left_t = np.zeros((n, m))
    left_t[live] = columns[live] / values[live, None]
    for k in np.flatnonzero(~live):
        # the unit vector farthest from the span so far, projected out twice
        basis = left_t[live]
        vector = np.eye(m)[np.argmin(np.einsum("ij,ij->j", basis, basis))]
        for _ in range(2):
            vector -= basis.T @ (basis @ vector)
        left_t[k] = vector / np.sqrt(vector @ vector)
        live[k] = True
    order = np.argsort(values, kind="stable")
    values = _finite(np.ldexp(values[order], exponent), "singular values")
    return values, right_t[order].T, left_t[order].T


def _householder_tridiagonal(matrix):
    """Scaled tridiagonal form of a real symmetric matrix.

    Returns ``(exponent, diag, off)``: ``matrix * 2^-exponent`` has entries
    below one in magnitude and is similar to the symmetric tridiagonal matrix
    with diagonal ``diag`` and off-diagonal ``off``, whose entry ``i`` couples
    rows ``i - 1`` and ``i`` (entry 0 is zero).  Step ``k`` reflects column
    ``k`` below the diagonal onto its first entry and applies the reflection
    to the trailing block from both sides as one symmetric rank-2 update; a
    column already zero below its first entry is left as it is.

    Raises
    ------
    ValueError
        If the matrix is not square or not symmetric.
    """
    a, exponent = _scaled_symmetric_copy(matrix)
    n = a.shape[0]
    off = np.zeros(n)
    # [v w] and [w; v] of the rank-2 update, in the leading rows or columns;
    # v and w stay contiguous arrays of their own, so their products keep
    # their bits
    left, right = np.empty((n, 2)), np.empty((2, n))
    for k in range(n - 2):
        x = a[k + 1 :, k]
        below = x[1:]
        # ndarray.dot is the 1-D product that @ calls, without the ufunc call
        sigma = float(below.dot(below))
        x0 = float(x[0])
        if sigma == 0.0:
            off[k + 1] = x0
            continue
        # the reflected entry takes the sign opposite to x[0], so v[0] adds
        # two numbers of one sign and does not cancel
        alpha = -math.copysign(math.sqrt(x0 * x0 + sigma), x0)
        v = x.copy()
        v[0] = x0 - alpha
        beta = 2.0 / float(v.dot(v))
        trailing = a[k + 1 :, k + 1 :]
        p = beta * (trailing @ v)
        w = p - (0.5 * beta * float(p.dot(v))) * v
        m = n - k - 1
        left[:m, 0] = right[1, :m] = v
        left[:m, 1] = right[0, :m] = w
        trailing -= left[:m] @ right[:, :m]
        off[k + 1] = alpha
    if n >= 2:
        off[n - 1] = a[n - 1, n - 2]
    return exponent, np.diag(a).copy(), off


def sturm_eigvalsh(matrices):
    """Eigenvalues of each of several real symmetric matrices.

    Each matrix is scaled by a power of two to entries below one, so no
    square overflows, and reduced to a symmetric tridiagonal ``T`` by
    Householder reflections.  Eigenvalue ``k`` of ``T`` is then found by
    bisection on its Gershgorin interval: the number of negative pivots of
    ``T - x I = L D L^T`` counts the eigenvalues below ``x`` (Sturm), and the
    interval keeps the half where that count passes ``k``.  All eigenvalues
    of all matrices bisect together, one vector entry each, for a fixed
    ``BISECTION_STEPS`` steps.  The tridiagonals are stacked column by column
    and shorter ones padded with ``+inf`` diagonal rows, whose pivots are
    ``+inf`` and never count.  A pivot smaller in magnitude than ``pivmin``
    becomes ``-pivmin`` and counts as negative, as in LAPACK ``dstebz``, so a
    shift that hits a pivot exactly still gives a consistent count and no
    division overflows.  Each step guards row 0 and runs the other rows
    unguarded; one check of every pivot against ``pivmin`` then shows
    whether the guard would have changed any of them, and only such a step
    is rerun with the guard on every row (Marques, Riedy & Voemel, SIAM J.
    Sci. Comput. 28(5), 2006, as in LAPACK ``dlaneg``).  Up to the first
    pivot below ``pivmin`` both passes do the same operations, so the values
    are those of the guard on every row.  Every quantity is per matrix, so
    one call gives the same values as one call per matrix.

    ``matrices`` may be any iterable; each matrix is read once, so a
    generator lets each be freed as soon as it is reduced.  Returns a list
    holding each matrix's eigenvalues, ascending.

    Raises
    ------
    ValueError
        If a matrix is not square or not symmetric.
    OverflowError
        If an eigenvalue is too large for a float, or an entry is an
        infinity or NaN.
    """
    tridiagonals = [_householder_tridiagonal(matrix) for matrix in matrices]
    sizes = [diag.size for _, diag, _ in tridiagonals]
    total, rows = sum(sizes), max(sizes, default=0)
    diag = np.full((rows, total), np.inf)
    off2 = np.zeros((rows, total))
    lo, hi, pivmin, index = np.empty((4, total))
    start = 0
    for _, d, off in tridiagonals:
        n = d.size
        if n == 0:
            continue
        block = slice(start, start + n)
        e2 = off * off
        diag[:n, block] = d[:, None]
        off2[:n, block] = e2[:, None]
        radius = np.abs(off) + np.abs(np.append(off[1:], 0.0))
        low, high = float(np.min(d - radius)), float(np.max(d + radius))
        # widened by the rounding of the bounds, as in dstebz
        pad = 2.0 * n * np.finfo(float).eps * max(abs(low), abs(high))
        lo[block], hi[block] = low - pad, high + pad
        # e2 / pivmin is at most 1 / tiny, finite; the block is scaled, so 1 is relative
        pivmin[block] = np.finfo(float).tiny * max(1.0, float(np.max(e2)))
        index[block] = np.arange(n)
        start += n

    if not total:
        return [np.empty(0) for _ in tridiagonals]
    pivots, magnitudes = np.empty((2, rows, total))
    negative = np.empty((rows, total), dtype=bool)
    mid, quotient, smallest = np.empty((3, total))
    tiny, above = np.empty((2, total), dtype=bool)
    count = np.empty(total, dtype=np.uint32)
    guard = -pivmin
    # (pivot, coupling, previous pivot) of rows 1 on, and of every row; row
    # 0's previous pivot is any nonzero, as off2[0] is zero
    first = pivots[0]
    unguarded = list(zip(pivots[1:], off2[1:], pivots[:-1]))
    guarded = [(first, off2[0], np.ones(total)), *unguarded]
    for _ in range(BISECTION_STEPS):
        np.multiply(0.5, np.add(lo, hi, mid), mid)
        np.subtract(diag, mid, pivots)
        # Row 0 guarded: mid often lands exactly on a 1 x 1 block's entry.
        # The other rows run unguarded, and one check finds whether any of
        # their pivots fell below pivmin (or turned NaN after one that did,
        # which the minimum keeps); until such a pivot both loops do the same
        # operations, and |e^2 / pivot| <= 1 / tiny keeps them finite.
        np.less(np.abs(first, quotient), pivmin, tiny)
        np.copyto(first, guard, where=tiny)
        with np.errstate(all="ignore"):
            for pivot, coupling, previous in unguarded:
                np.divide(coupling, previous, quotient)
                pivot -= quotient
        np.minimum.reduce(np.abs(pivots, magnitudes), 0, None, smallest)
        if not np.greater_equal(smallest, pivmin, tiny).all():
            np.subtract(diag, mid, pivots)
            for pivot, coupling, previous in guarded:
                # LDL^T pivot: d_i - x - e_{i-1}^2 / pivot_{i-1}
                np.divide(coupling, previous, quotient)
                pivot -= quotient
                np.less(np.abs(pivot, quotient), pivmin, tiny)
                np.copyto(pivot, guard, where=tiny)
        # negative pivots per column, summed in 32 bits: the reduction of a
        # boolean array to np.intp is twice as slow
        np.add.reduce(np.less(pivots, 0.0, negative), 0, np.uint32, count)
        np.greater(count, index, above)
        np.copyto(hi, mid, where=above)
        np.copyto(lo, mid, where=np.logical_not(above, above))
    values = 0.5 * (lo + hi)
    bounds = np.cumsum([0] + sizes)
    return [
        _finite(np.ldexp(values[begin:end], exponent), "eigenvalues")
        for (exponent, _, _), begin, end in zip(tridiagonals, bounds[:-1], bounds[1:])
    ]
