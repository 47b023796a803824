"""Reference points, parameter boxes and helpers shared by the test modules.

A plain module rather than ``conftest.py``: test modules import these names
directly, and ``from conftest import ...`` would resolve to whichever
``conftest`` module was imported first when several test directories run
together.
"""

import sys
from pathlib import Path

import numpy as np

from xychain import (
    ChainSpec,
    QRacahParams,
    analytic_spectrum,
    build_chain,
    build_pq_table,
    contiguity_coefficients,
    linalg,
)
from xychain.errors import ConvergenceFailure
from xychain.qseries import phi43_terminating_exact

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# One verdict line per acceptance criterion, appended by tests/test_acceptance.py
# and echoed as a terminal section at the end of the run by conftest.py.
ACCEPTANCE_LINES = []

# Reference point where every certification level passes.
QR24_DEFAULT = QRacahParams(a=-0.3, b=0.3, c=-0.8, N=4, q=0.7)
# First-family point whose coupling roots have mixed signs (spectral level).
QR13_CHAIN = QRacahParams(a=4.21, b=6.28, c=-0.54, N=4, q=0.7)

# Parameter boxes with healthy validity rates, used for randomized draws.
QR24_BOX = {
    "a": [-0.9, -0.05],
    "b": [0.05, 0.9],
    "c": [-0.95, -0.1],
    "q": [0.3, 0.5, 0.7],
}
QR13_BOX = {
    "a": [1.5, 9.0],
    "b": [1.5, 9.0],
    "c": [-0.9, -0.1],
    "q": [0.3, 0.5, 0.7],
}


def phi43_grid(rows, columns, q, z):
    """One grid of the evaluator, as a block of one: its rows as lists of
    floats, or the exception it gives raised."""
    (grid,) = phi43_terminating_exact([(rows, columns)], q, z)
    if isinstance(grid, Exception):
        raise grid
    return grid.tolist()


def phi43_lone(i, nums, dens, q, z):
    """One terminating 4phi3 sum, in the argument order of
    ``exact_oracles.phi43_exact``, as the 1 x 1 grid
    ``[(i, a1)] x [(a2, a3, b1, b2, b3)]`` of the evaluator."""
    a1, a2, a3 = nums
    return phi43_grid([(i, a1)], [(a2, a3, *dens)], q, z)[0][0]


def random_chain(rng, n_sites):
    """A generic open XY chain with couplings of mixed sign and order one."""
    return ChainSpec(
        alpha=rng.uniform(-1.5, 1.5, n_sites - 1),
        beta=rng.uniform(-1.5, 1.5, n_sites),
        gamma=rng.uniform(-1.0, 1.0, n_sites - 1),
    )


def pq_table(family, params):
    """P/Q tables of a q-Racah point, from its chain and closed-form spectrum."""
    coeffs = contiguity_coefficients(family, params)
    return build_pq_table(coeffs, build_chain(coeffs), analytic_spectrum(coeffs))


def residuals(report):
    """Check name -> residual of a :class:`~xychain.report.CheckReport`."""
    return {check.name: check.residual for check in report.checks}


def bind_everywhere(monkeypatch, name, replacement, module=linalg):
    """Bind ``replacement`` wherever the package binds ``<module>.<name>``
    (``from .linalg import f`` makes copies); return the original."""
    original = getattr(module, name)
    for module_name, module in list(sys.modules.items()):
        if module_name == "xychain" or module_name.startswith("xychain."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
    return original


def stacked_householder_tridiagonal(matrix):
    """``linalg._householder_tridiagonal`` with the rank-2 update formed by
    ``np.stack`` and the scalar steps on numpy scalars: the reference whose
    bits the solver keeps."""
    a, exponent = linalg._scaled_symmetric_copy(matrix)
    n = a.shape[0]
    off = np.zeros(n)
    for k in range(n - 2):
        x = a[k + 1 :, k]
        sigma = x[1:] @ x[1:]
        if sigma == 0.0:
            off[k + 1] = x[0]
            continue
        alpha = -np.copysign(np.sqrt(x[0] * x[0] + sigma), x[0])
        v = x.copy()
        v[0] -= alpha
        beta = 2.0 / (v @ v)
        trailing = a[k + 1 :, k + 1 :]
        p = beta * (trailing @ v)
        w = p - (0.5 * beta * (p @ v)) * v
        trailing -= np.stack([v, w], axis=1) @ np.stack([w, v])
        off[k + 1] = alpha
    if n >= 2:
        off[n - 1] = a[n - 1, n - 2]
    return exponent, np.diag(a).copy(), off


def guarded_sturm_eigvalsh(matrices):
    """``linalg.sturm_eigvalsh`` with the ``pivmin`` guard on every row of
    every bisection step: the reference whose bits the solver keeps.

    Returns ``(values, steps)``: each matrix's eigenvalues, and the number of
    steps in which a pivot past row 0 fell below ``pivmin``, which are the
    steps the solver reruns guarded.
    """
    tridiagonals = [stacked_householder_tridiagonal(matrix) for matrix in matrices]
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
        pad = 2.0 * n * np.finfo(float).eps * max(abs(low), abs(high))
        lo[block], hi[block] = low - pad, high + pad
        pivmin[block] = np.finfo(float).tiny * max(1.0, float(np.max(e2)))
        index[block] = np.arange(n)
        start += n

    pivots = np.empty((rows, total))
    steps = 0
    for _ in range(linalg.BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        np.subtract(diag, mid, out=pivots)
        previous = np.ones(total)
        guarded_past_row_0 = False
        for row, (pivot, coupling) in enumerate(zip(pivots, off2)):
            pivot -= coupling / previous
            tiny = np.abs(pivot) < pivmin
            np.copyto(pivot, -pivmin, where=tiny)
            guarded_past_row_0 |= row > 0 and bool(tiny.any())
            previous = pivot
        steps += guarded_past_row_0
        above = np.count_nonzero(pivots < 0.0, axis=0) > index
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    values = 0.5 * (lo + hi)
    bounds = np.cumsum([0] + sizes)
    return [
        np.ldexp(values[begin:end], exponent)
        for (exponent, _, _), begin, end in zip(tridiagonals, bounds[:-1], bounds[1:])
    ], steps


def reference_rotations(app, aqq, apq, rotate, out):
    """``linalg._rotations`` with a new array per operation and ``np.where``
    at every masked step: the reference whose bits the solver keeps."""
    tau = (aqq - app) / (2.0 * np.where(rotate, apq, 1.0))
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
    c = np.where(rotate, 1.0 / np.hypot(1.0, t), 1.0)
    s = np.where(rotate, t * c, 0.0)
    out[:, 0, 0] = c
    out[:, 0, 1] = -s
    out[:, 1, 0] = s
    out[:, 1, 1] = c


def reference_jacobi_eigh(matrix):
    """``linalg.jacobi_eigh`` with its views made and its temporaries
    allocated in every round: the reference whose bits the solver keeps."""
    a, exponent = linalg._scaled_symmetric_copy(matrix)
    n = a.shape[0]
    if n < 2 or not a.any():
        return linalg._finite(np.ldexp(np.sort(np.diag(a)), exponent), "eigenvalues")
    size = n + n % 2
    half = size // 2
    pairs = (half, 2, size)
    a = np.pad(a, ((0, size - n), (0, size - n)))
    work = np.empty((size, size))
    rotations = np.empty((half, 2, 2))
    step = linalg._tournament(size)
    pos = np.arange(0, size, 2)
    moved = np.argsort(step)
    annihilated = np.stack([pos * size + moved[pos + 1], (pos + 1) * size + moved[pos]])
    threshold = linalg.OFFDIAG_TOL_FACTOR * float(np.max(np.abs(a)))
    skip = 0.1 * threshold
    for sweep in range(linalg.MAX_SWEEPS + 1):
        if linalg.offdiag_max(a) <= threshold:
            break
        if sweep == linalg.MAX_SWEEPS:
            raise ConvergenceFailure("sweep budget exhausted")
        for _ in range(size - 1):
            flat = a.reshape(-1)
            apq = flat[1 :: 2 * size + 2]
            rotate = np.abs(apq) > skip
            reference_rotations(flat[0 :: 2 * size + 2], flat[size + 1 :: 2 * size + 2], apq,
                                rotate, rotations)
            np.matmul(rotations, a.reshape(pairs), out=work.reshape(pairs))
            np.take(work, step, axis=0, out=a, mode="clip")
            np.matmul(rotations, a.T.reshape(pairs), out=work.reshape(pairs))
            work.reshape(-1)[annihilated[:, rotate]] = 0.0
            np.take(work, step, axis=0, out=a, mode="clip")
    return linalg._finite(np.ldexp(np.sort(np.diag(a)[:n]), exponent), "eigenvalues")


def reference_jacobi_svd(matrix):
    """``linalg.jacobi_svd`` with its pair tests as reductions over the pair
    axis (``np.all`` and ``np.prod``) and its views made and temporaries
    allocated in every round: the reference whose bits the solver keeps."""
    g = np.array(matrix, dtype=float)
    m, n = g.shape
    exponent = int(np.frexp(np.max(np.abs(g), initial=0.0))[1])
    size = n + n % 2
    pairs = (size // 2, 2, m + n)
    stack = np.zeros((size, m + n))
    stack[:n, :m] = np.ldexp(g.T, -exponent)
    stack[:n, m:] = np.eye(n)
    work = np.empty_like(stack)
    rotations = np.empty((size // 2, 2, 2))
    step = linalg._tournament(size)
    tol, tiny = m * np.finfo(float).eps, np.finfo(float).tiny
    for _ in range(linalg.MAX_SWEEPS):
        rotated = False
        for _ in range(size - 1):
            columns = stack[:, :m].reshape(pairs[:2] + (m,))
            norms2 = np.einsum("kij,kij->ki", columns, columns)
            cross = np.einsum("kj,kj->k", columns[:, 0], columns[:, 1])
            rotate = np.all(norms2 >= tiny, axis=1)
            rotate &= np.abs(cross) > tol * np.prod(np.sqrt(norms2), axis=1)
            rotated |= bool(rotate.any())
            reference_rotations(norms2[:, 0], norms2[:, 1], cross, rotate, rotations)
            np.matmul(rotations, stack.reshape(pairs), out=work.reshape(pairs))
            np.take(work, step, axis=0, out=stack, mode="clip")
        if not rotated:
            break
    else:
        raise ConvergenceFailure("sweep budget exhausted")
    columns, right_t = stack[:n, :m], stack[:n, m:]
    norms2 = np.einsum("ij,ij->i", columns, columns)
    live = norms2 >= tiny
    values = np.where(live, np.sqrt(norms2), 0.0)
    left_t = np.zeros((n, m))
    left_t[live] = columns[live] / values[live, None]
    for k in np.flatnonzero(~live):
        basis = left_t[live]
        vector = np.eye(m)[np.argmin(np.einsum("ij,ij->j", basis, basis))]
        for _ in range(2):
            vector -= basis.T @ (basis @ vector)
        left_t[k] = vector / np.sqrt(vector @ vector)
        live[k] = True
    order = np.argsort(values, kind="stable")
    values = linalg._finite(np.ldexp(values[order], exponent), "singular values")
    return values, right_t[order].T, left_t[order].T
