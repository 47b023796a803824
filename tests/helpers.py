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
