"""Brute-force spin-space oracle for small chains.

Builds the full ``2^(N+1)``-dimensional Hamiltonian of the open XY chain as a
dense real symmetric matrix and diagonalizes it exactly.  Comparing its
spectrum with the free-fermion many-body enumeration certifies the entire
fermionic solution end-to-end for arbitrary couplings, which is the ground
truth every analytic claim ultimately rests on.
"""

import numpy as np

from .errors import SizeCapExceeded
from .freefermion import assemble, eigendecompose, many_body_spectrum
from .linalg import jacobi_eigh
from .report import TOLERANCES, CheckReport

__all__ = [
    "SPIN_DIMENSION_CAP",
    "build_spin_hamiltonian",
    "oracle_spectrum",
    "jw_certify",
]

#: Largest dense spin-space dimension handled (2^9: chains of up to 9 sites).
SPIN_DIMENSION_CAP = 512

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# i * sigma_y is real; sigma_y x sigma_y = -(i sigma_y) x (i sigma_y)
_I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _site_operator(op, site, n_sites):
    """Kronecker embedding of a single-site operator (site 0 leftmost)."""
    left = np.eye(2**site)
    right = np.eye(2 ** (n_sites - site - 1))
    return np.kron(np.kron(left, op), right)


def build_spin_hamiltonian(chain):
    """Dense spin-space Hamiltonian of the chain.

    Sums ``(alpha_j + gamma_j) sigma^x_j sigma^x_{j+1} +
    (alpha_j - gamma_j) sigma^y_j sigma^y_{j+1}`` over bonds and
    ``-beta_j sigma^z_j`` over sites.  Every term is real in the computational
    basis (the ``yy`` product is assembled from the real matrix
    ``i sigma_y`` with a compensating sign), so the result is a real symmetric
    matrix suitable for the in-repo eigensolver.

    Raises
    ------
    SizeCapExceeded
        If the spin-space dimension exceeds 2^9 = 512.
    """
    n = chain.n_sites
    dim = 2**n
    if dim > SPIN_DIMENSION_CAP:
        raise SizeCapExceeded(
            f"spin space has dimension 2^{n} = {dim}; cap is {SPIN_DIMENSION_CAP}"
        )
    h = np.zeros((dim, dim))
    for j in range(n - 1):
        xx = _site_operator(_SIGMA_X, j, n) @ _site_operator(_SIGMA_X, j + 1, n)
        yy = -(_site_operator(_I_SIGMA_Y, j, n) @ _site_operator(_I_SIGMA_Y, j + 1, n))
        h += (chain.alpha[j] + chain.gamma[j]) * xx
        h += (chain.alpha[j] - chain.gamma[j]) * yy
    for j in range(n):
        h -= chain.beta[j] * _site_operator(_SIGMA_Z, j, n)
    return h


def oracle_spectrum(hamiltonian):
    """Full spin-space spectrum, ascending, via the in-repo eigensolver."""
    values, _ = jacobi_eigh(hamiltonian)
    return values


def jw_certify(chain, tol_factor=TOLERANCES["jw"], spectral=None):
    """Certify the free-fermion solution against the spin-space oracle.

    Computes the ``2^(N+1)`` many-body energies from the numeric
    single-particle modes and compares them, as a sorted multiset, with the
    exact dense spin spectrum.  Tolerance scales with the spectral radius.
    The report records the worst-matched level.
    """
    spin_values = oracle_spectrum(build_spin_hamiltonian(chain))
    if spectral is None:
        spectral = eigendecompose(assemble(chain))
    fermion_values = many_body_spectrum(spectral.lambda_numeric).energies
    scale = max(float(np.max(np.abs(spin_values))), 1e-300)
    gaps = np.abs(spin_values - fermion_values)
    worst = int(np.argmax(gaps))
    report = CheckReport(title=f"spin oracle vs free fermions ({chain.n_sites} sites)")
    report.add(
        "many-body-multiset",
        float(gaps[worst]) / scale,
        tol_factor,
        note=(
            f"worst level {worst}: spin {spin_values[worst]:.12g} "
            f"vs fermion {fermion_values[worst]:.12g}"
        ),
    )
    return report
