"""Brute-force spin-space oracle for small chains.

Builds the full ``2^(N+1)``-dimensional Hamiltonian of the open XY chain as a
dense real symmetric matrix and finds its whole spectrum, one decoupled block
at a time.  Comparing its spectrum with the free-fermion many-body enumeration
certifies the entire fermionic solution end-to-end for arbitrary couplings,
which is the ground truth every analytic claim ultimately rests on.  The
eigenvalues come from :func:`xychain.linalg.sturm_eigvalsh` (Householder
tridiagonalization and Sturm bisection), which shares no code with the
free-fermion path's Jacobi solver.
"""

import numpy as np

from .errors import SizeCapExceeded
from .freefermion import _scale, many_body_spectrum
from .linalg import sturm_eigvalsh
from .report import TOLERANCES, CheckReport

__all__ = [
    "SPIN_DIMENSION_CAP",
    "build_spin_hamiltonian",
    "oracle_spectrum",
    "jw_certify",
]

#: Largest dense spin-space dimension handled (2^9: chains of up to 9 sites).
#: The solver would manage 2^10: a 10-site random XY chain's oracle takes
#: 0.46 s with a tracemalloc peak of 25 MB, in-process on a 2-core x86-64 VM
#: with BLAS on one thread, against 67 ms at 9 sites.
SPIN_DIMENSION_CAP = 512


def build_spin_hamiltonian(chain):
    """Dense spin-space Hamiltonian of the chain.

    Sums ``(alpha_j + gamma_j) sigma^x_j sigma^x_{j+1} +
    (alpha_j - gamma_j) sigma^y_j sigma^y_{j+1}`` over bonds and
    ``-beta_j sigma^z_j`` over sites, in the computational basis with site 0
    the most significant bit and bit value 0 meaning ``sigma^z = +1``.  A bond
    flips both of its bits: ``xx`` and ``yy`` add up to ``2 alpha_j`` between
    states whose two bits differ and to ``2 gamma_j`` between states whose
    two bits agree, so the result is a real symmetric matrix suitable for the
    in-repo eigensolvers.

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
    states = np.arange(dim)
    bits = [(states >> (n - 1 - j)) & 1 for j in range(n)]
    h = np.zeros((dim, dim))
    for j in range(n - 1):
        # jx + jy and jx - jy rather than 2 alpha and 2 gamma: the sums the
        # xx and yy terms make, rounded the same way
        jx = chain.alpha[j] + chain.gamma[j]
        jy = chain.alpha[j] - chain.gamma[j]
        flipped = states ^ (0b11 << (n - 2 - j))
        h[flipped, states] = np.where(bits[j] != bits[j + 1], jx + jy, jx - jy)
    diagonal = np.zeros(dim)
    for j in range(n):
        diagonal -= chain.beta[j] * (1 - 2 * bits[j])
    np.fill_diagonal(h, diagonal)
    return h


def _coupled_blocks(matrix):
    """Index sets of the connected components of the nonzero pattern."""
    linked = matrix != 0.0
    unseen = np.ones(matrix.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        block = np.zeros_like(unseen)
        frontier = block.copy()
        frontier[np.argmax(unseen)] = True
        while frontier.any():
            block |= frontier
            frontier = linked[frontier].any(axis=0) & ~block
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def oracle_spectrum(hamiltonian):
    """Full spin-space spectrum, ascending, via :func:`sturm_eigvalsh`.

    Entries between different connected components of the nonzero pattern
    are zero, so each component is solved on its own and the union of their
    eigenvalues is the whole spectrum.  On the XY chain the components are
    the two parity sectors, and the magnetization sectors when ``gamma = 0``;
    one solver call bisects the eigenvalues of all of them together.
    """
    blocks = (hamiltonian[np.ix_(block, block)] for block in _coupled_blocks(hamiltonian))
    return np.sort(np.concatenate(sturm_eigvalsh(blocks)))


def jw_certify(chain, spectral, tolerances=TOLERANCES):
    """Certify the free-fermion solution against the spin-space oracle.

    Computes the ``2^(N+1)`` many-body energies from the numeric
    single-particle modes ``spectral`` of ``chain`` and compares them, as a
    sorted multiset, with the exact dense spin spectrum of ``chain``.
    The gaps are relative to the spectral radius and held to
    ``tolerances["jw"]``.  The report records the worst-matched level.
    """
    spin_values = oracle_spectrum(build_spin_hamiltonian(chain))
    fermion_values = many_body_spectrum(spectral.lambda_numeric).energies
    gaps = np.abs(spin_values - fermion_values)
    worst = int(np.argmax(gaps))
    report = CheckReport(title=f"spin oracle vs free fermions ({chain.n_sites} sites)")
    report.add("many-body-multiset", float(gaps[worst]) / _scale(spin_values), tolerances["jw"],
               note=f"worst level {worst}: spin {spin_values[worst]:.12g} "
                    f"vs fermion {fermion_values[worst]:.12g}")
    return report
