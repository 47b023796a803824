"""Quadratic-fermion form of the chain: assembly, spectra, many-body levels.

The chain couplings define a symmetric tridiagonal matrix ``A`` (diagonal
``beta``, off-diagonal ``alpha``) and an antisymmetric tridiagonal matrix
``B`` (superdiagonal ``gamma``), combined into the doubled single-particle
matrix ``H = [[A, B], [-B, -A]]``.  Its spectrum is symmetric about zero; the
nonnegative half and the paired eigenvectors determine the orthogonal
transition matrix ``T = [[Psi, Phi], [Phi, Psi]]`` and, through independent
mode occupation, all ``2^(N+1)`` many-body energies.
"""

from dataclasses import dataclass

import numpy as np

from .chain import PQTable, analytic_spectrum, build_chain, pq_recurrence_residual
from .errors import SizeCapExceeded
from .linalg import jacobi_eigh
from .report import TOLERANCES, CheckReport

__all__ = [
    "FreeFermionSystem",
    "SpectralData",
    "ManyBodySpectrum",
    "assemble",
    "eigendecompose",
    "singular_value_check",
    "many_body_spectrum",
    "eigenvector_crosscheck",
    "recurrence_check",
    "analytic_vs_numeric",
]

#: Many-body enumeration cap: ``2^MANY_BODY_MODE_CAP`` energies.
MANY_BODY_MODE_CAP = 24

#: Numeric eigenvalues closer to zero than this factor times the spectral
#: scale are treated as zero modes when pairing eigenvectors.
ZERO_MODE_FACTOR = 1e-10

#: Largest principal angle (radians) accepted between a degenerate cluster's
#: numeric and analytic eigenvector spans.
ANGLE_TOL = 1e-6

#: Numeric eigenvalues closer than this factor times the spectral scale form
#: one degenerate cluster in the eigenvector crosscheck.
DEGENERACY_TOL = 1e-8


@dataclass
class FreeFermionSystem:
    """Doubled single-particle form of one chain."""

    A: np.ndarray
    B: np.ndarray
    H: np.ndarray

    @property
    def n_sites(self):
        return self.A.shape[0]


@dataclass
class SpectralData:
    """Numeric spectral decomposition of a :class:`FreeFermionSystem`.

    ``lambda_numeric`` is the nonnegative half of the spectrum, ascending.
    Column ``j`` of ``Psi``/``Phi`` splits the eigenvector of
    ``+lambda_numeric[j]`` into its site/conjugate-site halves, so
    ``T = [[Psi, Phi], [Phi, Psi]]`` is orthogonal and diagonalizes ``H``.
    ``ortho_error``, ``pairing_error`` and ``eigen_residual`` record the
    achieved quality (max-norm; ``pairing_error`` measures the symmetry of the
    spectrum about zero).
    """

    lambda_numeric: np.ndarray
    Psi: np.ndarray
    Phi: np.ndarray
    T: np.ndarray
    system: FreeFermionSystem
    ortho_error: float
    pairing_error: float
    eigen_residual: float


@dataclass
class ManyBodySpectrum:
    """All many-body energies with their occupation subsets.

    ``energies`` ascending; ``masks[k]`` is the bitmask of occupied modes
    (bit ``j`` set means mode ``j`` occupied), aligned with ``energies``.
    """

    energies: np.ndarray
    masks: np.ndarray


def assemble(chain):
    """Assemble ``A``, ``B`` and the doubled matrix ``H`` from couplings."""
    n = chain.n_sites
    a = np.diag(chain.beta.copy())
    b = np.zeros((n, n))
    for k in range(n - 1):
        a[k, k + 1] = a[k + 1, k] = chain.alpha[k]
        b[k, k + 1] = chain.gamma[k]
        b[k + 1, k] = -chain.gamma[k]
    h = np.block([[a, b], [-b, -a]])
    return FreeFermionSystem(A=a, B=b, H=h)


def _orthonormal_columns(columns, tol):
    """Orthonormal basis of the column span (modified Gram-Schmidt)."""
    basis = []
    for v in columns.T:
        w = v.copy()
        for u in basis:
            w -= np.dot(u, w) * u
        norm = np.linalg.norm(w)
        if norm > tol:
            basis.append(w / norm)
    return np.array(basis).T if basis else np.zeros((columns.shape[0], 0))


def _split_zero_modes(null_vectors, n):
    """Split a null-space basis of ``H`` into paired ``(psi, phi)`` columns.

    Each null vector ``[x; y]`` yields ``x + y`` in the kernel of ``A + B``
    and ``x - y`` in the kernel of ``A - B``.  Kernel bases are orthonormalized
    separately, paired greedily by overlap, and each pair is signed so the
    conjugate component ``phi = (u - w) / 2`` has minimal norm.  Pairs are
    orthonormal in the doubled space by construction.
    """
    tol = 1e-8
    u_basis = _orthonormal_columns(null_vectors[:n] + null_vectors[n:], tol)
    w_basis = _orthonormal_columns(null_vectors[:n] - null_vectors[n:], tol)
    m = min(u_basis.shape[1], w_basis.shape[1])
    overlaps = w_basis.T @ u_basis
    psi_cols, phi_cols = [], []
    used = set()
    for r in range(m):
        weights = [
            (abs(overlaps[r, s]), s) for s in range(u_basis.shape[1]) if s not in used
        ]
        _, s = max(weights)
        used.add(s)
        u = u_basis[:, s] * (1.0 if overlaps[r, s] >= 0.0 else -1.0)
        w = w_basis[:, r]
        psi_cols.append(0.5 * (w + u))
        phi_cols.append(0.5 * (u - w))
    return psi_cols, phi_cols


def eigendecompose(system):
    """Numeric spectral data for the doubled matrix.

    Diagonalizes ``H`` with the in-repo Jacobi solver, extracts the
    nonnegative half of the spectrum, and pairs eigenvectors of ``+Lambda``
    and ``-Lambda``.  Exact zero modes (doubly degenerate in ``H``) are split
    into ``(psi, phi)`` by the minimal-``phi`` convention.  Every column is
    signed so that the largest-magnitude entry of ``psi`` (of ``phi`` if
    ``psi`` vanishes) is positive, with ties broken by the lowest index.
    """
    values, vectors = jacobi_eigh(system.H)
    n = system.n_sites
    lam = values[n:].copy()
    scale = max(float(np.max(np.abs(values))), 1e-300)
    pairing_error = float(np.max(np.abs(values[:n][::-1] + lam))) / scale

    zero_cut = ZERO_MODE_FACTOR * scale
    psi = np.zeros((n, n))
    phi = np.zeros((n, n))
    zero_idx = [j for j in range(n) if abs(lam[j]) <= zero_cut]
    for j in range(n):
        if j in zero_idx:
            continue
        column = vectors[:, n + j]
        psi[:, j] = column[:n]
        phi[:, j] = column[n:]
    if zero_idx:
        lam[zero_idx] = np.abs(lam[zero_idx])  # clamp sign noise on zeros
        null_cols = [n + j for j in zero_idx] + [n - 1 - j for j in zero_idx]
        psi_cols, phi_cols = _split_zero_modes(vectors[:, null_cols], n)
        for j, p_col, f_col in zip(zero_idx, psi_cols, phi_cols):
            psi[:, j] = p_col
            phi[:, j] = f_col
        for j in zero_idx[len(psi_cols):]:
            # kernel split came up rank-deficient; keep the raw eigenvector
            column = vectors[:, n + j]
            psi[:, j] = column[:n]
            phi[:, j] = column[n:]

    for j in range(n):
        anchor = psi[:, j] if np.max(np.abs(psi[:, j])) > 0.0 else phi[:, j]
        k = int(np.argmax(np.abs(anchor)))
        if anchor[k] < 0.0:
            psi[:, j] = -psi[:, j]
            phi[:, j] = -phi[:, j]

    t = np.block([[psi, phi], [phi, psi]])
    ortho_error = float(np.max(np.abs(t.T @ t - np.eye(2 * n))))
    stacked = np.vstack([psi, phi])
    eigen_residual = float(np.max(np.abs(system.H @ stacked - stacked * lam[None, :]))) / scale
    return SpectralData(
        lambda_numeric=lam,
        Psi=psi,
        Phi=phi,
        T=t,
        system=system,
        ortho_error=ortho_error,
        pairing_error=pairing_error,
        eigen_residual=eigen_residual,
    )


def singular_value_check(system, spectral=None, tol=TOLERANCES["svd"]):
    """Certify the spectrum against the singular values of ``A + B``.

    The combination ``A + B`` maps eigenvector sums to eigenvector
    differences scaled by ``Lambda``, so its singular values must reproduce
    the nonnegative spectrum.  They are computed by the independent route of
    diagonalizing the Gram matrix ``(A + B)^T (A + B)``.
    """
    if spectral is None:
        spectral = eigendecompose(system)
    m = system.A + system.B
    gram_values, _ = jacobi_eigh(m.T @ m)
    singulars = np.sqrt(np.maximum(gram_values, 0.0))
    lam = spectral.lambda_numeric
    scale = max(1.0, float(np.max(lam)) if lam.size else 1.0)
    gap = float(np.max(np.abs(np.sort(singulars) - np.sort(lam))))
    report = CheckReport(title="singular-value route")
    report.add("spectrum-vs-singular-values", gap / scale, tol)
    return report


def many_body_spectrum(lam, cap=MANY_BODY_MODE_CAP):
    """Enumerate all ``2^n`` many-body energies of ``n`` independent modes.

    Occupying mode ``j`` adds ``2 * lam[j]`` to the base energy
    ``-sum(lam)``.  Returns energies ascending with their occupation masks;
    the sort is stable so equal energies keep mask order, making output
    deterministic.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if n > cap:
        raise SizeCapExceeded(
            f"many-body enumeration needs 2^{n} levels; cap is 2^{cap}"
        )
    energies = np.array([-float(lam.sum())])
    masks = np.array([0], dtype=np.uint32)
    for j in range(n):
        energies = np.concatenate([energies, energies + 2.0 * lam[j]])
        masks = np.concatenate([masks, masks | np.uint32(1 << j)])
    order = np.argsort(energies, kind="stable")
    return ManyBodySpectrum(energies=energies[order], masks=masks[order])


def _principal_cosines(set_a, set_b):
    """Cosines of the principal angles between two column spans."""
    tol = 1e-10
    qa = _orthonormal_columns(set_a, tol)
    qb = _orthonormal_columns(set_b, tol)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return np.array([])
    g = qa.T @ qb
    values, _ = jacobi_eigh(g.T @ g)
    cosines = np.sqrt(np.clip(values, 0.0, 1.0))
    return np.sort(cosines)[::-1]


def eigenvector_crosscheck(spectral, pq, cos_tol=TOLERANCES["cosine"],
                           angle_tol=ANGLE_TOL, match_tol=TOLERANCES["match"],
                           degeneracy_tol=DEGENERACY_TOL):
    """Compare numeric eigenvectors against the analytic ``P``/``Q`` tables.

    Matches numeric and analytic eigenvalues by sorted order (with a collision
    check on the pairing gaps), then certifies that ``psi_j - phi_j`` is
    parallel to the ``P`` column and ``psi_j + phi_j`` to the ``Q`` column of
    the matched mode.  Nondegenerate modes use absolute cosine similarity;
    degenerate clusters are compared span-to-span via principal angles.
    Analytic columns that vanish identically (zero normalization weight) are
    skipped with a note.
    """
    if not isinstance(pq, PQTable):
        raise TypeError(f"expected a PQTable, got {type(pq).__name__}")
    lam_num = spectral.lambda_numeric
    lam_ana = pq.lam
    n = lam_num.size
    report = CheckReport(title="eigenvector crosscheck")
    if lam_ana.size != n:
        report.add("mode-count", float(abs(lam_ana.size - n)), 0.0)
        return report
    scale = max(1.0, float(np.max(lam_num)) if n else 1.0)

    order = np.argsort(lam_ana, kind="stable")
    gaps = np.abs(lam_num - lam_ana[order])
    report.add("eigenvalue-matching", float(np.max(gaps)) / scale, match_tol)

    minus_num = spectral.Psi - spectral.Phi
    plus_num = spectral.Psi + spectral.Phi
    minus_ana = pq.P[:, order]
    plus_ana = pq.Q[:, order]
    table_scale = max(
        float(np.max(np.abs(pq.P))) if pq.P.size else 0.0,
        float(np.max(np.abs(pq.Q))) if pq.Q.size else 0.0,
        1e-300,
    )

    # group modes whose numeric eigenvalues are within the degeneracy tolerance
    groups = []
    start = 0
    for j in range(1, n + 1):
        if j == n or lam_num[j] - lam_num[j - 1] > degeneracy_tol * scale:
            groups.append(list(range(start, j)))
            start = j
    for group in groups:
        for side, numeric, analytic in (
            ("P", minus_num, minus_ana),
            ("Q", plus_num, plus_ana),
        ):
            label = f"{side}-modes-{group[0]}" + (f"..{group[-1]}" if len(group) > 1 else "")
            live = [
                j for j in group
                if np.max(np.abs(analytic[:, j])) > 1e-12 * table_scale
            ]
            if not live:
                report.add_note(f"{label}: analytic column vanishes; skipped")
                continue
            if len(group) == 1:
                j = group[0]
                v_num = numeric[:, j]
                v_ana = analytic[:, j]
                cosine = abs(np.dot(v_num, v_ana)) / (
                    np.linalg.norm(v_num) * np.linalg.norm(v_ana)
                )
                report.add(label, 1.0 - cosine, cos_tol)
            else:
                cosines = _principal_cosines(numeric[:, group], analytic[:, live])
                worst = float(np.min(cosines[: len(live)])) if cosines.size else 0.0
                angle = float(np.arccos(np.clip(worst, -1.0, 1.0)))
                report.add(label, angle, angle_tol, note="principal angle (rad)")
    return report


def recurrence_check(pq, tol=TOLERANCES["recurrence"]):
    """Wrap :func:`xychain.chain.pq_recurrence_residual` as a report."""
    res_p, res_q = pq_recurrence_residual(pq)
    report = CheckReport(title="P/Q recurrence")
    report.add("recurrence-P", res_p, tol)
    report.add("recurrence-Q", res_q, tol)
    return report


def analytic_vs_numeric(family, params, spectral=None, tol=TOLERANCES["spectrum"],
                        coeffs=None):
    """Report comparing the closed-form spectrum to the numeric one.

    ``coeffs`` is the contiguity record of ``(family, params)``, built here
    when not given.
    """
    lam_ana = analytic_spectrum(family, params, coeffs=coeffs)
    if spectral is None:
        spectral = eigendecompose(assemble(build_chain(family, params, coeffs=coeffs)))
    lam_num = spectral.lambda_numeric
    scale = max(1.0, float(np.max(lam_ana)) if lam_ana.size else 1.0)
    gap = float(np.max(np.abs(np.sort(lam_ana) - np.sort(lam_num))))
    report = CheckReport(title="closed form vs numeric spectrum")
    report.add("analytic-vs-numeric", gap / scale, tol)
    return report
