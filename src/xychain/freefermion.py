"""Quadratic-fermion form of the chain: assembly, spectra, many-body levels.

The chain couplings define a symmetric tridiagonal matrix ``A`` (diagonal
``beta``, off-diagonal ``alpha``) and an antisymmetric tridiagonal matrix
``B`` (superdiagonal ``gamma``), combined into the doubled single-particle
matrix ``H = [[A, B], [-B, -A]]``.  Its spectrum is ``+-Lambda``, the
singular values of ``A + B``, whose singular vectors give the orthogonal
transition matrix ``T = [[Psi, Phi], [Phi, Psi]]`` (Lieb, Schultz & Mattis,
Ann. Phys. 16, 1961) and, through independent mode occupation, all
``2^(N+1)`` many-body energies.

:func:`eigendecompose` keeps only that decomposition; each check builds
what it compares and returns the ``verify`` rows it owns.  The analytic
eigenvector tables are read against it by one measure, the sine of the
largest principal angle (:func:`eigenvector_crosscheck`).
"""

from dataclasses import dataclass

import numpy as np

from .chain import PQTable
from .errors import SizeCapExceeded
from .linalg import _finite, jacobi_eigh, jacobi_svd
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
    "analytic_vs_numeric",
    "xx_reduction_check",
]

#: Many-body enumeration cap: ``2^MANY_BODY_MODE_CAP`` energies.
MANY_BODY_MODE_CAP = 24

#: Many-body levels per step of the tie test and the run key: bounds their
#: temporaries, so the enumeration holds at most two full-size float or int64
#: arrays at once.
_RUN_BLOCK = 1 << 16

#: Numeric eigenvalues closer than this factor times the largest one form one
#: degenerate cluster in the eigenvector crosscheck.
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

    ``lambda_numeric`` holds the singular values of ``A + B``, ascending.
    Column ``j`` of ``Psi``/``Phi`` splits the eigenvector of ``H`` for
    ``+lambda_numeric[j]`` into its site/conjugate-site halves, so
    ``T = [[Psi, Phi], [Phi, Psi]]`` is orthogonal and diagonalizes ``H``;
    :func:`singular_value_check` certifies both.
    """

    lambda_numeric: np.ndarray
    Psi: np.ndarray
    Phi: np.ndarray
    system: FreeFermionSystem


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


def eigendecompose(system):
    """Numeric spectral data for the doubled matrix.

    The in-repo SVD ``A + B = W diag(Lambda) U^T`` gives ``(A + B) u =
    Lambda w`` and ``(A - B) w = Lambda u``, so ``psi = (u + w) / 2`` and
    ``phi = (u - w) / 2`` pair into eigenvectors of ``H`` for ``+Lambda``,
    and ``T`` is orthogonal as ``U`` and ``W`` are; for a zero mode any pair
    of null vectors does.
    """
    lam, u, w = jacobi_svd(system.A + system.B)
    return SpectralData(lambda_numeric=lam, Psi=0.5 * (u + w), Phi=0.5 * (u - w), system=system)


def _scale(*references):
    """Largest magnitude in ``references``, floored at 1e-300: the one scale
    rule of the spectrum residuals, so each is relative in any units."""
    return max(max(float(np.max(np.abs(r))) for r in references), 1e-300)


def _mode_gaps(values, reference):
    """``values`` matched to ``reference`` by rank, and each gap over
    :func:`_scale` of ``reference``, in ``reference``'s order."""
    matched = np.empty(len(reference))
    matched[np.argsort(reference, kind="stable")] = np.sort(values, kind="stable")
    return matched, np.abs(matched - reference) / _scale(reference)


def _spectrum_gap(values, reference):
    """Largest of :func:`_mode_gaps`, the one rule of the spectrum checks."""
    return float(np.max(_mode_gaps(values, reference)[1]))


def singular_value_check(spectral, tolerances=TOLERANCES):
    """Certify the decomposition in ``spectral`` on the doubled matrix ``H``.

    The eigenvalues of ``H`` by the independent two-sided Jacobi route must
    match their own negatives (``spectrum-parity``, read against
    ``tolerances["parity"]``), ``T`` must be orthogonal
    (``transition-orthogonality``, the largest entry of ``T^T T - I``,
    ``tolerances["orthogonality"]``), and the nonnegative half must match
    the singular values of ``A + B`` (``spectrum-vs-singular-values``,
    ``tolerances["svd"]``).  Both spectrum rows are :func:`_spectrum_gap`.
    """
    n = spectral.system.n_sites
    values = jacobi_eigh(spectral.system.H)
    t = np.block([[spectral.Psi, spectral.Phi], [spectral.Phi, spectral.Psi]])
    report = CheckReport(title="doubled matrix")
    report.add("spectrum-parity", _spectrum_gap(-values, values), tolerances["parity"])
    report.add("transition-orthogonality", float(np.max(np.abs(t.T @ t - np.eye(2 * n)))),
               tolerances["orthogonality"])
    report.add("spectrum-vs-singular-values", _spectrum_gap(values[n:], spectral.lambda_numeric),
               tolerances["svd"])
    return report


def xx_reduction_check(spectral, tolerances=TOLERANCES):
    """Certify the XX reduction of a chain with ``gamma = 0``.

    With ``B = 0`` the single-particle energies are the absolute eigenvalues
    of the hopping matrix ``A`` of ``spectral.system``, diagonalized here on
    its own and compared with the singular values of ``A + B``.  Reads
    ``tolerances["spectrum"]``.
    """
    values = jacobi_eigh(spectral.system.A)
    report = CheckReport(title="XX reduction")
    report.add("xx-reduction", _spectrum_gap(np.abs(values), spectral.lambda_numeric), tolerances["spectrum"])
    return report


def many_body_spectrum(lam):
    """Enumerate all ``2^n`` many-body energies of ``n`` independent modes.

    Occupying mode ``j`` adds ``2 * lam[j]`` to the base energy
    ``-sum(lam)``; level ``k`` of the enumeration occupies the modes of the
    bits of ``k``, so its index is its mask.  Returns energies ascending with
    their occupation masks.  Levels that are degenerate in exact arithmetic
    differ in the last bits (four adjacent pairs of
    ``configs/xx_uniform.json``, 1.3-1.8e-15 apart), so after the sort a run
    of levels, each within ``n * eps * sum |lam|`` of the one before,
    becomes one level: it takes the run's first energy and lists its masks
    ascending.  The row order then does not depend on rounding.  An energy
    or partial sum beyond the float range raises ``OverflowError``.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if n > MANY_BODY_MODE_CAP:
        raise SizeCapExceeded(
            f"many-body enumeration needs 2^{n} levels; cap is 2^{MANY_BODY_MODE_CAP}"
        )
    energies = np.empty(1 << n)
    energies[0] = -float(lam.sum())
    for j in range(n):
        np.add(energies[: 1 << j], 2.0 * lam[j], out=energies[1 << j : 2 << j])
    order = np.argsort(energies)
    # in place: the values of energies[order], but -0.0 and 0.0 may trade
    # places or signs, which only the zero run's head (below) can show
    energies.sort()
    # sorted, so an infinity or NaN (which sorts last) is at an end
    _finite(energies[[0, -1]], "many-body energies")
    tol = n * np.finfo(float).eps * float(np.abs(lam).sum())
    head = np.empty(energies.size, dtype=bool)
    head[0] = True
    for start in range(1, energies.size, _RUN_BLOCK):
        stop = min(start + _RUN_BLOCK, energies.size)
        np.greater(energies[start:stop] - energies[start - 1 : stop - 1], tol,
                   out=head[start:stop])
    # zeros are equal, so they share one run; a run headed by a zero takes
    # the energy of the argsort's mask there, summed as the enumeration did
    zero = int(np.searchsorted(energies, 0.0))
    if zero < energies.size and energies[zero] == 0.0 and head[zero]:
        mask, energy = int(order[zero]), -float(lam.sum())
        for j in range(n):
            if mask >> j & 1:
                energy += 2.0 * lam[j]
        energies[zero] = energy
    # one in-place sort of (run index << n) | mask orders each run by mask;
    # the key is built into ``order``, one block at a time
    run = -1
    for start in range(0, energies.size, _RUN_BLOCK):
        runs = np.cumsum(head[start : start + _RUN_BLOCK], dtype=np.int64)
        runs += run
        run = int(runs[-1])
        runs <<= n
        order[start : start + _RUN_BLOCK] |= runs
    order.sort()
    order &= energies.size - 1
    # sorted, so the running maximum past each run's masked tail is its head
    energies[~head] = -np.inf
    np.maximum.accumulate(energies, out=energies)
    return ManyBodySpectrum(energies=energies, masks=order.astype(np.uint32))


def eigenvector_crosscheck(spectral, pq, tolerances=TOLERANCES):
    """Compare numeric eigenvectors against the analytic ``P``/``Q`` tables.

    Matches numeric and analytic eigenvalues by rank (``eigenvalue-matching``,
    :func:`_spectrum_gap`), then certifies that ``psi - phi`` spans the ``P``
    columns and ``psi + phi`` the ``Q`` columns of the matched modes.  Modes
    whose numeric eigenvalues lie within :data:`DEGENERACY_TOL` times the
    largest of each other form one group, and each group's row is the sine
    of the largest principal angle between the analytic span ``Q_b`` and the
    numeric columns ``Q_a``, ``sigma_max(Q_b - Q_a (Q_a^T Q_b))`` (Bjorck &
    Golub, Math. Comp. 27, 1973).  ``Q_a`` needs no factorization: ``psi -
    phi`` and ``psi + phi`` are the orthonormal factors of the SVD, which
    ``transition-orthogonality`` certifies.  For one mode ``Q_b`` is the unit
    analytic column and the sine is one residual norm; for a cluster ``Q_b``
    is the left factor of the live columns' SVD, cut at ``1e-10`` times the
    largest value.  Analytic columns that vanish identically (zero
    normalization weight) are skipped with a note.  Reads
    ``tolerances["match"]`` and ``tolerances["angle"]``.  Raises
    ``ValueError`` if ``pq`` and ``spectral`` have different numbers of
    modes.
    """
    if not isinstance(pq, PQTable):
        raise TypeError(f"expected a PQTable, got {type(pq).__name__}")
    lam_num = spectral.lambda_numeric
    lam_ana = pq.lam
    n = lam_num.size
    if lam_ana.size != n:
        raise ValueError(f"{lam_ana.size} analytic modes against {n} numeric ones")
    report = CheckReport(title="eigenvector crosscheck")
    report.add("eigenvalue-matching", _spectrum_gap(lam_ana, lam_num), tolerances["match"])

    order = np.argsort(lam_ana, kind="stable")
    table_scale = _scale(pq.P, pq.Q)
    sides = []
    for side, numeric, table in (
        ("P", spectral.Psi - spectral.Phi, pq.P),
        ("Q", spectral.Psi + spectral.Phi, pq.Q),
    ):
        # entries at most 1, so the column norms cannot overflow
        analytic = table[:, order] / table_scale
        live = np.max(np.abs(analytic), axis=0) > 1e-12
        unit = analytic / np.where(live, np.linalg.norm(analytic, axis=0), 1.0)
        sines = np.linalg.norm(unit - numeric * np.sum(numeric * unit, axis=0), axis=0)
        sides.append((side, numeric, analytic, live, sines))

    # group modes whose numeric eigenvalues are within the degeneracy tolerance
    scale = _scale(lam_num)
    groups = []
    start = 0
    for j in range(1, n + 1):
        if j == n or lam_num[j] - lam_num[j - 1] > DEGENERACY_TOL * scale:
            groups.append(list(range(start, j)))
            start = j
    for group in groups:
        for side, numeric, analytic, live, sines in sides:
            label = f"{side}-modes-{group[0]}" + (f"..{group[-1]}" if len(group) > 1 else "")
            columns = [j for j in group if live[j]]
            if not columns:
                report.add_note(f"{label}: analytic column vanishes; skipped")
            elif len(group) == 1:
                report.add(label, sines[group[0]], tolerances["angle"])
            else:
                values, _, left = jacobi_svd(analytic[:, columns])
                q_b = left[:, values > 1e-10 * values[-1]]
                q_a = numeric[:, group]
                report.add(label, jacobi_svd(q_b - q_a @ (q_a.T @ q_b))[0][-1], tolerances["angle"])
    return report


def analytic_vs_numeric(lam_ana, spectral, tolerances=TOLERANCES):
    """Report comparing the closed-form spectrum ``lam_ana`` (from
    :func:`xychain.chain.analytic_spectrum`) to the numeric one.  Reads
    ``tolerances["spectrum"]``."""
    report = CheckReport(title="closed form vs numeric spectrum")
    report.add("analytic-vs-numeric", _spectrum_gap(spectral.lambda_numeric, lam_ana), tolerances["spectrum"])
    return report
