"""Exactly solvable inhomogeneous XY spin chains from q-Racah contiguity data.

The package builds open XY chains whose free-fermion spectrum is known in
closed form, and certifies every analytic formula against independent
numerical oracles:

- :mod:`xychain.qseries` — terminating basic hypergeometric series.
- :mod:`xychain.qracah` — q-Racah polynomials, contiguity coefficients, and
  the three-term relations that encode the chain.
- :mod:`xychain.chain` — chain construction, closed-form spectra, P/Q
  eigenvector tables and their recurrence check, and parameter scans.
- :mod:`xychain.linalg` — self-contained solvers: a one-sided Jacobi SVD for
  the free-fermion path, a values-only Jacobi eigensolver that certifies it,
  Householder and Sturm bisection for the spin oracle.
- :mod:`xychain.freefermion` — doubled one-particle matrix, its solution by
  the SVD of ``A + B`` (:class:`SpectralData`: values, ``Psi`` and ``Phi``),
  many-body spectra, and the checks of that solution.
- :mod:`xychain.spinoracle` — brute-force spin-chain Hamiltonian oracle.
- :mod:`xychain.cli` — the ``xychain`` command-line tool.
"""

__version__ = "0.1.0"

from .chain import (
    SCAN_LEVELS,
    ChainSpec,
    PQTable,
    analytic_spectrum,
    build_chain,
    build_pq_table,
    parameter_scan,
    recurrence_check,
    validate_draw,
)
from .errors import (
    ConfigError,
    ConvergenceFailure,
    DenominatorVanishes,
    InvalidParameterRegime,
    InvalidShiftedParams,
    NoValidParameters,
    SizeCapExceeded,
    XYChainError,
)
from .freefermion import (
    MANY_BODY_MODE_CAP,
    FreeFermionSystem,
    ManyBodySpectrum,
    SpectralData,
    analytic_vs_numeric,
    assemble,
    eigendecompose,
    eigenvector_crosscheck,
    many_body_spectrum,
    singular_value_check,
    xx_reduction_check,
)
from .linalg import jacobi_eigh, sturm_eigvalsh
from .qracah import (
    FAMILIES,
    ContiguityCoefficients,
    QRacahParams,
    closed_form_lambda_squared,
    contiguity_coefficients,
    qracah_eval,
    shift_params,
    verify_contiguity,
)
from .report import CheckReport, CheckResult
from .spinoracle import (
    SPIN_DIMENSION_CAP,
    build_spin_hamiltonian,
    jw_certify,
    oracle_spectrum,
)

__all__ = [
    "__version__",
    "SCAN_LEVELS",
    "ChainSpec",
    "PQTable",
    "analytic_spectrum",
    "build_chain",
    "build_pq_table",
    "parameter_scan",
    "recurrence_check",
    "validate_draw",
    "ConfigError",
    "ConvergenceFailure",
    "DenominatorVanishes",
    "InvalidParameterRegime",
    "InvalidShiftedParams",
    "NoValidParameters",
    "SizeCapExceeded",
    "XYChainError",
    "MANY_BODY_MODE_CAP",
    "FreeFermionSystem",
    "ManyBodySpectrum",
    "SpectralData",
    "analytic_vs_numeric",
    "assemble",
    "eigendecompose",
    "eigenvector_crosscheck",
    "many_body_spectrum",
    "singular_value_check",
    "xx_reduction_check",
    "jacobi_eigh",
    "sturm_eigvalsh",
    "FAMILIES",
    "ContiguityCoefficients",
    "QRacahParams",
    "closed_form_lambda_squared",
    "contiguity_coefficients",
    "qracah_eval",
    "shift_params",
    "verify_contiguity",
    "CheckReport",
    "CheckResult",
    "SPIN_DIMENSION_CAP",
    "build_spin_hamiltonian",
    "jw_certify",
    "oracle_spectrum",
]
