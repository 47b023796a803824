"""Chain couplings, analytic spectra and eigenvector tables.

Turns the contiguity data of :mod:`xychain.qracah` into a physical open XY
chain: site fields ``beta_j``, bond couplings ``alpha_j`` (symmetric part) and
``gamma_j`` (antisymmetric part), the closed-form single-particle spectrum
``Lambda_j``, and the two polynomial eigenvector tables ``P``/``Q``.  All
square roots take the nonnegative branch, so ``alpha_j >= |gamma_j| >= 0``
whenever construction succeeds.

Not every parameter point supports every layer of the construction under the
positive branch.  :func:`parameter_scan` discovers usable points at four
nested validity levels:

``contiguity``
    The three-term relations and the consistency ratio certify (true for
    almost all nondegenerate parameters of either family).
``couplings``
    Additionally all radicands of the coupling and spectrum formulas are
    nonnegative, so :func:`build_chain` and :func:`analytic_spectrum` succeed.
``spectral``
    Additionally a per-bond sign condition holds which makes the
    positive-branch chain's numeric spectrum coincide with the closed form.
``full``
    Additionally all table entries share one global sign, so the normalized
    ``P``/``Q`` tables are real and satisfy the coupled recurrences.

Family ``qr24`` admits large ``full``-valid regions (for instance ``a < 0``,
``c < 0``, ``b`` in ``(0, 1)``).  Family ``qr13`` admits ``couplings``-valid
points but provably no ``spectral``/``full`` ones under the positive branch;
scans at those levels raise :class:`NoValidParameters` (see README).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterRegime, NoValidParameters, XYChainError
from .qracah import (
    QRacahParams,
    _check_family,
    _denominator_factors,
    _family_specific_factors,
    _three_term_residual,
    closed_form_lambda_squared,
    contiguity_coefficients,
    shift_params,
    verify_contiguity,
)
from .report import TOLERANCES

__all__ = [
    "ChainSpec",
    "PQTable",
    "build_chain",
    "analytic_spectrum",
    "build_pq_table",
    "pq_recurrence_residual",
    "parameter_scan",
    "validate_draw",
    "SCAN_LEVELS",
]

#: Nested validity levels understood by :func:`parameter_scan`.
SCAN_LEVELS = ("contiguity", "couplings", "spectral", "full")

#: Radicands this far below zero (relative to their factor scale) abort
#: construction instead of being clamped.
RADICAND_TOL = 1e-12

#: Scan draws with a denominator factor closer to zero than this are rejected.
DENOMINATOR_FLOOR = 1e-8

#: Largest ``|gamma_j|`` of a chain that counts as an XX chain.
XX_TOL = 1e-12


@dataclass
class ChainSpec:
    """Couplings of an open XY chain on ``N + 1`` sites.

    ``alpha`` and ``gamma`` have length ``N`` (bonds), ``beta`` length
    ``N + 1`` (sites).
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        if self.beta.ndim != 1 or self.beta.size < 1:
            raise ValueError("beta must be a 1-d array with at least one entry")
        n_bonds = self.beta.size - 1
        if self.alpha.shape != (n_bonds,) or self.gamma.shape != (n_bonds,):
            raise ValueError(
                f"need {n_bonds} bond couplings for {self.beta.size} sites; "
                f"got alpha{self.alpha.shape}, gamma{self.gamma.shape}"
            )
        for name in ("alpha", "beta", "gamma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def n_sites(self):
        return self.beta.size

    @property
    def N(self):
        return self.beta.size - 1

    def is_xx(self):
        """True when the antisymmetric couplings vanish identically."""
        return self.gamma.size == 0 or float(np.max(np.abs(self.gamma))) <= XX_TOL


@dataclass
class PQTable:
    """Normalized polynomial eigenvector tables.

    ``P[k, j]`` and ``Q[k, j]`` hold the two component families at site ``k``
    for mode ``j``; ``lam`` is the analytic spectrum aligned with the columns.
    Columns are parallel to the eigenvector differences/sums of the chain's
    quadratic form but are not unit-normalized.
    """

    P: np.ndarray
    Q: np.ndarray
    lam: np.ndarray
    chain: ChainSpec


def _radicand_check(values, label):
    """Clamp tiny negatives to zero; reject non-finite radicands and radicands
    below zero by more than ``RADICAND_TOL`` times the larger of 1 and their
    largest magnitude."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise InvalidParameterRegime(f"radicand {label} has non-finite entries")
    if values.size and values.min() < -RADICAND_TOL * max(1.0, float(np.max(np.abs(values)))):
        at = np.unravel_index(np.argmin(values), values.shape)
        raise InvalidParameterRegime(
            f"radicand {label}[{', '.join(map(str, at))}] = {values[at]:.6e} "
            f"is negative beyond tolerance"
        )
    return np.maximum(values, 0.0)


def build_chain(coeffs):
    """Construct the positive-branch chain couplings from contiguity data.

    ``beta_j`` is the square root of the product of the two middle
    coefficients at degree ``j``; the bond couplings come from
    ``alpha_j - gamma_j = sqrt(phi_minus1_plus[j+1] * phi_plus1_minus[j])``
    and ``alpha_j + gamma_j = sqrt(phi_minus1_minus[j+1] * phi_plus1_plus[j])``.

    Raises
    ------
    InvalidParameterRegime
        If any radicand is negative beyond tolerance (the error names the
        offending bond/site).
    """
    radicands = {
        "beta^2": coeffs.phi_0_plus * coeffs.phi_0_minus,
        "(alpha-gamma)^2": coeffs.phi_minus1_plus[1:] * coeffs.phi_plus1_minus[:-1],
        "(alpha+gamma)^2": coeffs.phi_minus1_minus[1:] * coeffs.phi_plus1_plus[:-1],
    }
    beta, diff, ssum = (np.sqrt(_radicand_check(v, label)) for label, v in radicands.items())
    return ChainSpec(alpha=0.5 * (ssum + diff), beta=beta, gamma=0.5 * (ssum - diff))


def analytic_spectrum(coeffs):
    """Closed-form single-particle spectrum ``Lambda_j >= 0`` for ``j = 0..N``.

    Computed by two independent routes — the direct product formula in the
    model parameters ``coeffs.params`` and ``sqrt(lambda_plus(j) *
    lambda_minus(j))`` from the contiguity eigenvalues of ``coeffs`` — and
    cross-asserted to ``1e-12`` before returning the direct form.
    """
    rad_closed = closed_form_lambda_squared(coeffs.family, coeffs.params)
    rad_product = coeffs.lambda_plus * coeffs.lambda_minus
    lam_closed = np.sqrt(_radicand_check(rad_closed, "Lambda^2"))
    lam_product = np.sqrt(_radicand_check(rad_product, "lambda_plus*lambda_minus"))
    scale = max(1.0, float(lam_closed.max()))
    gap = float(np.max(np.abs(lam_closed - lam_product)))
    if gap > 1e-12 * scale:
        raise InvalidParameterRegime(
            f"internal cross-check failed: closed-form spectrum deviates from "
            f"the eigenvalue-product route by {gap:.3e}"
        )
    return lam_closed


def build_pq_table(coeffs, chain, lam):
    """Build the normalized ``P``/``Q`` eigenvector tables.

    ``chain`` and ``lam`` are :func:`build_chain` and
    :func:`analytic_spectrum` of the contiguity record ``coeffs``; the table
    keeps them for the recurrence and eigenvector checks.  Row ``i`` scales
    the degree-``i`` polynomial on the base grid (``P``) and on the shifted
    grid (``Q``) by square-root prefactors accumulated from the
    coefficient tables; column ``x`` carries ``sqrt(lambda_plus(x))`` or
    ``sqrt(lambda_minus(x))`` respectively.

    Raises
    ------
    InvalidParameterRegime
        If a prefactor radicand is negative beyond tolerance (the parameter
        point is not ``full``-valid).
    """
    N = coeffs.params.N

    # cumulative row prefactors: ratios of neighbouring-degree coefficients
    ratio_p = np.ones(N + 1)
    ratio_q = np.ones(N + 1)
    ratio_p[1:] = (coeffs.phi_0_plus[:-1] * coeffs.phi_plus1_minus[:-1]) / (
        coeffs.phi_0_minus[:-1] * coeffs.phi_minus1_plus[1:]
    )
    ratio_q[1:] = (coeffs.phi_0_minus[:-1] * coeffs.phi_plus1_plus[:-1]) / (
        coeffs.phi_0_plus[:-1] * coeffs.phi_minus1_minus[1:]
    )
    cum_p = coeffs.phi_0_minus[0] * np.cumprod(ratio_p)
    cum_q = coeffs.phi_0_plus[0] * np.cumprod(ratio_q)

    rad_p = coeffs.lambda_plus[None, :] * cum_p[:, None]
    rad_q = coeffs.lambda_minus[None, :] * cum_q[:, None]
    weight_p = np.sqrt(_radicand_check(rad_p, "P normalization"))
    weight_q = np.sqrt(_radicand_check(rad_q, "Q normalization"))

    base, shifted = coeffs.grids
    return PQTable(P=weight_p * base, Q=weight_q * shifted, lam=lam, chain=chain)


def pq_recurrence_residual(pq):
    """Max relative residual of the coupled three-term recurrences.

    The two recurrences tie ``P`` and ``Q`` together through the chain
    couplings: at each site ``k`` and mode ``j``,

    * ``beta_k P_k + (alpha_k - gamma_k) P_{k+1} + (alpha_{k-1} + gamma_{k-1})
      P_{k-1} = Lambda_j Q_k`` and
    * ``beta_k Q_k + (alpha_k + gamma_k) Q_{k+1} + (alpha_{k-1} - gamma_{k-1})
      Q_{k-1} = Lambda_j P_k``,

    with out-of-range terms absent.  Returns ``(residual_P, residual_Q)``.
    """
    chain, P, Q, lam = pq.chain, pq.P, pq.Q, pq.lam
    alpha, beta, gamma = chain.alpha, chain.beta, chain.gamma
    floor = 1e-12 * max(1.0, float(np.max(np.abs(P))), float(np.max(np.abs(Q))))
    res_p = _three_term_residual(lam[None, :] * Q, beta, alpha - gamma, alpha + gamma, P, floor)
    res_q = _three_term_residual(lam[None, :] * P, beta, alpha + gamma, alpha - gamma, Q, floor)
    return float(np.max(res_p)), float(np.max(res_q))


def _sign_ok(values, sign, tol):
    """True when every entry matches ``sign`` up to a small-zero allowance."""
    return bool(np.min(sign * values) >= -tol)


def validate_draw(family, params, level="full", relation_tol=TOLERANCES["relation"],
                  constraint_tol=TOLERANCES["constraint"]):
    """Classify one parameter draw against a scan validity level.

    A draw is valid when the stages its level needs succeed and
    :func:`verify_contiguity` passes, the same certification ``verify``
    reports.  Stages run cheapest-first: the denominator-floor screen (base,
    family and shifted factors) and the coefficient tables, then
    :func:`build_chain` and :func:`analytic_spectrum` (``couplings``), the
    sign-loop screen (``spectral``), the global-sign screen (``full``), and
    last the certification.

    Returns ``(valid, reason)``.  ``reason`` is empty when valid; otherwise
    it names the failed screen, carries the message of the stage that raised
    (an :class:`XYChainError` or a float arithmetic error), or reads
    ``"<check> residual above tolerance"`` for the first failed check.
    """
    if level not in SCAN_LEVELS:
        raise ValueError(f"unknown scan level {level!r}; expected one of {SCAN_LEVELS}")
    _check_family(family)
    rank = SCAN_LEVELS.index(level)
    try:
        factors = _family_specific_factors(family, params) + _denominator_factors(params)
        factors += _denominator_factors(shift_params(family, params)[1])
        for label, value in factors:
            if abs(value) < DENOMINATOR_FLOOR:
                return False, f"denominator factor ({label}) within {DENOMINATOR_FLOOR:g} of zero"
        coeffs = contiguity_coefficients(family, params)
        if rank >= 1:
            build_chain(coeffs)
            analytic_spectrum(coeffs)
        if rank >= 2:
            # per-bond sign-loop condition: the sign of the middle-coefficient
            # product across a bond must match the sign of the raising-coefficient
            # product, otherwise the positive-branch couplings cannot reproduce
            # the closed-form spectrum
            lhs = coeffs.phi_0_plus[1:] * coeffs.phi_0_plus[:-1]
            rhs = coeffs.phi_plus1_plus[:-1] * coeffs.phi_plus1_minus[:-1]
            if np.any(np.sign(lhs) != np.sign(rhs)):
                return False, "sign-loop condition fails (spectrum not reachable)"
        if rank >= 3:
            tol = RADICAND_TOL * max(
                1.0,
                float(np.max(np.abs(coeffs.phi_0_plus))),
                float(np.max(np.abs(coeffs.phi_0_minus))),
            )
            interior = np.concatenate(
                [
                    coeffs.phi_plus1_plus[:-1],
                    coeffs.phi_minus1_plus[1:],
                    coeffs.phi_0_plus,
                    coeffs.phi_plus1_minus[:-1],
                    coeffs.phi_minus1_minus[1:],
                    coeffs.phi_0_minus,
                ]
            )
            lams = np.concatenate([coeffs.lambda_plus, coeffs.lambda_minus])
            if not any(
                _sign_ok(interior, s, tol) and _sign_ok(lams, s, tol) for s in (1.0, -1.0)
            ):
                return False, "no global sign (P/Q normalization radicands mixed)"
        report = verify_contiguity(coeffs, relation_tol=relation_tol,
                                   constraint_tol=constraint_tol)
    except (XYChainError, ArithmeticError) as exc:
        return False, str(exc)
    for check in report.checks:
        if not check.passed:
            return False, f"{check.name} residual above tolerance"
    return True, ""


def _sampler(rng, spec, label):
    """Check a ``(lo, hi)`` range or a choice list; return a function drawing from it.

    The spec is checked once here, so each draw only consumes ``rng``.
    """
    values = np.atleast_1d(np.asarray(spec, dtype=float))
    if not np.all(np.isfinite(values)):
        raise ValueError(f"range for {label} must be finite, got {spec!r}")
    if values.size == 2:
        lo, hi = float(values[0]), float(values[1])
        if hi < lo:
            raise ValueError(f"range for {label} has hi < lo: {spec!r}")
        return lambda: float(rng.uniform(lo, hi))
    return lambda: float(values[rng.integers(values.size)])


def parameter_scan(family, ranges, N, samples, seed=0, level="full",
                   relation_tol=TOLERANCES["relation"],
                   constraint_tol=TOLERANCES["constraint"]):
    """Randomly sample a parameter box and keep the valid draws.

    Parameters
    ----------
    family : str
    ranges : mapping
        Keys ``"a"``, ``"b"``, ``"c"``, ``"q"``; each value is either a
        two-entry ``(lo, hi)`` range (sampled uniformly) or a list of discrete
        choices of any other length.
    N : int
        Truncation degree used for every draw.
    samples : int
        Number of draws.
    seed : int
        Seed for the deterministic generator; identical inputs give an
        identical list of draws.
    level : str
        Validity level, one of :data:`SCAN_LEVELS`.

    Returns
    -------
    list of QRacahParams

    Raises
    ------
    ValueError
        If ``samples < 1``, a key of ``ranges`` is missing, or a range has a
        non-finite entry or ``hi < lo``; checked before the first draw.
    NoValidParameters
        If no draw passes; the message suggests widening the box.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    missing = {"a", "b", "c", "q"} - set(ranges)
    if missing:
        raise ValueError(f"ranges is missing keys: {sorted(missing)}")
    rng = np.random.default_rng(seed)
    samplers = {label: _sampler(rng, ranges[label], label) for label in ("a", "b", "c", "q")}
    hits = []
    for _ in range(samples):
        draw = {label: sample() for label, sample in samplers.items()}
        try:
            params = QRacahParams(draw["a"], draw["b"], draw["c"], int(N), draw["q"])
        except InvalidParameterRegime:
            continue
        valid, _ = validate_draw(
            family,
            params,
            level=level,
            relation_tol=relation_tol,
            constraint_tol=constraint_tol,
        )
        if valid:
            hits.append(params)
    if not hits:
        raise NoValidParameters(
            f"no {level}-valid draws for family {family} in {samples} samples; "
            f"consider widening the ranges"
            + (
                " (note: family qr13 has no spectral/full-valid region under "
                "the positive branch)"
                if family == "qr13" and level in ("spectral", "full")
                else ""
            )
        )
    return hits
