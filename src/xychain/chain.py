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
from types import SimpleNamespace

import numpy as np

from .errors import InvalidParameterRegime, NoValidParameters, XYChainError
from .qracah import (
    QRacahParams,
    _Points,
    _base_factors,
    _check_family,
    _contiguity_block,
    _record,
    _reject,
    _shift_block,
    _three_term_residual,
    closed_form_lambda_squared,
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

#: Draws a scan screens in one pass; bounds the screen's memory for any
#: number of samples.
_SCAN_BLOCK = 256


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


def _radicand_screen(values, label, errors):
    """Row-wise radicand screen (see :func:`~xychain.qracah._reject`): a row
    of ``values`` (any shape after the first axis) fails on a non-finite
    entry or on an entry below zero by more than ``RADICAND_TOL`` times the
    larger of 1 and the row's largest magnitude."""
    flat = values.reshape(len(values), -1)
    _reject(errors, ~np.isfinite(flat), lambda s, k: InvalidParameterRegime(
        f"radicand {label} has non-finite entries"
    ))
    if not flat.shape[1]:
        return

    def negative(s, k):
        at = np.unravel_index(np.argmin(flat[s]), values.shape[1:])
        return InvalidParameterRegime(
            f"radicand {label}[{', '.join(map(str, at))}] = {values[s][at]:.6e} "
            f"is negative beyond tolerance"
        )

    bound = -RADICAND_TOL * np.maximum(1.0, np.abs(flat).max(axis=1))
    _reject(errors, flat.min(axis=1) < bound, negative)


def _radicand_check(values, label):
    """Clamp tiny negatives to zero; raise the :func:`_radicand_screen` error
    of ``values``."""
    values = np.asarray(values, dtype=float)
    errors = [None]
    _radicand_screen(values[None], label, errors)
    if errors[0] is not None:
        raise errors[0]
    return np.maximum(values, 0.0)


def _coupling_radicands(tables):
    """Squared couplings ``beta^2``, ``(alpha-gamma)^2``, ``(alpha+gamma)^2``
    of one record or of a block of ``(S, N+1)`` tables."""
    return {
        "beta^2": tables.phi_0_plus * tables.phi_0_minus,
        "(alpha-gamma)^2": tables.phi_minus1_plus[..., 1:] * tables.phi_plus1_minus[..., :-1],
        "(alpha+gamma)^2": tables.phi_minus1_minus[..., 1:] * tables.phi_plus1_plus[..., :-1],
    }


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
    beta, diff, ssum = (
        np.sqrt(_radicand_check(v, label)) for label, v in _coupling_radicands(coeffs).items()
    )
    return ChainSpec(alpha=0.5 * (ssum + diff), beta=beta, gamma=0.5 * (ssum - diff))


def _spectrum_rows(rad_closed, rad_product, errors):
    """Row-wise :func:`analytic_spectrum` from the ``(S, N+1)`` closed-form
    and eigenvalue-product radicands: the closed-form ``Lambda`` rows, and
    each row's error (see :func:`~xychain.qracah._reject`)."""
    _radicand_screen(rad_closed, "Lambda^2", errors)
    _radicand_screen(rad_product, "lambda_plus*lambda_minus", errors)
    lam_closed = np.sqrt(np.maximum(rad_closed, 0.0))
    # rows with a non-finite radicand already carry their error
    with np.errstate(invalid="ignore"):
        gap = np.abs(lam_closed - np.sqrt(np.maximum(rad_product, 0.0))).max(axis=1)
    scale = np.maximum(1.0, lam_closed.max(axis=1))
    _reject(errors, gap > 1e-12 * scale, lambda s, k: InvalidParameterRegime(
        f"internal cross-check failed: closed-form spectrum deviates from "
        f"the eigenvalue-product route by {gap[s]:.3e}"
    ))
    return lam_closed


def analytic_spectrum(coeffs):
    """Closed-form single-particle spectrum ``Lambda_j >= 0`` for ``j = 0..N``.

    Computed by two independent routes — the direct product formula in the
    model parameters ``coeffs.params`` and ``sqrt(lambda_plus(j) *
    lambda_minus(j))`` from the contiguity eigenvalues of ``coeffs`` — and
    cross-asserted to ``1e-12`` before returning the direct form.
    """
    rad_closed = closed_form_lambda_squared(coeffs.family, coeffs.params)
    errors = [None]
    lam = _spectrum_rows(rad_closed[None], (coeffs.lambda_plus * coeffs.lambda_minus)[None], errors)
    if errors[0] is not None:
        raise errors[0]
    return lam[0]


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


def _screen_block(family, points, level):
    """The cheap screens of :func:`validate_draw`, row-wise over a block.

    Runs, in this order, the shift map, the denominator-floor screen (family,
    base and shifted factors), the table checks of
    :func:`~xychain.qracah.contiguity_coefficients`, at ``couplings`` and
    above the radicands of :func:`build_chain` and :func:`analytic_spectrum`
    and its cross-check, the sign-loop screen (``spectral``) and the
    global-sign screen (``full``).  Returns, per point, the error of its
    first failed screen or its contiguity record.  Every row is computed on
    its own, so a point's outcome does not depend on its neighbours.
    """
    rank = SCAN_LEVELS.index(level)
    # non-finite values become the reasons; numpy's warnings would repeat them
    with np.errstate(all="ignore"):
        _, _, shifted_factors, errors = _shift_block(family, points)
        base_factors = _base_factors(family, points)
        labels = base_factors[0] + shifted_factors[0]
        values = np.hstack([base_factors[1], shifted_factors[1]])
        _reject(errors, np.abs(values) < DENOMINATOR_FLOOR, lambda s, k: InvalidParameterRegime(
            f"denominator factor ({labels[k]}) within {DENOMINATOR_FLOOR:g} of zero"
        ))
        tables = _contiguity_block(family, points, base_factors, errors)
        t = SimpleNamespace(**tables)
        if rank >= 1:
            for label, radicand in _coupling_radicands(t).items():
                _radicand_screen(radicand, label, errors)
            _spectrum_rows(
                closed_form_lambda_squared(family, points), t.lambda_plus * t.lambda_minus, errors
            )
        if rank >= 2:
            # per-bond sign-loop condition: the sign of the middle-coefficient
            # product across a bond must match the sign of the raising-coefficient
            # product, otherwise the positive-branch couplings cannot reproduce
            # the closed-form spectrum
            lhs = t.phi_0_plus[:, 1:] * t.phi_0_plus[:, :-1]
            rhs = t.phi_plus1_plus[:, :-1] * t.phi_plus1_minus[:, :-1]
            _reject(errors, np.sign(lhs) != np.sign(rhs), lambda s, k: InvalidParameterRegime(
                "sign-loop condition fails (spectrum not reachable)"
            ))
        if rank >= 3:
            tol = RADICAND_TOL * np.maximum(
                1.0,
                np.maximum(np.abs(t.phi_0_plus).max(axis=1), np.abs(t.phi_0_minus).max(axis=1)),
            )
            interior = np.hstack([
                t.phi_plus1_plus[:, :-1],
                t.phi_minus1_plus[:, 1:],
                t.phi_0_plus,
                t.phi_plus1_minus[:, :-1],
                t.phi_minus1_minus[:, 1:],
                t.phi_0_minus,
            ])
            lams = np.hstack([t.lambda_plus, t.lambda_minus])
            signed = [
                ((sign * interior).min(axis=1) >= -tol) & ((sign * lams).min(axis=1) >= -tol)
                for sign in (1.0, -1.0)
            ]
            _reject(errors, ~(signed[0] | signed[1]), lambda s, k: InvalidParameterRegime(
                "no global sign (P/Q normalization radicands mixed)"
            ))
    return [
        error if error is not None else _record(family, params, tables, s)
        for s, (params, error) in enumerate(zip(points.points, errors))
    ]


def _certify(screened, relation_tol, constraint_tol):
    """``(valid, reason)`` of one draw from its :func:`_screen_block` outcome:
    the screen's error, or the verdict of :func:`verify_contiguity`."""
    if isinstance(screened, Exception):
        return False, str(screened)
    try:
        report = verify_contiguity(screened, relation_tol=relation_tol,
                                   constraint_tol=constraint_tol)
    except (XYChainError, ArithmeticError) as exc:
        return False, str(exc)
    for check in report.checks:
        if not check.passed:
            return False, f"{check.name} residual above tolerance"
    return True, ""


def _check_level(family, level):
    if level not in SCAN_LEVELS:
        raise ValueError(f"unknown scan level {level!r}; expected one of {SCAN_LEVELS}")
    _check_family(family)


def validate_draw(family, params, level="full", relation_tol=TOLERANCES["relation"],
                  constraint_tol=TOLERANCES["constraint"]):
    """Classify one parameter draw against a scan validity level.

    A draw is valid when the stages its level needs succeed and
    :func:`verify_contiguity` passes, the same certification ``verify``
    reports.  Stages run cheapest-first: the cheap screens of
    :func:`_screen_block` (shift map, denominator floor, coefficient tables,
    at ``couplings`` the radicands of :func:`build_chain` and
    :func:`analytic_spectrum`, at ``spectral`` the sign loop, at ``full`` the
    global sign), here on a block of one draw, and last the certification.

    Returns ``(valid, reason)``.  ``reason`` is empty when valid; otherwise
    it names the failed screen, carries the message of the stage that raised
    (an :class:`XYChainError` or a float arithmetic error), or reads
    ``"<check> residual above tolerance"`` for the first failed check.
    """
    _check_level(family, level)
    (screened,) = _screen_block(family, _Points([params]), level)
    return _certify(screened, relation_tol, constraint_tol)


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

    Each draw is classified as :func:`validate_draw` would, with the same
    verdict.  The draws are taken one at a time from one generator and
    screened in blocks of ``_SCAN_BLOCK`` in one vectorized pass
    (:func:`_screen_block`); only the survivors are certified, in draw order.

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
        If ``samples < 1``, a key of ``ranges`` is missing, a range has a
        non-finite entry or ``hi < lo``, or the family or level is unknown;
        checked before the first draw.
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
    _check_level(family, level)
    hits = []
    for start in range(0, samples, _SCAN_BLOCK):
        block = []
        for _ in range(min(_SCAN_BLOCK, samples - start)):
            draw = {label: sample() for label, sample in samplers.items()}
            try:
                block.append(QRacahParams(draw["a"], draw["b"], draw["c"], int(N), draw["q"]))
            except InvalidParameterRegime:
                continue
        if not block:
            continue
        for params, screened in zip(block, _screen_block(family, _Points(block), level)):
            if _certify(screened, relation_tol, constraint_tol)[0]:
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
