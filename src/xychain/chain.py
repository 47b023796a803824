"""Chain couplings, analytic spectra and eigenvector tables.

Turns the contiguity data of :mod:`xychain.qracah` into a physical open XY
chain: site fields ``beta_j``, bond couplings ``alpha_j`` (symmetric part) and
``gamma_j`` (antisymmetric part), the closed-form single-particle spectrum
``Lambda_j``, and the two polynomial eigenvector tables ``P``/``Q``.  The
paper gives the couplings only through their squares; :func:`build_chain`
gives each square root the sign of one of its factors (see there).

:func:`parameter_scan` discovers usable points at four nested validity
levels:

``contiguity``
    The three-term relations and the consistency ratio certify (true for
    almost all nondegenerate parameters of either family).
``couplings``
    Additionally all radicands of the coupling and spectrum formulas are
    nonnegative, so :func:`build_chain` and :func:`analytic_spectrum` succeed.
``spectral``
    The same draws as ``couplings``.
``full``
    Additionally all coefficient tables and contiguity eigenvalues share one
    global sign.

Family ``qr24`` admits large ``full``-valid regions (for instance ``a < 0``,
``c < 0``, ``b`` in ``(0, 1)``); family ``qr13`` admits ``spectral``-valid
ones (see README).
"""

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, InvalidParameterRegime, NoValidParameters, XYChainError
from .qracah import (
    _Points,
    _Reasons,
    _base_factors,
    _check_family,
    _contiguity_block,
    _grid_pairs,
    _record,
    _reject,
    _shift_block,
    _three_term_residual,
    closed_form_lambda_squared,
    verify_contiguity,
)
from .report import TOLERANCES, CheckReport

__all__ = [
    "ChainSpec",
    "PQTable",
    "build_chain",
    "analytic_spectrum",
    "build_pq_table",
    "recurrence_check",
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


def _radicand_screen(values, label, reasons):
    """Row-wise radicand screen (see :func:`~xychain.qracah._reject`): a row
    of ``values`` (any shape after the first axis) fails on a non-finite
    entry or on an entry below zero by more than ``RADICAND_TOL`` times the
    larger of 1 and the row's largest magnitude."""
    flat = values.reshape(len(values), -1)
    _reject(reasons, ~np.isfinite(flat), lambda s, k: InvalidParameterRegime(
        f"radicand {label} has non-finite entries"
    ))

    def negative(s, k):
        at = np.unravel_index(np.argmin(flat[s]), values.shape[1:])
        return InvalidParameterRegime(
            f"radicand {label}[{', '.join(map(str, at))}] = {values[s][at]:.6e} "
            f"is negative beyond tolerance"
        )

    # max(1, ...): q-Racah tables, unchanged by a coupling scale; moving it moves scan draws
    bound = -RADICAND_TOL * np.maximum(1.0, np.abs(flat).max(axis=1))
    _reject(reasons, flat.min(axis=1) < bound, negative)


def _radicand_check(values, label):
    """Clamp tiny negatives to zero; raise the :func:`_radicand_screen` error
    of ``values``."""
    values = np.asarray(values, dtype=float)
    reasons = _Reasons(1)
    _radicand_screen(values[None], label, reasons)
    reasons.raise_error()
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
    """Construct the chain couplings from contiguity data.

    ``beta_j`` is a square root of the product of the two middle
    coefficients at degree ``j``; the bond couplings come from
    ``alpha_j - gamma_j = sqrt(phi_minus1_plus[j+1] * phi_plus1_minus[j])``
    and ``alpha_j + gamma_j = sqrt(phi_minus1_minus[j+1] * phi_plus1_plus[j])``.
    Each root takes the sign of its factor ``phi_0_plus[j]``,
    ``phi_plus1_minus[j]`` or ``phi_plus1_plus[j]`` times the sign of
    ``phi_0_plus[0]``, as a positive diagonal scaling symmetrizes a
    tridiagonal recurrence; the last factor fixes the gauge ``H -> -H``.
    Where every factor has one sign, every root is nonnegative.

    Raises
    ------
    InvalidParameterRegime
        If any radicand is negative beyond tolerance (the error names the
        offending bond/site).
    """
    factors = (coeffs.phi_0_plus, coeffs.phi_plus1_minus[:-1], coeffs.phi_plus1_plus[:-1])
    gauge = -1.0 if coeffs.phi_0_plus[0] < 0 else 1.0
    beta, diff, ssum = (
        np.where(gauge * factor < 0, -1.0, 1.0) * np.sqrt(_radicand_check(v, label))
        for factor, (label, v) in zip(factors, _coupling_radicands(coeffs).items())
    )
    return ChainSpec(alpha=0.5 * (ssum + diff), beta=beta, gamma=0.5 * (ssum - diff))


def _spectrum_rows(rad_closed, rad_product, reasons):
    """Row-wise :func:`analytic_spectrum` from the ``(S, N+1)`` closed-form
    and eigenvalue-product radicands: returns the closed-form ``Lambda``
    rows and records each row's error in ``reasons`` (see
    :func:`~xychain.qracah._reject`)."""
    _radicand_screen(rad_closed, "Lambda^2", reasons)
    _radicand_screen(rad_product, "lambda_plus*lambda_minus", reasons)
    lam_closed = np.sqrt(np.maximum(rad_closed, 0.0))
    # rows with a non-finite radicand already carry their error
    with np.errstate(invalid="ignore"):
        gap = np.abs(lam_closed - np.sqrt(np.maximum(rad_product, 0.0))).max(axis=1)
    # max(1, ...) as in the radicand screen: q-Racah units; moving it moves scan draws
    scale = np.maximum(1.0, lam_closed.max(axis=1))
    _reject(reasons, gap > 1e-12 * scale, lambda s, k: InvalidParameterRegime(
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
    reasons = _Reasons(1)
    lam = _spectrum_rows(rad_closed[None], (coeffs.lambda_plus * coeffs.lambda_minus)[None], reasons)
    reasons.raise_error()
    return lam[0]


def _scaled_cumprod(ratios):
    """Running products of ``ratios`` as ``mantissa * 4.0**exponent`` arrays.

    The mantissa is rescaled by an exact power of four only where it leaves
    [2^-400, 2^400], so a product that is normal unscaled keeps its bits, and
    the mantissa of one past the float range stays normal while each ratio
    lies within 2^-600 to 2^600 in magnitude.
    """
    mantissa, exponent = np.empty(len(ratios)), np.zeros(len(ratios), dtype=int)
    m, e = 1.0, 0
    for k, ratio in enumerate(ratios.tolist()):
        m *= ratio
        if not 2.0**-400 <= abs(m) <= 2.0**400:
            shift = math.frexp(m)[1] // 2
            m, e = math.ldexp(m, -2 * shift), e + shift
        mantissa[k], exponent[k] = m, e
    return mantissa, exponent


def build_pq_table(coeffs, chain, lam):
    """Build the normalized ``P``/``Q`` eigenvector tables.

    ``chain`` and ``lam`` are :func:`build_chain` and
    :func:`analytic_spectrum` of the contiguity record ``coeffs``; the table
    keeps them for the recurrence and eigenvector checks.  Row ``i`` scales
    the degree-``i`` polynomial on the base grid (``P``) and on the shifted
    grid (``Q``) by square-root prefactors accumulated from the
    coefficient tables; column ``x`` carries ``sqrt(lambda_plus(x))`` or
    ``sqrt(lambda_minus(x))`` respectively.  The radicands are formed from
    :func:`_scaled_cumprod` mantissas, and a row's ``2**exponent`` is applied
    after the product with the grid, so no prefactor underflows.

    Raises
    ------
    InvalidParameterRegime
        If a prefactor radicand is negative beyond tolerance (the parameter
        point is not ``full``-valid).
    """
    c = coeffs
    roots = []
    for label, own, other, up, down, eigenvalues in (
        ("P", c.phi_0_minus, c.phi_0_plus, c.phi_plus1_minus, c.phi_minus1_plus, c.lambda_plus),
        ("Q", c.phi_0_plus, c.phi_0_minus, c.phi_plus1_plus, c.phi_minus1_minus, c.lambda_minus),
    ):
        # ratios of neighbouring-degree coefficients
        ratios = np.r_[1.0, other[:-1] * up[:-1] / (own[:-1] * down[1:])]
        mantissa, exponent = _scaled_cumprod(ratios)
        radicand = eigenvalues[None, :] * (own[0] * mantissa)[:, None]
        weight = np.sqrt(_radicand_check(radicand, f"{label} normalization"))
        roots.append((weight, exponent[:, None]))
    P, Q = (np.ldexp(weight * grid, exponent) for (weight, exponent), grid in zip(roots, c.grids))
    return PQTable(P=P, Q=Q, lam=lam, chain=chain)


def recurrence_check(pq, tolerances=TOLERANCES):
    """Certify the coupled three-term recurrences of the ``P``/``Q`` tables.

    The two recurrences tie ``P`` and ``Q`` together through the chain
    couplings: at each site ``k`` and mode ``j``,

    * ``beta_k P_k + (alpha_k - gamma_k) P_{k+1} + (alpha_{k-1} + gamma_{k-1})
      P_{k-1} = Lambda_j Q_k`` (``recurrence-P``) and
    * ``beta_k Q_k + (alpha_k + gamma_k) Q_{k+1} + (alpha_{k-1} - gamma_{k-1})
      Q_{k-1} = Lambda_j P_k`` (``recurrence-Q``),

    with out-of-range terms absent.  Each row is the largest relative
    residual of its recurrence, read against ``tolerances["recurrence"]``.
    """
    chain, P, Q, lam = pq.chain, pq.P, pq.Q, pq.lam
    alpha, beta, gamma = chain.alpha, chain.beta, chain.gamma
    # max(1, ...): P, Q and the chain come from q-Racah tables, never a coupling scale
    floor = 1e-12 * max(1.0, float(np.max(np.abs(P))), float(np.max(np.abs(Q))))
    res_p = _three_term_residual(lam[None, :] * Q, beta, alpha - gamma, alpha + gamma, P, floor)
    res_q = _three_term_residual(lam[None, :] * P, beta, alpha + gamma, alpha - gamma, Q, floor)
    report = CheckReport(title="P/Q recurrence")
    report.add("recurrence-P", float(np.max(res_p)), tolerances["recurrence"])
    report.add("recurrence-Q", float(np.max(res_q)), tolerances["recurrence"])
    return report


def _screen_block(family, points, level):
    """The cheap screens of :func:`validate_draw`, in its order, row-wise
    over a block.  The denominator floor covers the family, base and shifted
    factors, and the spectrum screens end with :func:`analytic_spectrum`'s
    cross-check.  Returns the block's :class:`~xychain.qracah._Reasons` and
    its coefficient tables as ``(S, N+1)`` arrays, from which
    :func:`~xychain.qracah._record` forms a survivor's contiguity record.
    Every row is computed on its own, so a point's outcome does not depend on
    its neighbours.
    """
    rank = SCAN_LEVELS.index(level)
    # non-finite values become the reasons; numpy's warnings would repeat them
    with np.errstate(all="ignore"):
        _, _, shifted_factors, reasons = _shift_block(family, points)
        base_factors = _base_factors(family, points)
        labels = base_factors[0] + shifted_factors[0]
        values = np.hstack([base_factors[1], shifted_factors[1]])
        _reject(reasons, np.abs(values) < DENOMINATOR_FLOOR, lambda s, k: InvalidParameterRegime(
            f"denominator factor ({labels[k]}) within {DENOMINATOR_FLOOR:g} of zero"
        ))
        tables = _contiguity_block(family, points, base_factors, reasons)
        t = SimpleNamespace(**tables)
        if rank >= 1:
            for label, radicand in _coupling_radicands(t).items():
                _radicand_screen(radicand, label, reasons)
            _spectrum_rows(
                closed_form_lambda_squared(family, points), t.lambda_plus * t.lambda_minus, reasons
            )
        if rank >= 3:
            # max(1, ...) as in the radicand screen: q-Racah units; moving it moves scan draws
            tol = RADICAND_TOL * np.maximum(1.0, np.maximum(
                np.abs(t.phi_0_plus).max(axis=1), np.abs(t.phi_0_minus).max(axis=1)))
            # the interior coefficients and the eigenvalues
            entries = np.hstack([
                t.phi_plus1_plus[:, :-1], t.phi_minus1_plus[:, 1:], t.phi_0_plus,
                t.phi_plus1_minus[:, :-1], t.phi_minus1_minus[:, 1:], t.phi_0_minus,
                t.lambda_plus, t.lambda_minus,
            ])
            one_sign = (entries.min(axis=1) >= -tol) | (entries.max(axis=1) <= tol)
            _reject(reasons, ~one_sign, lambda s, k: InvalidParameterRegime(
                "no global sign (coefficient tables or eigenvalues of mixed sign)"
            ))
    return reasons, tables


def _certify(record, tolerances):
    """The error that refuses a draw which passed :func:`_screen_block`, or
    ``None``, from its contiguity record: the exception
    :func:`verify_contiguity` raised, else an error naming its first failed
    check."""
    try:
        report = verify_contiguity(record, tolerances)
    except (XYChainError, ArithmeticError) as exc:
        return exc
    failed = [check.name for check in report.checks if not check.passed]
    return InvalidParameterRegime(f"{failed[0]} residual above tolerance") if failed else None


def _classify(family, points, level, tolerances):
    """Screen the block ``points`` and certify its survivors; return the
    block's :class:`~xychain.qracah._Reasons`.

    Two screens follow those of :func:`_screen_block`: a survivor whose grid
    pair fails is refused with the failure, which is what reading ``grids``
    in :func:`verify_contiguity` raises first, and then one that
    :func:`_certify` refuses.  Each survivor gets a parameter record and a
    contiguity record whose ``grids`` is its pair; the pairs are built
    together (:func:`~xychain.qracah._grid_pairs`, one block per ``q``).
    """
    reasons, tables = _screen_block(family, points, level)
    survivors = np.flatnonzero(reasons.passed()).tolist()
    params = [points.params(s) for s in survivors]
    errors, failed = {}, np.zeros(len(points), dtype=bool)
    for s, draw, pair in zip(survivors, params, _grid_pairs(family, params)):
        if isinstance(pair, Exception):
            errors[s], failed[s] = pair, True
            continue
        record = _record(family, draw, tables, s)
        record.__dict__["grids"] = pair  # the cached ContiguityCoefficients.grids
        errors[s] = _certify(record, tolerances)
    refused = np.array([errors.get(s) is not None for s in range(len(points))])
    for hits in (failed, refused):  # a row refused already keeps its first screen
        _reject(reasons, hits, lambda s, k: errors[s])
    return reasons


def _check_level(family, level):
    if level not in SCAN_LEVELS:
        raise ConfigError(f"'level' must be one of {SCAN_LEVELS}, got {level!r}")
    _check_family(family)


def validate_draw(family, params, level="full", tolerances=TOLERANCES):
    """Classify one parameter draw against a scan validity level.

    A draw is valid when the stages its level needs succeed and
    :func:`verify_contiguity` passes, the same certification ``verify``
    reports.  Stages run cheapest-first, here on a block of one draw: the
    cheap screens (shift map, denominator floor, coefficient tables, from
    ``couplings`` on the radicands of :func:`build_chain` and
    :func:`analytic_spectrum`, at ``full`` also the global sign), then the
    polynomial grids and last the certification, which reads
    ``tolerances["relation"]`` and ``tolerances["constraint"]``.

    Returns ``(valid, reason)``.  ``reason`` is empty when valid; otherwise
    it names the failed screen, carries the message of the stage that raised
    (an :class:`XYChainError` or a float arithmetic error), or reads
    ``"<check> residual above tolerance"`` for the first failed check.  An
    unknown level raises :class:`~xychain.errors.ConfigError` (a
    ``ValueError``), an unknown family ``ValueError``.
    """
    _check_level(family, level)
    error = _classify(family, _Points.of([params]), level, tolerances).error(0)
    return (True, "") if error is None else (False, str(error))


def _is_number(value):
    """True for a finite real number; ``bool`` does not count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _sampler(rng, spec, label):
    """Check a ``(lo, hi)`` range or a choice list; return a function drawing from it.

    The spec is checked once here, so each draw only consumes ``rng``.
    """
    entries = spec.tolist() if isinstance(spec, np.ndarray) and spec.ndim == 1 else spec
    if not isinstance(entries, (list, tuple)) or not entries or not all(map(_is_number, entries)):
        raise ConfigError(f"ranges['{label}'] must be a non-empty array of finite numbers")
    values = np.array(entries, dtype=float)
    if values.size == 2:
        lo, hi = float(values[0]), float(values[1])
        if hi < lo:
            raise ConfigError(f"ranges['{label}'] = {spec!r} has hi < lo")
        if not np.isfinite(hi - lo):
            raise ConfigError(
                f"ranges['{label}'] = {spec!r} has a width hi - lo that is not a finite float"
            )
        width = hi - lo
        # numpy's uniform(lo, hi) is this same lo + width * random(), bit for bit
        return lambda: lo + width * rng.random()
    return lambda: float(values[rng.integers(values.size)])


def parameter_scan(family, ranges, N, samples, seed=0, level="full", tolerances=TOLERANCES):
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
        two-entry ``(lo, hi)`` range (sampled uniformly) or a nonempty list
        of discrete choices of any other length.
    N, samples, seed : int
        Truncation degree of every draw, number of draws and generator seed;
        identical inputs give an identical list of draws.
    level : str
        Validity level, one of :data:`SCAN_LEVELS`.
    tolerances : mapping
        Check tolerances by name; the certification reads ``"relation"``
        and ``"constraint"``.

    Returns
    -------
    list of QRacahParams

    Raises
    ------
    ConfigError
        A ``ValueError``, before the first draw: if ``ranges`` is not a
        mapping of exactly the keys above, a range is not a non-empty list,
        tuple or 1-d array of finite reals (not ``bool``), a two-entry range
        has ``hi < lo`` or a width that is not a finite float, ``N`` or
        ``samples`` is not an integer ``>= 1`` or ``seed`` one ``>= 0`` (not
        ``bool``), or ``level`` is unknown.  ``scan`` prints it.
    ValueError
        If the family is unknown.
    NoValidParameters
        If no draw passes; the message suggests widening the box.
    """
    labels = ("a", "b", "c", "q")
    if not isinstance(ranges, Mapping):
        raise ConfigError(f"'ranges' must be a mapping, got {ranges!r}")
    missing = sorted(set(labels) - set(ranges))
    if missing:
        raise ConfigError(f"'ranges' is missing keys: {missing}")
    extra = sorted(set(ranges) - set(labels), key=str)
    if extra:
        raise ConfigError(f"'ranges' has unknown keys: {extra}")
    for name, value, least in (("N", N, 1), ("samples", samples, 1), ("seed", seed, 0)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ConfigError(f"'{name}' must be an integer >= {least}, got {value!r}")
    rng = np.random.default_rng(seed)
    samplers = [_sampler(rng, ranges[label], label) for label in labels]
    _check_level(family, level)
    hits = []
    for start in range(0, samples, _SCAN_BLOCK):
        draws = np.array([
            [sample() for sample in samplers] for _ in range(min(_SCAN_BLOCK, samples - start))
        ])
        # the draws QRacahParams accepts: finite, with q strictly inside (0, 1)
        q = draws[:, 3]
        draws = draws[np.isfinite(draws).all(axis=1) & (0.0 < q) & (q < 1.0)]
        if not len(draws):
            continue
        points = _Points(int(N), draws)
        reasons = _classify(family, points, level, tolerances)
        hits += [points.params(s) for s in np.flatnonzero(reasons.passed()).tolist()]
    if not hits:
        raise NoValidParameters(
            f"no {level}-valid draws for family {family} in {samples} samples; "
            f"consider widening the ranges"
        )
    return hits
