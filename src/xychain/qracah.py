"""q-Racah polynomials and the three-term contiguity data built on them.

Two families of contiguity relations are supported, tagged ``"qr13"`` and
``"qr24"``.  Each family supplies, for parameters ``(a, b, c, N, q)``:

* a pair of eigenvalue arrays ``lambda_plus(x)``, ``lambda_minus(x)`` on the
  grid ``x = 0..N``,
* six coefficient arrays ``phi_{+1,0,-1}^{+,-}`` indexed by the polynomial
  degree ``i = 0..N``,
* a parameter/grid shift map sending the base family to a companion family.

The defining property (certified by :func:`verify_contiguity`) is that the
polynomials at base parameters and at shifted parameters are connected by two
three-term relations whose coefficients are exactly these arrays.  The same
data later yields couplings and spectra of an open XY chain (module
:mod:`xychain.chain`).
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParameterRegime, InvalidShiftedParams
from .qseries import phi43_terminating, phi43_terminating_exact
from .report import TOLERANCES, CheckReport

__all__ = [
    "FAMILIES",
    "QRacahParams",
    "ContiguityCoefficients",
    "grid_variable",
    "qracah_eval",
    "shift_params",
    "contiguity_coefficients",
    "closed_form_lambda_squared",
    "verify_contiguity",
]

#: Supported contiguity families (they differ in their shift maps and tables).
FAMILIES = ("qr13", "qr24")

_RESIDUAL_FLOOR = 1e-30


@dataclass(frozen=True)
class QRacahParams:
    """Parameter record ``(a, b, c, N, q)`` for a q-Racah family.

    ``N`` is the truncation degree (grid is ``x = 0..N``); ``q`` must lie
    strictly inside ``(0, 1)``.
    """

    a: float
    b: float
    c: float
    N: int
    q: float

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise InvalidParameterRegime(f"N must be an integer >= 1, got {self.N!r}")
        for name in ("a", "b", "c", "q"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidParameterRegime(f"parameter {name} must be finite, got {value!r}")
        if not 0.0 < self.q < 1.0:
            raise InvalidParameterRegime(
                f"q must lie strictly inside (0, 1), got {self.q!r}"
            )

    def as_tuple(self):
        return (self.a, self.b, self.c, self.N, self.q)


def grid_variable(x, params):
    """Grid value ``-(1 - q^{-x}) (1 - c q^{x-N})`` at grid point ``x``.

    The degree-``i`` member of the family is a polynomial of degree exactly
    ``i`` in this variable (certified by an interpolation test in the suite).
    """
    a, b, c, N, q = params.as_tuple()
    return -(1.0 - q ** (-x)) * (1.0 - c * q ** (x - N))


def qracah_eval(i, x, params):
    """Evaluate the degree-``i`` q-Racah polynomial at grid point ``x``.

    Defined as the terminating series with numerator parameters
    ``(a b q^{i+1}, q^{-x}, c q^{x-N})``, denominator parameters
    ``(a q, b c q, q^{-N})`` and argument ``q``.  ``x`` may lie off the
    integer grid (the series is defined for any real ``x``); ``i`` must stay
    within ``0..N`` for the series to make sense.

    On integer grid points the alternating sum is accumulated in exact
    rational arithmetic (the float parameters are represented exactly) and
    rounded once, so the result stays accurate at degrees where direct float
    accumulation would lose many digits to cancellation.  Off-grid arguments
    use the float evaluator.
    """
    a, b, c, N, q = params.as_tuple()
    if not 0 <= i <= N:
        raise ValueError(f"polynomial degree must satisfy 0 <= i <= N={N}, got {i}")
    if float(x).is_integer():
        a, b, c, q = (Fraction(v) for v in (a, b, c, q))
        return float(phi43_terminating_exact(i, *_series_args(i, a, b, c, N, q)(int(x)), q, q))
    return phi43_terminating(i, *_series_args(i, a, b, c, N, q)(x), q, q)


def _series_args(i, a, b, c, N, q):
    """Series parameters of the degree-``i`` polynomial as a function of ``x``.

    Returns ``x -> (numerator params, denominator params)``; the factors that
    do not depend on ``x`` are computed once.  Generic over the number type:
    ``float`` inputs give the arguments of the float series, ``Fraction``
    inputs the exact ones, by the same formula.
    """
    ab = a * b * q ** (i + 1)
    den = (a * q, b * c * q, q ** (-N))
    return lambda x: ((ab, q ** (-x), c * q ** (x - N)), den)


def _denominator_factors(params):
    """Factors that must stay away from zero for series/table evaluation.

    Returns a list of ``(label, value)`` pairs covering the series
    denominators ``(1 - a q^m)``, ``(1 - b c q^m)`` for ``m = 1..N`` and the
    table denominators ``(1 - a b q^m)`` for ``m = 0..2N+2``.
    """
    a, b, c, N, q = params.as_tuple()
    factors = []
    for m in range(1, N + 1):
        factors.append((f"1 - a q^{m}", 1.0 - a * q**m))
        factors.append((f"1 - b c q^{m}", 1.0 - b * c * q**m))
    ab = a * b
    for m in range(0, 2 * N + 3):
        factors.append((f"1 - a b q^{m}", 1.0 - ab * q**m))
    return factors


def _family_specific_factors(family, params):
    a, b, c, N, q = params.as_tuple()
    if family == "qr13":
        return [("1 - a", 1.0 - a), ("1 - b c", 1.0 - b * c)]
    return [
        ("a", a),
        ("b", b),
        ("1 - a", 1.0 - a),
        ("1 - b c q", 1.0 - b * c * q),
    ]


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _shift_map(family, a, b, c, q):
    """Family shift map ``(a, b, c) -> (x_shift, a', b', c')``.

    Generic over the number type, so the float and the exact-rational routes
    apply the same formula.
    """
    if family == "qr13":
        return 1, a / q, b * q, c / q**2
    return 0, a / q, b * q, c


def shift_params(family, params):
    """Family shift map: returns ``(x_shift, shifted_params)``.

    ``qr13`` maps ``(a, b, c, N) -> (a/q, bq, c/q^2, N)`` with the grid
    shifted by one (``x -> x + 1``); ``qr24`` maps
    ``(a, b, c, N) -> (a/q, bq, c, N)`` with the grid unshifted.

    Raises
    ------
    InvalidShiftedParams
        If the shifted parameters violate the basic parameter invariants or
        make a series denominator vanish exactly.
    """
    _check_family(family)
    a, b, c, N, q = params.as_tuple()
    x_shift, *shifted = _shift_map(family, a, b, c, q)
    try:
        shifted_params = QRacahParams(*shifted, N, q)
    except InvalidParameterRegime as exc:
        raise InvalidShiftedParams(f"shifted parameters invalid: {exc}") from exc
    for label, value in _denominator_factors(shifted_params):
        if value == 0.0:
            raise InvalidShiftedParams(
                f"shifted parameters make denominator factor ({label}) vanish"
            )
    return x_shift, shifted_params


@dataclass
class ContiguityCoefficients:
    """Contiguity data for one family at one parameter point.

    ``phi_plus1_*``, ``phi_0_*``, ``phi_minus1_*`` are arrays over the degree
    index ``i = 0..N``; the suffix ``_plus``/``_minus`` selects which of the
    two three-term relations the coefficient belongs to, and the ``plus1 / 0 /
    minus1`` part is the degree offset of the polynomial it multiplies.
    ``lambda_plus``/``lambda_minus`` are the relation eigenvalues over the
    grid ``x = 0..N``.

    The record holds no polynomial values; the exact grids are built on first
    use by the checks that read them (:func:`verify_contiguity`,
    :func:`xychain.chain.build_pq_table`, :func:`xychain.chain.validate_draw`).
    """

    family: str
    params: QRacahParams
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    phi_plus1_plus: np.ndarray
    phi_0_plus: np.ndarray
    phi_minus1_plus: np.ndarray
    phi_plus1_minus: np.ndarray
    phi_0_minus: np.ndarray
    phi_minus1_minus: np.ndarray

    def constraint_ratio_deviation(self):
        """Max deviation from 1 of the eight-factor consistency ratio.

        The ratio couples neighbouring degrees ``i`` and ``i+1`` of all six
        coefficient tables and must equal 1 identically for the chain
        construction to be consistent; evaluated for ``i = 0..N-1`` (at
        ``i = N`` it degenerates to 0/0 because the boundary coefficients
        vanish identically).
        """
        num = (
            self.phi_0_minus[:-1]
            * self.phi_plus1_plus[:-1]
            * self.phi_minus1_plus[1:]
            * self.phi_0_minus[1:]
        )
        den = (
            self.phi_0_plus[:-1]
            * self.phi_plus1_minus[:-1]
            * self.phi_minus1_minus[1:]
            * self.phi_0_plus[1:]
        )
        if np.any(den == 0.0):
            raise InvalidParameterRegime(
                "constraint ratio denominator vanishes; parameters degenerate"
            )
        return float(np.max(np.abs(num / den - 1.0)))


def _raw_tables(family, params):
    """Evaluate the printed coefficient tables (vectorized over i and x)."""
    a, b, c, N, q = params.as_tuple()
    i = np.arange(N + 1, dtype=float)
    x = np.arange(N + 1, dtype=float)
    ab = a * b
    if family == "qr13":
        lam_p = (1 - q ** (-x - 1)) * (1 - c * q ** (x - N - 1)) / ((1 - b * c) * (1 - a))
        lam_m = (1 - c * q**x) * (1 - q ** (N - x))
        up_p = (
            -(q**i)
            * (1 - q ** (i - N))
            * (1 - ab * q ** (i + 1))
            / ((1 - ab * q ** (2 * i + 1)) * (1 - ab * q ** (2 * i + 2)))
        )
        dn_p = (
            -(q ** (i - N - 1))
            * (1 - q**i)
            * (1 - ab * q ** (N + i + 1))
            / ((1 - ab * q ** (2 * i)) * (1 - ab * q ** (2 * i + 1)))
        )
        mid_p = -up_p - dn_p
        up_m = (
            (1 - q ** (N - i))
            * (1 - a * q**i)
            * (1 - a * q ** (i + 1))
            * (1 - ab * q ** (i + 1))
            * (1 - b * c * q**i)
            * (1 - b * c * q ** (i + 1))
            / ((1 - a) * (1 - b * c) * (1 - ab * q ** (2 * i + 1)) * (1 - ab * q ** (2 * i + 2)))
        )
        mid_m = (
            (1 - a * q**i)
            * (1 - b * q ** (i + 1))
            * (1 - b * c * q**i)
            * (a * q ** (i + 1) - c)
            / (q * (1 - a) * (1 - b * c) * (1 - ab * q ** (2 * i + 1)))
        ) * (
            q * (1 - q ** (N - i)) * (1 - ab * q ** (i + 1)) / (1 - ab * q ** (2 * i + 2))
            + (1 - q ** (-i)) * (1 - ab * q ** (N + i + 1)) / (1 - ab * q ** (2 * i))
        )
        dn_m = (
            (1 - q ** (-i))
            * (a * q**i - c)
            * (a * q ** (i + 1) - c)
            * (1 - b * q**i)
            * (1 - b * q ** (i + 1))
            * (1 - ab * q ** (N + i + 1))
            / (q * (1 - a) * (1 - b * c) * (1 - ab * q ** (2 * i)) * (1 - ab * q ** (2 * i + 1)))
        )
    else:
        lam_p = (1 - a * q**x) * (c - a * q ** (N - x)) / (a * (1 - a))
        lam_m = (1 - b * c * q ** (x + 1)) * (1 - b * q ** (N - x + 1)) / (b * q * (1 - b * c * q))
        up_p = (
            -(q**N - q**i)
            * (1 - ab * q ** (i + 1))
            * (1 - b * c * q ** (i + 1))
            * (1 - b * c * q ** (i + 2))
            / ((1 - b * c * q) * (1 - ab * q ** (2 * i + 1)) * (1 - ab * q ** (2 * i + 2)))
        )
        dn_p = (
            -b
            * q
            * (1 - q**i)
            * (c - a * q ** (i - 1))
            * (c - a * q**i)
            * (1 - ab * q ** (N + i + 1))
            / (a * (1 - b * c * q) * (1 - ab * q ** (2 * i)) * (1 - ab * q ** (2 * i + 1)))
        )
        lam0_p = (1 - a) * (c - a * q**N) / (a * (1 - a))
        mid_p = lam0_p - up_p - dn_p
        up_m = (
            (1 - a * q**i)
            * (1 - a * q ** (i + 1))
            * (1 - ab * q ** (i + 1))
            * (q**i - q**N)
            / ((1 - a) * (1 - ab * q ** (2 * i + 1)) * (1 - ab * q ** (2 * i + 2)))
        )
        dn_m = (
            -a
            * (1 - q**i)
            * (1 - b * q**i)
            * (1 - b * q ** (i + 1))
            * (1 - ab * q ** (N + i + 1))
            / (b * q * (1 - a) * (1 - ab * q ** (2 * i)) * (1 - ab * q ** (2 * i + 1)))
        )
        lam0_m = (1 - b * c * q) * (1 - b * q ** (N + 1)) / (b * q * (1 - b * c * q))
        # Sum rule of the "minus" relation at x = 0 (every R_i(0) = 1).  The
        # other printed form, lambda_plus(0) minus the "plus"-relation
        # neighbours, fails the relation; a discrimination test keeps it so.
        mid_m = lam0_m - up_m - dn_m
    return {
        "lambda_plus": lam_p,
        "lambda_minus": lam_m,
        "phi_plus1_plus": up_p,
        "phi_0_plus": mid_p,
        "phi_minus1_plus": dn_p,
        "phi_plus1_minus": up_m,
        "phi_0_minus": mid_m,
        "phi_minus1_minus": dn_m,
    }


def closed_form_lambda_squared(family, params):
    """Squared single-particle eigenvalues, direct closed form, for j = 0..N.

    This is the product form written directly in the model parameters; it must
    agree with ``lambda_plus(j) * lambda_minus(j)`` identically (cross-checked
    in :func:`xychain.chain.analytic_spectrum`).
    """
    _check_family(family)
    a, b, c, N, q = params.as_tuple()
    j = np.arange(N + 1, dtype=float)
    if family == "qr13":
        return (
            (1 - c * q**j)
            * (1 - q ** (N - j))
            * (1 - q ** (-j - 1))
            * (1 - c * q ** (j - N - 1))
            / ((1 - b * c) * (1 - a))
        )
    return (
        (1 - a * q**j)
        * (c - a * q ** (N - j))
        * (1 - b * c * q ** (j + 1))
        * (1 - b * q ** (N - j + 1))
        / (a * b * q * (1 - a) * (1 - b * c * q))
    )


def _polynomial_grids(family, params):
    """Polynomial values on the base and shifted grids.

    Returns ``(base, shifted)`` where ``base[i, x] = R_i(x)`` at the base
    parameters and ``shifted[i, x] = R_i(x + x_shift)`` at the shifted
    parameters, for ``i, x = 0..N``.

    Both grids are evaluated in exact rational arithmetic from the (exactly
    represented) float parameters, with the parameter shift applied in the
    same arithmetic, then rounded to float once.  This matters twice over:
    the relation residuals computed from these grids compare the base and
    shifted families, which is an identity only when the shifted parameters
    are *exactly* ``(a/q, bq, ...)`` of the base ones, and the alternating
    series itself loses digits to cancellation as the degree grows (visible
    from N ~ 7 in direct float accumulation).
    """
    N = params.N
    shift_params(family, params)  # validates the shifted regime
    a, b, c, q = (Fraction(v) for v in (params.a, params.b, params.c, params.q))
    x_shift, sa, sb, sc = _shift_map(family, a, b, c, q)
    base = np.empty((N + 1, N + 1))
    shifted = np.empty((N + 1, N + 1))
    for i in range(N + 1):
        base_args = _series_args(i, a, b, c, N, q)
        shifted_args = _series_args(i, sa, sb, sc, N, q)
        for x in range(N + 1):
            base[i, x] = float(phi43_terminating_exact(i, *base_args(x), q, q))
            shifted[i, x] = float(phi43_terminating_exact(i, *shifted_args(x + x_shift), q, q))
    return base, shifted


def _grids_for(coeffs):
    """`(base, shifted)` polynomial grids of a coefficient record, built once
    on first use and kept on the record."""
    grids = getattr(coeffs, "_grids", None)
    if grids is None:
        grids = _polynomial_grids(coeffs.family, coeffs.params)
        coeffs._grids = grids
    return grids


def _relation_residuals(coeffs, base, shifted):
    """Elementwise relative residuals of the two three-term relations.

    Returns two ``(N+1, N+1)`` arrays indexed ``[i, x]``.  Boundary terms with
    out-of-range degree carry identically vanishing coefficients and are
    omitted (never evaluating a degree ``N+1`` polynomial).
    """

    def three_term(up, mid, dn, table):
        rhs = mid[:, None] * table
        mags = np.abs(rhs)
        contrib = up[:-1, None] * table[1:]
        rhs[:-1] += contrib
        mags[:-1] = np.maximum(mags[:-1], np.abs(contrib))
        contrib = dn[1:, None] * table[:-1]
        rhs[1:] += contrib
        mags[1:] = np.maximum(mags[1:], np.abs(contrib))
        return rhs, mags

    lhs = coeffs.lambda_plus[None, :] * base
    rhs, mags = three_term(
        coeffs.phi_plus1_plus, coeffs.phi_0_plus, coeffs.phi_minus1_plus, shifted
    )
    scale = np.maximum(np.maximum(np.abs(lhs), mags), _RESIDUAL_FLOOR)
    res_plus = np.abs(lhs - rhs) / scale

    lhs = coeffs.lambda_minus[None, :] * shifted
    rhs, mags = three_term(
        coeffs.phi_plus1_minus, coeffs.phi_0_minus, coeffs.phi_minus1_minus, base
    )
    scale = np.maximum(np.maximum(np.abs(lhs), mags), _RESIDUAL_FLOOR)
    res_minus = np.abs(lhs - rhs) / scale
    return res_plus, res_minus


def _boundary_mask(family, N):
    """Grid mask of points included in the relation certification.

    For family ``qr13`` the top corner ``(i, x) = (N, N)`` is excluded: the
    three-term truncation drops the degree-``N+1`` term whose coefficient
    vanishes identically, but at that single grid point the dropped
    coefficient-times-polynomial product has a finite nonzero limit (the
    polynomial value diverges there on the shifted grid).  Every quantity
    derived from the tables weights that point by ``lambda_minus(N) = 0``, so
    the construction is unaffected; see the README limitations section.
    """
    mask = np.ones((N + 1, N + 1), dtype=bool)
    if family == "qr13":
        mask[N, N] = False
    return mask


def _masked_relation_residuals(coeffs):
    """Worst residual of each relation over the certified grid points.

    The one relation screen of both :func:`verify_contiguity` and
    :func:`xychain.chain.validate_draw`.  Returns ``(worst_plus, worst_minus,
    note)``; ``note`` states the points :func:`_boundary_mask` leaves out and
    is empty when it leaves out none.
    """
    mask = _boundary_mask(coeffs.family, coeffs.params.N)
    res_plus, res_minus = _relation_residuals(coeffs, *_grids_for(coeffs))
    note = "" if mask.all() else "corner (i,x)=(N,N) excluded; weighted by lambda_minus(N)=0"
    return float(np.max(res_plus[mask])), float(np.max(res_minus[mask])), note


def contiguity_coefficients(family, params):
    """Build the full contiguity data for a family at a parameter point.

    Only the closed-form tables are evaluated; no polynomial values.

    Raises
    ------
    InvalidParameterRegime
        If a structural denominator vanishes exactly or a table entry is not
        finite.
    """
    _check_family(family)
    for label, value in _family_specific_factors(family, params) + _denominator_factors(params):
        if value == 0.0:
            raise InvalidParameterRegime(f"denominator factor ({label}) vanishes")
    coeffs = ContiguityCoefficients(family=family, params=params, **_raw_tables(family, params))
    for name in (
        "lambda_plus",
        "lambda_minus",
        "phi_plus1_plus",
        "phi_0_plus",
        "phi_minus1_plus",
        "phi_plus1_minus",
        "phi_0_minus",
        "phi_minus1_minus",
    ):
        values = getattr(coeffs, name)
        if not np.all(np.isfinite(values)):
            raise InvalidParameterRegime(f"coefficient table {name} has non-finite entries")
    return coeffs


def verify_contiguity(family, params, relation_tol=TOLERANCES["relation"],
                      constraint_tol=TOLERANCES["constraint"], coeffs=None):
    """Certify the contiguity data against direct polynomial evaluation.

    Evaluates both three-term relations at every grid point ``(i, x)`` on the
    exact-rational polynomial grids of ``coeffs`` (built here on first use),
    plus the eight-factor consistency ratio, and returns a
    :class:`CheckReport`.
    """
    if coeffs is None:
        coeffs = contiguity_coefficients(family, params)
    worst_plus, worst_minus, note = _masked_relation_residuals(coeffs)
    report = CheckReport(title=f"contiguity {family} {params.as_tuple()}")
    report.add("relation-plus", worst_plus, relation_tol, note)
    report.add("relation-minus", worst_minus, relation_tol, note)
    report.add("constraint-ratio", coeffs.constraint_ratio_deviation(), constraint_tol)
    return report
