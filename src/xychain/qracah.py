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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InvalidParameterRegime, InvalidShiftedParams
from .qseries import phi43_terminating_exact
from .report import TOLERANCES, CheckReport

__all__ = [
    "FAMILIES",
    "QRacahParams",
    "ContiguityCoefficients",
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
            if not math.isfinite(value):
                raise InvalidParameterRegime(f"parameter {name} must be finite, got {value!r}")
        if not 0.0 < self.q < 1.0:
            raise InvalidParameterRegime(
                f"q must lie strictly inside (0, 1), got {self.q!r}"
            )

    def as_tuple(self):
        return (self.a, self.b, self.c, self.N, self.q)


def qracah_eval(i, x, params):
    """Evaluate the degree-``i`` q-Racah polynomial at grid point ``x``.

    Defined as the terminating series with numerator parameters
    ``(a b q^{i+1}, q^{-x}, c q^{x-N})``, denominator parameters
    ``(a q, b c q, q^{-N})`` and argument ``q``.  ``x`` may lie off the
    integer grid (the series is defined for any real ``x``); ``i`` must stay
    within ``0..N`` for the series to make sense.

    The series arguments are formed from the (exactly represented) float
    parameters as :class:`fractions.Fraction`; an integer-valued ``x`` is
    passed as an ``int``, so ``q^{-x}`` stays exact on the grid, while an
    off-grid ``x`` makes the two ``x``-dependent arguments floats.  The value
    is the one entry of a 1 x 1 grid of
    :func:`~xychain.qseries.phi43_terminating_exact`: the float the exact sum
    of those arguments rounds to, so it stays accurate at degrees where
    direct float accumulation would lose many digits to cancellation.
    """
    a, b, c, N, q = params.as_tuple()
    if not 0 <= i <= N:
        raise ValueError(f"polynomial degree must satisfy 0 <= i <= N={N}, got {i}")
    a, b, c, q = (Fraction(v) for v in (a, b, c, q))
    x = int(x) if float(x).is_integer() else x
    # range() yields a numpy degree as a Python int, which Fraction powers need
    (grid,) = phi43_terminating_exact([_series_args(a, b, c, N, q, range(i, i + 1), [x])], q, q)
    if isinstance(grid, Exception):
        raise grid
    return float(grid[0, 0])


def _series_args(a, b, c, N, q, degrees, xs):
    """Series parameters of the ``degrees`` at the points ``xs``, in the
    evaluator's ``(rows, columns)`` form.

    Each row is a degree ``i`` and its numerator parameter ``a b q^{i+1}``;
    each column is a point's numerator parameters ``(q^{-x}, c q^{x-N})``
    followed by the denominator parameters ``(a q, b c q, q^{-N})``, which
    are formed once and added to every column.  The parameters are
    ``Fraction``s, shared by :func:`qracah_eval` and the grids.
    """
    rows = [(i, a * b * q ** (i + 1)) for i in degrees]
    den = (a * q, b * c * q, q ** (-N))
    columns = [(q ** (-x), c * q ** (x - N), *den) for x in xs]
    return rows, columns


class _Points:
    """Parameter points of one degree ``N``: ``columns`` holds ``a, b, c, q``
    as an ``(S, 4)`` float array, and ``a``, ``b``, ``c``, ``q`` are its
    ``(S, 1)`` columns.

    The screens and the coefficient tables run on every point of a block in
    one numpy pass; a block of one is a single point.  A scan builds its
    block from the drawn columns and forms a :class:`QRacahParams` only for
    a point it keeps (:meth:`params`).  ``q_pow[:, m]`` is ``q**m`` for
    ``m = 0..2N+2``, a Python float power formed once per distinct ``q``,
    never numpy's ``power``, which differs from it in the last bit for about
    5 % of ``q``.  A shifted block shares the powers of its base block
    (``q`` does not shift).
    """

    def __init__(self, N, columns, q_pow=None):
        self.N = N
        self.columns = np.asarray(columns, dtype=float).reshape(-1, 4)
        self.a, self.b, self.c, self.q = (self.columns[:, k : k + 1] for k in range(4))
        if q_pow is None:
            powers = {}
            for value in self.columns[:, 3].tolist():
                if value not in powers:
                    powers[value] = [value**m for m in range(2 * N + 3)]
            q_pow = np.array([powers[value] for value in self.columns[:, 3].tolist()])
        self.q_pow = q_pow

    @classmethod
    def of(cls, points):
        """The block of the :class:`QRacahParams` ``points``, which share ``N``."""
        points = list(points)
        return cls(points[0].N, [(p.a, p.b, p.c, p.q) for p in points])

    def __len__(self):
        return len(self.columns)

    def as_tuple(self):
        return (self.a, self.b, self.c, self.N, self.q)

    def params(self, s):
        """Point ``s`` as a :class:`QRacahParams`."""
        a, b, c, q = self.columns[s].tolist()
        return QRacahParams(a, b, c, self.N, q)


class _Reasons:
    """Why each point of a block was refused, kept as arrays.

    ``screen[s]`` is ``0`` while point ``s`` has passed every screen,
    otherwise the index into ``screens`` of the first screen it failed.
    ``screens[i]`` is that screen's ``(make, hits)``, with ``screens[0]`` a
    placeholder.  The error is formed only where a reason is read
    (:meth:`error`), as ``make(s, k)`` with ``k`` the first ``True`` column
    of row ``s`` of ``hits``, so a scan that only keeps its survivors forms
    none.
    """

    def __init__(self, size):
        self.screen = np.zeros(size, dtype=int)
        self.screens = [None]

    def __len__(self):
        return len(self.screen)

    def passed(self):
        """Boolean mask of the points no screen has refused."""
        return self.screen == 0

    def error(self, s):
        """The error of the first screen point ``s`` failed, or ``None``."""
        screen = self.screen[s]
        if not screen:
            return None
        make, hits = self.screens[screen]
        return make(s, int(hits[s].argmax()))

    def raise_error(self):
        """Raise the error of a block of one point, if it has one."""
        error = self.error(0)
        if error is not None:
            raise error


def _reject(reasons, hits, make):
    """Refuse each point of a block that no screen has refused yet and that
    has a ``True`` in its row of ``hits``, with the error ``make(s, k)``,
    ``k`` its first such column.

    ``reasons`` is the block's :class:`_Reasons`, updated in place, so a
    later screen never replaces an earlier one.  Only the screen's index per
    row and its ``(make, hits)`` are stored; ``make`` runs when a reason is
    read.
    """
    hits = hits.reshape(len(reasons), -1)
    if not hits.any():
        return
    reasons.screen[hits.any(axis=1) & reasons.passed()] = len(reasons.screens)
    reasons.screens.append((make, hits))


def _division_by_zero(s, k):
    """The error a Python float division by zero raises, as a screen's
    ``make`` (see :func:`_reject`)."""
    return ZeroDivisionError("float division by zero")


@np.errstate(all="ignore")  # as the Python float arithmetic it replaces
def _denominator_factors(points):
    """Factors that must stay away from zero for series/table evaluation.

    Returns ``(labels, values)``: the series denominators ``(1 - a q^m)``,
    ``(1 - b c q^m)`` for ``m = 1..N`` and the table denominators
    ``(1 - a b q^m)`` for ``m = 0..2N+2``; ``values[s, k]`` is factor
    ``labels[k]`` at point ``s`` of the block ``points``.
    """
    a, b, c, N, q = points.as_tuple()
    q_m = points.q_pow
    labels = [label for m in range(1, N + 1) for label in (f"1 - a q^{m}", f"1 - b c q^{m}")]
    labels += [f"1 - a b q^{m}" for m in range(0, 2 * N + 3)]
    values = np.empty((len(points), len(labels)))
    values[:, 0 : 2 * N : 2] = 1.0 - a * q_m[:, 1 : N + 1]
    values[:, 1 : 2 * N : 2] = 1.0 - b * c * q_m[:, 1 : N + 1]
    values[:, 2 * N :] = 1.0 - a * b * q_m
    return labels, values


@np.errstate(all="ignore")  # as the Python float arithmetic it replaces
def _family_specific_factors(family, points):
    """``(labels, values)`` of the family's own structural factors, as
    :func:`_denominator_factors`."""
    a, b, c, N, q = points.as_tuple()
    if family == "qr13":
        return ["1 - a", "1 - b c"], np.hstack([1.0 - a, 1.0 - b * c])
    return ["a", "b", "1 - a", "1 - b c q"], np.hstack([a, b, 1.0 - a, 1.0 - b * c * q])


def _base_factors(family, points):
    """Family and base denominator factors, the ones
    :func:`contiguity_coefficients` needs nonzero."""
    labels, values = _family_specific_factors(family, points)
    more_labels, more_values = _denominator_factors(points)
    return labels + more_labels, np.hstack([values, more_values])


def _check_family(family):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def _shift_map(family, a, b, c, q, q2):
    """Family shift map ``(a, b, c) -> (x_shift, a', b', c')``; ``q2`` is
    ``q**2``.

    Generic over the number type, so the float and the exact-rational routes
    apply the same formula.  The float route passes each point's Python
    float ``q**2``, as the per-point map had it.
    """
    if family == "qr13":
        return 1, a / q, b * q, c / q2
    return 0, a / q, b * q, c


@np.errstate(all="ignore")  # the failures are the points' reasons
def _shift_block(family, points):
    """Row-wise :func:`shift_params` over the block ``points``.

    Returns ``(x_shift, shifted, factors, reasons)``: the grid shift, the
    shifted points as a block, their :func:`_denominator_factors` and the
    block's :class:`_Reasons`, which holds the error :func:`shift_params`
    raises for each point.  The map runs on the columns, with the errors
    the Python float map gave: ``ZeroDivisionError`` where ``q**2``
    underflows to zero, then :class:`InvalidShiftedParams` for the first
    shifted parameter that is not finite.
    """
    a, b, c, N, q = points.as_tuple()
    q2 = points.q_pow[:, 2:3]
    x_shift, *mapped = _shift_map(family, a, b, c, q, q2)
    reasons = _Reasons(len(points))
    if family == "qr13":
        _reject(reasons, q2 == 0.0, _division_by_zero)
    shifted = _Points(N, np.concatenate([*mapped, q], axis=1), points.q_pow)

    def not_finite(s, k):
        name = "abc"[k]
        cause = InvalidParameterRegime(
            f"parameter {name} must be finite, got {shifted.columns[s, k].item()!r}"
        )
        error = InvalidShiftedParams(f"shifted parameters invalid: {cause}")
        error.__cause__ = cause
        return error

    _reject(reasons, ~np.isfinite(shifted.columns[:, :3]), not_finite)
    labels, values = factors = _denominator_factors(shifted)
    _reject(reasons, values == 0.0, lambda s, k: InvalidShiftedParams(
        f"shifted parameters make denominator factor ({labels[k]}) vanish"
    ))
    return x_shift, shifted, factors, reasons


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
    x_shift, shifted, _, reasons = _shift_block(family, _Points.of([params]))
    reasons.raise_error()
    return x_shift, shifted.params(0)


@dataclass
class ContiguityCoefficients:
    """Contiguity data for one family at one parameter point.

    ``phi_plus1_*``, ``phi_0_*``, ``phi_minus1_*`` are arrays over the degree
    index ``i = 0..N``; the suffix ``_plus``/``_minus`` selects which of the
    two three-term relations the coefficient belongs to, and the ``plus1 / 0 /
    minus1`` part is the degree offset of the polynomial it multiplies.
    ``lambda_plus``/``lambda_minus`` are the relation eigenvalues over the
    grid ``x = 0..N``.

    The record is the one input of every later stage: it carries its own
    ``family`` and ``params``.  It holds no polynomial values until
    :attr:`grids` is first read, by the checks that need them
    (:func:`verify_contiguity` and :func:`xychain.chain.build_pq_table`).
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

    @cached_property
    def grids(self):
        """``(base, shifted)`` correctly rounded polynomial grids of this point
        (see :func:`_polynomial_grids`), built once on first use."""
        return _polynomial_grids(self.family, self.params)

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


def _raw_tables(family, points, reasons):
    """Evaluate the printed coefficient tables of the block ``points``.

    Vectorized over the points (rows) and over ``i`` and ``x`` (columns):
    each table is an ``(S, N+1)`` array.  The powers ``q^N`` and ``q^(N+1)``
    of the qr24 sum-rule heads ``lambda_plus(0)``, ``lambda_minus(0)`` come
    from ``points.q_pow``, so every entry is the float the per-point Python
    evaluation gives.  Where a head's divisor is zero that evaluation raised
    ``ZeroDivisionError``; ``reasons`` (a :class:`_Reasons`) records it for
    the point.
    """
    a, b, c, N, q = points.as_tuple()
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
        q_N, q_N1 = points.q_pow[:, N : N + 1], points.q_pow[:, N + 1 : N + 2]
        head_p, head_m = a * (1 - a), b * q * (1 - b * c * q)
        _reject(reasons, (head_p == 0.0) | (head_m == 0.0), _division_by_zero)
        lam0_p = (1 - a) * (c - a * q_N) / head_p
        lam0_m = (1 - b * c * q) * (1 - b * q_N1) / head_m
        lam_p = (1 - a * q**x) * (c - a * q ** (N - x)) / (a * (1 - a))
        lam_m = (1 - b * c * q ** (x + 1)) * (1 - b * q ** (N - x + 1)) / (b * q * (1 - b * c * q))
        up_p = (
            -(q_N - q**i)
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
        mid_p = lam0_p - up_p - dn_p
        up_m = (
            (1 - a * q**i)
            * (1 - a * q ** (i + 1))
            * (1 - ab * q ** (i + 1))
            * (q**i - q_N)
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
    in :func:`xychain.chain.analytic_spectrum`).  ``params`` is one
    :class:`QRacahParams`, or a block of points whose parameters are
    ``(S, 1)`` columns, for which the result has one row per point.
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
    """Polynomial values on the base and shifted grids of one point.

    Returns ``(base, shifted)`` where ``base[i, x] = R_i(x)`` at the base
    parameters and ``shifted[i, x] = R_i(x + x_shift)`` at the shifted
    parameters, for ``i, x = 0..N``: :func:`_grid_pairs` on a block of one,
    after :func:`shift_params` has checked the shifted regime.  Raises what
    building the pair raises.
    """
    shift_params(family, params)
    (pair,) = _grid_pairs(family, [params])
    if isinstance(pair, Exception):
        raise pair
    return pair


def _grid_pairs(family, points):
    """The ``(base, shifted)`` polynomial grids of each of ``points``, or
    the exception building them raises.

    The points share ``N``, and each has a valid shifted regime (the screen
    of :func:`~xychain.qracah._shift_block` or :func:`shift_params` has
    checked it).  The parameter shift and the series arguments are formed in
    exact rational arithmetic from the (exactly represented) float
    parameters, and every entry is the float its exact sum rounds to, proved
    by :func:`~xychain.qseries.phi43_terminating_exact`.  This matters twice
    over: the relation residuals computed from these grids compare the base
    and shifted families, which is an identity only when the shifted
    parameters are *exactly* ``(a/q, bq, ...)`` of the base ones, and the
    alternating series itself loses digits to cancellation as the degree
    grows (visible from N ~ 7 in direct float accumulation).

    Each series argument is formed once: the row parameter per degree, the
    two ``x``-dependent parameters per grid point ``x`` and the denominator
    parameters per grid.  A point's two grids are one evaluator grid: the
    shift map keeps ``a b``, so the two families share the rows ``(i, a b
    q^(i+1))``, and the columns are the base grid points followed by the
    shifted ones, each carrying its family's denominator parameters.  The
    points that share ``q`` are one evaluator block, in the order given.
    Every value is proved, so every entry is bit for bit the value a lone
    :func:`qracah_eval` call gives.  When entries of a point fail, the first
    failing entry in row order gives its exception, base columns before
    shifted ones; the other points are built as on their own.
    """
    blocks = {}
    for s, params in enumerate(points):
        blocks.setdefault(params.q, []).append(s)
    pairs = [None] * len(points)
    for q, block in blocks.items():
        q = Fraction(q)
        grids = phi43_terminating_exact((_series_grid(family, points[s], q) for s in block), q, q)
        for s, grid in zip(block, grids):
            width = points[s].N + 1
            pairs[s] = grid if isinstance(grid, Exception) else (grid[:, :width], grid[:, width:])
    return pairs


def _series_grid(family, params, q):
    """The evaluator grid of one point's grid pair (see :func:`_grid_pairs`)
    at its exact ``q``."""
    a, b, c = (Fraction(v) for v in (params.a, params.b, params.c))
    x_shift, sa, sb, sc = _shift_map(family, a, b, c, q, q**2)
    width = params.N + 1
    rows, columns = _series_args(a, b, c, params.N, q, range(width), range(width))
    # a b, and with it every row, is the same in both families
    _, shifted = _series_args(sa, sb, sc, params.N, q, (), range(x_shift, x_shift + width))
    return rows, columns + shifted


def _three_term_residual(lhs, mid, up, dn, table, floor):
    """Elementwise relative residual of a three-term identity on a grid.

    Row ``i`` of the right-hand side is ``mid[i] table[i] + up[i] table[i+1]
    + dn[i-1] table[i-1]``, out-of-range terms absent (``up`` and ``dn`` have
    one entry fewer than ``mid``).  Returns ``|lhs - rhs| / max(|lhs|, largest
    single right-hand term, floor)``; shared with the P/Q recurrences.
    """
    rhs = mid[:, None] * table
    scale = np.maximum(np.abs(lhs), np.abs(rhs))
    contrib = up[:, None] * table[1:]
    rhs[:-1] += contrib
    scale[:-1] = np.maximum(scale[:-1], np.abs(contrib))
    contrib = dn[:, None] * table[:-1]
    rhs[1:] += contrib
    scale[1:] = np.maximum(scale[1:], np.abs(contrib))
    return np.abs(lhs - rhs) / np.maximum(scale, floor)


def _relation_residuals(coeffs, base, shifted):
    """Elementwise relative residuals of the two three-term relations.

    Returns two ``(N+1, N+1)`` arrays indexed ``[i, x]``.  Boundary terms with
    out-of-range degree carry identically vanishing coefficients and are
    omitted (never evaluating a degree ``N+1`` polynomial).
    """
    res_plus = _three_term_residual(
        coeffs.lambda_plus[None, :] * base, coeffs.phi_0_plus,
        coeffs.phi_plus1_plus[:-1], coeffs.phi_minus1_plus[1:], shifted, _RESIDUAL_FLOOR,
    )
    res_minus = _three_term_residual(
        coeffs.lambda_minus[None, :] * shifted, coeffs.phi_0_minus,
        coeffs.phi_plus1_minus[:-1], coeffs.phi_minus1_minus[1:], base, _RESIDUAL_FLOOR,
    )
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


@np.errstate(all="ignore")  # a non-finite entry is reported as the point's error
def _contiguity_block(family, points, factors, reasons):
    """Row-wise :func:`contiguity_coefficients` over the block ``points``.

    ``factors`` are the block's :func:`_base_factors`.  Records in
    ``reasons`` (a :class:`_Reasons`) the error ``contiguity_coefficients``
    raises for each point and returns the tables as ``(S, N+1)`` arrays.
    """
    labels, values = factors
    _reject(reasons, values == 0.0, lambda s, k: InvalidParameterRegime(
        f"denominator factor ({labels[k]}) vanishes"
    ))
    tables = _raw_tables(family, points, reasons)
    names = list(tables)
    finite = np.isfinite(np.stack(list(tables.values()), axis=1)).all(axis=2)
    _reject(reasons, ~finite, lambda s, k: InvalidParameterRegime(
        f"coefficient table {names[k]} has non-finite entries"
    ))
    return tables


def _record(family, params, tables, s):
    """The :class:`ContiguityCoefficients` of row ``s`` of block ``tables``."""
    return ContiguityCoefficients(
        family=family, params=params, **{name: table[s] for name, table in tables.items()}
    )


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
    points = _Points.of([params])
    reasons = _Reasons(1)
    tables = _contiguity_block(family, points, _base_factors(family, points), reasons)
    reasons.raise_error()
    return _record(family, params, tables, 0)


def verify_contiguity(coeffs, tolerances=TOLERANCES):
    """Certify the contiguity data against direct polynomial evaluation.

    Evaluates both three-term relations at every grid point ``(i, x)`` on the
    correctly rounded polynomial grids ``coeffs.grids``, plus the eight-factor
    consistency ratio, and returns a :class:`CheckReport`.  Reads
    ``tolerances["relation"]`` and ``tolerances["constraint"]``.
    """
    mask = _boundary_mask(coeffs.family, coeffs.params.N)
    note = "" if mask.all() else "corner (i,x)=(N,N) excluded; weighted by lambda_minus(N)=0"
    report = CheckReport(title=f"contiguity {coeffs.family} {coeffs.params.as_tuple()}")
    for name, res in zip(("relation-plus", "relation-minus"),
                         _relation_residuals(coeffs, *coeffs.grids)):
        report.add(name, float(np.max(res[mask])), tolerances["relation"], note)
    report.add("constraint-ratio", coeffs.constraint_ratio_deviation(), tolerances["constraint"])
    return report
