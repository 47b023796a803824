"""Basic q-series building blocks.

Provides the one terminating balanced ``4phi3`` evaluator,
:func:`phi43_terminating_exact`, which returns the float that the exact sum
rounds to, so catastrophic cancellation in the alternating sum never
contaminates downstream certifications.  It carries the sum in stdlib
:mod:`decimal` at ``p`` significant digits together with a running bound on
the sum's error (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., sections 3.1 and 3.3).  A sum is accepted when every real within
that bound of it rounds to one float, which is then proved to be the float
the exact sum rounds to; otherwise ``p`` doubles, from :data:`START_DIGITS`
up to :data:`PRECISION_CAP`.  What needs exact values (where the series
ends, vanishing denominators, a sum that is exactly zero or exactly halfway
between two floats) is decided on the exact arguments.

The term ratio of step ``k`` is a product of three runs over ``k``, and the
sums of one grid of polynomial values share them.  Inside a
:func:`_shared_factor_runs` block (one grid build) each run is computed once
per precision and read by every sum that needs it: the heads ``(1 - q^(k-i))
(1 - a1 q^k)`` once per degree and first numerator parameter, the columns
``(1 - a2 q^k) (1 - a3 q^k)`` once per pair of other numerator parameters
(one grid column, up to where one of them ends its series), and the
quotients ``z / ((1 - q^(k+1)) (1 - b1 q^k) (1 - b2 q^k) (1 - b3 q^k))``
once per denominator triple and argument.  Every run entry carries a bound
on its relative error, and a run keeps the running sums of those bounds, so
the bound of a whole sum costs a few operations.
The runs die with the block; a call outside one has runs of its own.
"""

import contextlib
import contextvars
import decimal
import math
from collections import namedtuple
from fractions import Fraction

from .errors import ConvergenceFailure, DenominatorVanishes

__all__ = [
    "phi43_terminating_exact",
]

#: Significant decimal digits of the first decimal sum.
START_DIGITS = 40
#: Most significant decimal digits any sum is carried at; a series that has
#: no proved float by then raises :class:`ConvergenceFailure`.
PRECISION_CAP = 2560

#: A sum whose first-order relative error bound is not below this is not
#: proved.  Below it the higher-order terms add less than 1e-5 of the bound,
#: which :data:`_SLACK` covers with room to spare.
_BOUND_LIMIT = decimal.Decimal("1e-6")
_SLACK = decimal.Decimal("1.0001")
#: Significant digits of the error bounds, which are always rounded upward.
_BOUND_DIGITS = 9
_INFINITY = decimal.Decimal("Infinity")


def phi43_terminating_exact(i, num_params, den_params, q, z):
    """The float nearest to the exact value of the terminating 4phi3 sum

        sum_{k=0}^{i} [ (q^{-i};q)_k (a1;q)_k (a2;q)_k (a3;q)_k /
                        ( (q;q)_k (b1;q)_k (b2;q)_k (b3;q)_k ) ] z^k.

    The series terminates because of the ``q^{-i}`` numerator parameter,
    which is supplied through ``i`` and never passed explicitly.  The
    arguments may be floats or :class:`fractions.Fraction`, and both are read
    exactly as integer ratios.  The decisions that need exact values are
    taken on those integers: where a numerator factor ends the series and
    whether a denominator factor vanishes before that.  A factor that merely
    rounds to zero in a decimal sum therefore neither stops the series nor
    raises.

    The sum ``S`` is accumulated by successive term ratios in :mod:`decimal`
    at ``p`` significant digits, starting at :data:`START_DIGITS`, and with
    it a bound ``E >= |S - exact sum|``: the first-order relative error bound
    of the last term plus that of the summation, times ``sum |term_k|`` and
    a slack for the higher-order terms, rounded upward.  Every rounding
    counts ``u = 10^(1-p) / 2``, and the error a factor ``1 - m`` inherits
    from ``m`` is scaled by its condition ``|m| / |1 - m|``.  ``S`` is
    accepted when the two ends of ``[S - E, S + E]``, rounded outward,
    convert to the same float bit for bit (so ``-0.0`` and ``0.0`` differ);
    rounding to nearest is monotone, so the exact sum rounds to that float
    too.  A bound that is infinite (a
    factor rounded to zero) or not below 1e-6 proves nothing.  Otherwise
    ``p`` doubles.  No interval around an exact zero, or around an exact tie
    halfway between two floats, converts to one float, so a series that no
    sum within :data:`PRECISION_CAP` digits proves is summed exactly: a zero
    is ``0.0`` and a tie rounds to even.  When every argument is a decimal of
    at most ``p`` digits (its conversion leaves the context's ``Inexact``
    flag clear), the exact sum is cheap, and a sum refused at ``p`` digits
    whose exact value is a zero or a tie is decided at ``p`` rather than at
    the cap.

    Inside a :func:`_shared_factor_runs` block the sum reads the runs it
    shares with the other sums of the block.

    Parameters
    ----------
    i : int
        Termination degree (``q^{-i}`` numerator parameter); must be >= 0.
    num_params : sequence of 3 floats or Fractions
        The remaining numerator parameters ``(a1, a2, a3)``.
    den_params : sequence of 3 floats or Fractions
        Denominator parameters ``(b1, b2, b3)``.
    q : float or Fraction
        Base, required strictly inside (0, 1).
    z : float or Fraction
        Argument.

    Returns
    -------
    float

    Raises
    ------
    DenominatorVanishes
        If a denominator factor ``(1 - b_j q^k)`` is exactly zero at a term
        that is still being accumulated.  If a *numerator* factor vanishes
        first at the same ``k``, the series has already terminated and the
        denominator zero is never touched.
    ConvergenceFailure
        If no sum within :data:`PRECISION_CAP` digits is proved and the exact
        sum is neither zero nor a tie.
    OverflowError
        If the proved sum is too large for a float.
    """
    if i < 0:
        raise ValueError(f"termination degree must be >= 0, got {i}")
    base = _SCOPE.get() or _Base(q.as_integer_ratio(), i)
    # every other argument as the (numerator, denominator) of its exact value
    nums = [v.as_integer_ratio() for v in num_params]
    dens = tuple(v.as_integer_ratio() for v in den_params)
    z = z.as_integer_ratio()
    series = (i, nums, dens, z, base.steps(i, nums, dens))
    digits = START_DIGITS
    while digits <= PRECISION_CAP:
        value = _proved_sum(base.runs(digits), *series)
        if value is None and _exact_decimals(digits, q.as_integer_ratio(), *nums, *dens, z):
            # Arguments that are exact decimals at these digits have a cheap
            # exact sum; a zero or a tie, which no wider sum proves either,
            # is decided by it here rather than at the cap.
            exact = _exact_sum(base.runs(None), *series)
            if exact == 0 or _is_tie(exact):
                value = float(exact)
        if value is not None:
            if math.isinf(value):
                raise OverflowError("series sum too large for a float")
            return value
        digits *= 2
    exact = _exact_sum(base.runs(None), *series)
    if exact == 0 or _is_tie(exact):
        return float(exact)
    raise ConvergenceFailure(
        f"4phi3 sum of degree {i} has no checked float within the precision "
        f"cap of {PRECISION_CAP} significant digits"
    )


def _series_runs(runs, i, nums, dens, z):
    """The head, column and quotient runs of one series."""
    a1, a2, a3 = nums
    return runs.head(i, a1), runs.column(a2, a3), runs.quotient(dens, z)


def _terms(runs, head, column, quotient, steps):
    """Terms of the 4phi3 sum, the leading 1 first: the one term recurrence,
    generic over the number type of the ``runs`` (Decimal for the proved
    sums, Fraction for the exact sum at the cap).  Three multiplications a
    step.

    The loop runs the ``steps`` decided beforehand on the exact arguments
    (see :meth:`_Base.steps`), so a factor that only rounds to zero neither
    stops it nor raises.
    """
    term = runs.powers[0]
    yield term
    for h, c, d in zip(head.values[:steps], column.values, quotient.values):
        term *= h * c * d
        yield term


def _proved_sum(runs, i, nums, dens, z, steps):
    """The float the exact sum rounds to, as the sum over the decimal
    ``runs`` at their digits proves it, or ``None`` if it does not."""
    head, column, quotient = _series_runs(runs, i, nums, dens, z)
    with decimal.localcontext(runs.context):
        terms = list(_terms(runs, head, column, quotient, steps))
        total = sum(terms)
    # Term k carries the run bounds of steps < k and three roundings a step;
    # the running sum adds at most one rounding a step to every term.
    with decimal.localcontext(runs.up):
        bound = (head.bounds[steps] + column.bounds[steps] + quotient.bounds[steps]
                 + steps * runs.four_units)
        if not bound < _BOUND_LIMIT:
            return None
        error = sum(map(decimal.Decimal.copy_abs, terms)) * bound * _SLACK
    low = float(runs.floor.subtract(total, error))
    high = float(runs.ceiling.add(total, error))
    if low == high and math.copysign(1.0, low) == math.copysign(1.0, high):
        return low
    return None


def _exact_sum(runs, i, nums, dens, z, steps):
    """The exact sum: the one term loop over ``Fraction`` runs.  Only a
    series that reached the precision cap is asked."""
    return sum(_terms(runs, *_series_runs(runs, i, nums, dens, z), steps))


def _exact_decimals(digits, *ratios):
    """Whether every ``numerator / denominator`` of ``ratios`` is a decimal
    of at most ``digits`` significant digits: its division leaves the
    context's ``Inexact`` flag clear."""
    context = _context(digits)
    for n, d in ratios:
        context.divide(n, d)
    return not context.flags[decimal.Inexact]


def _is_tie(exact):
    """Whether ``exact`` lies halfway between two adjacent floats, where no
    interval around it converts to one float."""
    nearest = float(exact)
    other = math.nextafter(nearest, math.inf if exact > nearest else -math.inf)
    return 2 * exact == Fraction(nearest) + Fraction(other)


#: The :class:`_Base` of the enclosing :func:`_shared_factor_runs` block, if
#: any.  A context variable, so that each sum of a grid is still one call of
#: :func:`phi43_terminating_exact` with its own arguments and no more.
_SCOPE = contextvars.ContextVar("phi43_factor_runs", default=None)


@contextlib.contextmanager
def _shared_factor_runs(q, n):
    """Let the 4phi3 sums evaluated inside this block share their factor runs.

    Meant for one grid build: every sum in the block must be in base ``q``
    and have degree at most ``n``, which is the length of the runs.  The runs
    are dropped when the block ends, so no state outlives it.
    """
    token = _SCOPE.set(_Base(q.as_integer_ratio(), n))
    try:
        yield
    finally:
        _SCOPE.reset(token)


class _Base:
    """What the sums of one scope (a grid build, or a single sum) share: the
    exact powers ``q^k = qn^k / qd^k`` for ``k <= length`` of the base ``q``,
    a ``(numerator, denominator)`` pair inside (0, 1), the termination and
    vanishing steps they decide, and the runs at each precision."""

    def __init__(self, q, length):
        qn, qd = q
        if not 0 < qn < qd:
            raise ValueError(f"q must lie strictly inside (0, 1), got {qn / qd}")
        self.powers = [(1, 1)]
        for _ in range(length):
            n, d = self.powers[-1]
            self.powers.append((n * qn, d * qd))
        # 1 - p q^k with p = n/d vanishes exactly when n qn^k == d qd^k.  Both
        # pairs are in lowest terms with positive denominators, so that is
        # (n, d) == (qd^k, qn^k): the parameter that vanishes at step k.
        self._vanishes_at = {(d, n): k for k, (n, d) in enumerate(self.powers[:length])}
        self._runs = {}

    def steps(self, i, nums, dens):
        """Steps of the series loop before a numerator factor ends it.

        The factors ``1 - q^(k-i)`` and ``1 - q^(k+1)`` never vanish inside
        the loop.  Raises :class:`DenominatorVanishes` with the ``k`` and
        parameter of the first denominator factor that vanishes exactly
        before the series ends.
        """
        vanishes_at = self._vanishes_at
        steps = min(i, *(vanishes_at.get(p, i) for p in nums))
        zeros = [(vanishes_at[p], p) for p in dens if vanishes_at.get(p, steps) < steps]
        if zeros:
            k, (n, d) = min(zeros)
            raise DenominatorVanishes(k, n / d)
        return steps

    def runs(self, digits):
        """The :class:`_Runs` at ``digits`` digits, or in ``Fraction``
        arithmetic for ``digits=None``."""
        runs = self._runs.get(digits)
        if runs is None:
            runs = self._runs[digits] = _Runs(digits, self.powers, self._vanishes_at)
        return runs


def _context(digits, rounding=decimal.ROUND_HALF_EVEN):
    """A decimal context with the widest exponent range.  No value formed
    from float or ``Fraction`` arguments by a feasible number of steps comes
    near its ends, so no result is subnormal and every rounding is relative;
    overflow and division by zero still raise."""
    return decimal.Context(prec=digits, rounding=rounding,
                           Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


#: A run over ``k``: ``values[k]`` and ``bounds[k]``, an upper bound on the
#: sum of the relative error bounds of ``values[:k]``.
_Run = namedtuple("_Run", "values bounds")


class _Runs:
    """Runs over ``k < length`` in one number type, each built on first use;
    ``vanishes_at`` is :class:`_Base`'s.

    ``context`` is the decimal context of the sums and of every run; for
    ``digits=None`` the runs are ``Fraction``s, and their bounds are 0
    because nothing rounds.  Parameters are ``(numerator, denominator)``
    pairs, and each parameter, ``q^k`` and ``q^-k`` is one correctly rounded
    ``context.divide`` of exact integers (or a ``Fraction``): one rounding
    each.  ``up`` rounds the bounds upward; ``floor`` and ``ceiling`` round
    the ends of a sum's interval outward.
    """

    def __init__(self, digits, powers, vanishes_at):
        if digits is None:
            self.context, self._number, unit = None, Fraction, 0
        else:
            self.context = _context(digits)
            self.floor = _context(digits, decimal.ROUND_FLOOR)
            self.ceiling = _context(digits, decimal.ROUND_CEILING)
            self._number = self.context.divide
            unit = decimal.Decimal(5).scaleb(-digits)
        self.up = _context(_BOUND_DIGITS, decimal.ROUND_CEILING)
        self.unit = unit
        self.four_units = 4 * unit
        self._three_units = 3 * unit
        self.powers = [self._number(n, d) for n, d in powers]
        self._inverse_powers = [self._number(d, n) for n, d in powers]
        self._vanishes_at = vanishes_at
        self._values = {}
        self._shared = {}

    def value(self, p):
        """The parameter ``p`` in this number type."""
        value = self._values.get(p)
        if value is None:
            value = self._values[p] = self._number(*p)
        return value

    def _share(self, key, entries):
        """The run ``key``, built from ``entries()``, its ``(value, bound)``
        pairs, when first asked for."""
        run = self._shared.get(key)
        if run is None:
            values, bounds, total = [], [0], 0
            with decimal.localcontext(self.context):
                for value, bound in entries():
                    values.append(value)
                    total = self.up.add(total, bound)
                    bounds.append(total)
            run = self._shared[key] = _Run(values, bounds)
        return run

    def _one_minus(self, m, m_error):
        """``1 - m`` and its bound, for ``m`` within relative ``m_error``:
        one rounding, plus ``m_error`` times the condition ``|m| / |1 - m|``
        (read off the rounded values; the higher-order terms this leaves out
        are in :data:`_SLACK`).  Infinite when ``1 - m`` rounds to zero."""
        f = 1 - m
        if not self.unit:
            return f, 0
        if not f:
            return f, _INFINITY
        condition = self.up.divide(m.copy_abs(), f.copy_abs())
        return f, self.up.fma(m_error, condition, self.unit)

    def _product(self, first, second):
        """The bound of a product of two bounded factors: their bounds and
        one rounding."""
        return self.up.add(self.up.add(first, second), self.unit)

    def head(self, i, a1):
        """``(1 - q^(k-i)) (1 - a1 q^k)`` for ``k < i``."""

        def entries():
            a = self.value(a1)
            for k in range(i):
                f, f_bound = self._one_minus(self._inverse_powers[i - k], self.unit)
                g, g_bound = self._one_minus(a * self.powers[k], self._three_units)
                yield f * g, self._product(f_bound, g_bound)

        return self._share(("head", i, a1), entries)

    def column(self, a2, a3):
        """``(1 - a2 q^k) (1 - a3 q^k)`` up to the first exact zero of either
        factor, where every series of this column has ended."""

        def entries():
            b, c = self.value(a2), self.value(a3)
            length = len(self.powers) - 1
            stop = min(self._vanishes_at.get(a2, length), self._vanishes_at.get(a3, length))
            for qk in self.powers[:stop]:
                f, f_bound = self._one_minus(b * qk, self._three_units)
                g, g_bound = self._one_minus(c * qk, self._three_units)
                yield f * g, self._product(f_bound, g_bound)

        return self._share(("column", a2, a3), entries)

    def quotient(self, dens, z):
        """``z / ((1 - q^(k+1)) (1 - b1 q^k) (1 - b2 q^k) (1 - b3 q^k))``.

        An entry whose denominator is zero is 0 with an infinite bound: no
        sum reaches an exact zero (see :meth:`_Base.steps`), and a sum that
        reaches one that only rounds to zero is not proved."""

        def entries():
            b1, b2, b3 = map(self.value, dens)
            w = self.value(z)
            for qk, qk_next in zip(self.powers, self.powers[1:]):
                den, bound = self._one_minus(qk_next, self.unit)
                for b in (b1, b2, b3):
                    f, f_bound = self._one_minus(b * qk, self._three_units)
                    den, bound = den * f, self._product(bound, f_bound)
                if den:  # z and the division: two roundings
                    yield w / den, self.up.add(bound, 2 * self.unit)
                else:
                    yield den, _INFINITY

        return self._share(("quotient", dens, z), entries)
