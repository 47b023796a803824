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

The evaluator has one form, a grid: rows of a degree ``i`` and its ``a1``,
columns of ``(a2, a3, b1, b2, b3)``, and one ``q`` and ``z``; a single sum
is a 1 x 1 grid.  The term ratio of step ``k`` is a product of three runs
over ``k``: the heads ``(1 - q^(k-i)) (1 - a1 q^k)``, once per row, the
columns ``(1 - a2 q^k) (1 - a3 q^k)`` (up to where one of them ends its
series), and the quotients ``z / ((1 - q^(k+1)) (1 - b1 q^k) (1 - b2 q^k)
(1 - b3 q^k))``, each once per call for each distinct pair or triple.  Per
precision the call forms each row's prefix products of its head and each
column's prefix products of its column run times its quotient run once, and
term ``k`` of an entry is the product of its row's and its column's
``k``-th prefix product.  Every run entry carries a bound on its relative
error, and a run keeps the running sums of those bounds, so the bound of a
whole sum costs a few operations.  Only the entries a precision leaves
unproved go on to the next.  The runs live for one call.
"""

import decimal
import math
import operator
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, islice

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


def phi43_terminating_exact(rows, columns, q, z):
    """The grid of floats nearest to the exact values of the terminating
    4phi3 sums

        sum_{k=0}^{i} [ (q^{-i};q)_k (a1;q)_k (a2;q)_k (a3;q)_k /
                        ( (q;q)_k (b1;q)_k (b2;q)_k (b3;q)_k ) ] z^k

    over ``rows`` of ``(i, a1)`` and ``columns`` of ``(a2, a3, b1, b2,
    b3)``, which share ``q`` and ``z``.  A single sum is a 1 x 1 grid.

    The series terminates because of the ``q^{-i}`` numerator parameter,
    which is supplied through ``i`` and never passed explicitly.  The
    parameters may be floats or :class:`fractions.Fraction`, and both are
    read exactly as integer ratios.  The decisions that need exact values are
    taken on those integers, once per grid: where a numerator factor ends
    each row's and each column's series, and whether a column's denominator
    factor vanishes before that.  A factor that merely rounds to zero in a
    decimal sum therefore neither stops the series nor raises.

    Term ``k`` of entry ``(r, c)`` is ``M_r[k] C_c[k]``: the prefix products
    of its row's head factors and of its column's factors times their
    quotients (see :class:`_Runs`), each built once per grid and precision.
    The sum ``S`` of the terms is carried in :mod:`decimal` at ``p``
    significant digits, starting at :data:`START_DIGITS`, and with it a bound
    ``E >= |S - exact sum|``: the first-order relative error bound of the
    last term plus that of the summation, times ``sum |term_k|`` and a slack
    for the higher-order terms, rounded upward.  Every rounding counts
    ``u = 10^(1-p) / 2``, and the error a factor ``1 - m`` inherits from
    ``m`` is scaled by its condition ``|m| / |1 - m|``.  ``S`` is accepted
    when the two ends of ``[S - E, S + E]``, rounded outward, convert to the
    same float bit for bit (so ``-0.0`` and ``0.0`` differ); rounding to
    nearest is monotone, so the exact sum rounds to that float too.  A bound
    that is infinite (a factor rounded to zero) or not below 1e-6 proves
    nothing.  Otherwise that entry, and only it, goes on at ``2 p`` digits.
    No interval around an exact zero, or around an exact tie halfway between
    two floats, converts to one float, so an entry that no sum within
    :data:`PRECISION_CAP` digits proves is summed exactly: a zero is ``0.0``
    and a tie rounds to even.  When every argument of an entry is a decimal
    of at most ``p`` digits (its conversion leaves the context's ``Inexact``
    flag clear), the exact sum is cheap, and an entry refused at ``p`` digits
    whose exact value is a zero or a tie is decided at ``p`` rather than at
    the cap.  Every value is proved, so each grid entry is bit for bit the
    float of its own 1 x 1 grid.

    Parameters
    ----------
    rows : iterable of (int, float or Fraction)
        Per row, the termination degree ``i`` (the ``q^{-i}`` numerator
        parameter, >= 0) and the numerator parameter ``a1``.
    columns : iterable of 5 floats or Fractions
        Per column, the numerator parameters ``(a2, a3)`` and the
        denominator parameters ``(b1, b2, b3)``.
    q : float or Fraction
        Base, required strictly inside (0, 1).
    z : float or Fraction
        Argument.

    Returns
    -------
    list holding a list of floats per row

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

    A grid raises what the first entry that fails, in row order, raises on
    its own.
    """
    # every parameter as the (numerator, denominator) of its exact value
    rows = [(i, a1.as_integer_ratio()) for i, a1 in rows]
    for i, _ in rows:
        if i < 0:
            raise ValueError(f"termination degree must be >= 0, got {i}")
    columns = [tuple(v.as_integer_ratio() for v in column) for column in columns]
    values = _Grid(q.as_integer_ratio(), rows, columns, z.as_integer_ratio()).sums()
    width = len(columns)
    return [values[r * width:(r + 1) * width] for r in range(len(rows))]


class _Grid:
    """The sums of one grid: ``rows`` of ``(i, a1)``, columns of
    ``(a2, a3, b1, b2, b3)``, and the shared ``q`` and ``z``, all exact
    ``(numerator, denominator)`` pairs.  Entry ``e`` is row ``e // width``,
    column ``e % width``.  The grid holds the exact powers ``q^k = qn^k /
    qd^k`` for ``k <= length``, the largest degree, the step at which each
    parameter's factor vanishes, and the runs at each precision; none of it
    outlives the call."""

    def __init__(self, q, rows, columns, z):
        qn, qd = q
        if not 0 < qn < qd:
            raise ValueError(f"q must lie strictly inside (0, 1), got {qn / qd}")
        self.q, self.rows, self.columns, self.z = q, rows, columns, z
        length = max((i for i, _ in rows), default=0)
        self.powers = [(1, 1)]
        for _ in range(length):
            n, d = self.powers[-1]
            self.powers.append((n * qn, d * qd))
        # 1 - p q^k with p = n/d vanishes exactly when n qn^k == d qd^k.  Both
        # pairs are in lowest terms with positive denominators, so that is
        # (n, d) == (qd^k, qn^k): the parameter that vanishes at step k.
        vanishes_at = {(d, n): k for k, (n, d) in enumerate(self.powers[:length])}
        self.vanishes_at = vanishes_at
        self._runs = {}
        # The steps before a numerator factor ends each row's and each
        # column's series; 1 - q^(k-i) and 1 - q^(k+1) never vanish inside.
        self.row_steps = [min(i, vanishes_at.get(a1, i)) for i, a1 in rows]
        self.column_steps = [min(vanishes_at.get(a2, length), vanishes_at.get(a3, length))
                             for a2, a3, *_ in columns]
        self.steps = [min(s, t) for s in self.row_steps for t in self.column_steps]
        self.width = len(columns)

    def runs(self, digits):
        """The :class:`_Runs` at ``digits`` digits, or in ``Fraction``
        arithmetic for ``digits=None``."""
        runs = self._runs.get(digits)
        if runs is None:
            runs = self._runs[digits] = _Runs(digits, self.powers)
        return runs

    def sums(self):
        """Every entry's float, in row order, or the exception of the first
        entry that fails: each entry goes up the digits only while refused."""
        steps, width, z = self.steps, self.width, self.z
        values = [None] * len(steps)
        failures = {}  # entry -> its exception; no entry after the first is summed
        # The first denominator factor of a column that vanishes exactly fails
        # every entry of that column whose series reaches it.
        vanishes_at = self.vanishes_at
        zeros = [min(((vanishes_at[p], p) for p in column[2:] if p in vanishes_at), default=None)
                 for column in self.columns]
        if any(zeros):
            reaches = next((e for e, s in enumerate(steps)
                            if zeros[e % width] and s > zeros[e % width][0]), None)
            if reaches is not None:
                k, (n, d) = zeros[reaches % width]
                failures[reaches] = DenominatorVanishes(k, n / d)

        def settle(entries):
            """Decide each of ``entries`` whose exact sum is a zero or a tie."""
            if not entries:
                return
            row_runs, column_runs = self.prefixes(self.runs(None), entries)
            for e in entries:
                exact = sum(map(operator.mul, row_runs[e // width].values,
                                column_runs[e % width][0].values))
                try:
                    if exact == 0 or _is_tie(exact):
                        values[e] = float(exact)
                except ArithmeticError as exc:
                    failures[e] = exc

        pending = range(min(failures, default=len(steps)))
        digits = START_DIGITS
        while pending and digits <= PRECISION_CAP:
            runs = self.runs(digits)
            refused = []
            with decimal.localcontext(runs.context):
                row_runs, column_runs = self.prefixes(runs, pending)
                for e in pending:
                    value = _proved_sum(runs, row_runs[e // width], *column_runs[e % width],
                                        steps[e])
                    if value is None:
                        refused.append(e)
                    elif math.isinf(value):
                        failures[e] = OverflowError("series sum too large for a float")
                    else:
                        values[e] = value
            if refused and _exact_decimals(digits, self.q, z):
                # Arguments that are exact decimals at these digits have a
                # cheap exact sum; a zero or a tie, which no wider sum proves
                # either, is decided by it here rather than at the cap.
                settle([e for e in refused
                        if _exact_decimals(digits, self.rows[e // width][1],
                                           *self.columns[e % width])])
            first = min(failures, default=len(steps))
            pending = [e for e in refused if values[e] is None and e < first]
            digits *= 2
        settle(pending)
        for e in pending:
            if values[e] is None and e not in failures:
                failures[e] = ConvergenceFailure(
                    f"4phi3 sum of degree {self.rows[e // width][0]} has no checked float "
                    f"within the precision cap of {PRECISION_CAP} significant digits"
                )
        if failures:
            raise failures[min(failures)]
        return values

    def prefixes(self, runs, entries):
        """``(rows, columns)`` at the number type of ``runs`` (in its decimal
        context): by index, the prefix runs of the rows and, with the
        quotient run of their denominators, of the columns that ``entries``
        read.

        ``values[k]`` of a prefix run is the product of the first ``k``
        factors, ``1`` first, up to where the series ends: the head for a
        row, and the column run times its quotient run for a column.  Its
        ``bounds`` are those of the head or of the column run.
        """
        one = runs.powers[0]
        rows, columns = {}, {}
        for e in entries:
            r, c = divmod(e, self.width)
            if r not in rows:
                head = runs.head(*self.rows[r])
                rows[r] = _Run(list(accumulate(islice(head.values, self.row_steps[r]),
                                               operator.mul, initial=one)), head.bounds)
            if c not in columns:
                parameters = self.columns[c]
                column = runs.column(*parameters[:2], self.column_steps[c])
                quotient = runs.quotient(parameters[2:], self.z)
                factors = map(operator.mul, column.values, quotient.values)
                columns[c] = (_Run(list(accumulate(factors, operator.mul, initial=one)),
                                   column.bounds), quotient)
        return rows, columns


def _proved_sum(runs, row, column, quotient, steps):
    """The float the exact sum ``sum_k row.values[k] column.values[k]`` of
    ``steps + 1`` terms rounds to, as its sum at the digits of ``runs``
    proves it, or ``None`` if it does not.  Called in the decimal context of
    ``runs``, which it leaves current."""
    # the shorter prefix run ends at the entry's last term
    terms = list(map(operator.mul, row.values, column.values))
    total = sum(terms)
    context = decimal.getcontext()
    decimal.setcontext(runs.up)  # the bound, rounded upward
    try:
        # Term k carries the run bounds of steps < k and 3k - 1 roundings
        # (k - 1 in its row's prefix product, 2k - 1 in its column's, one in
        # their product), at most three a step; the running sum adds at most
        # one rounding a step to every term.
        bound = (row.bounds[steps] + column.bounds[steps] + quotient.bounds[steps]
                 + steps * runs.four_units)
        if not bound < _BOUND_LIMIT:
            return None
        error = sum(map(decimal.Decimal.copy_abs, terms)) * bound * _SLACK
    finally:
        decimal.setcontext(context)
    low = float(runs.floor.subtract(total, error))
    high = float(runs.ceiling.add(total, error))
    if low == high and math.copysign(1.0, low) == math.copysign(1.0, high):
        return low
    return None


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


def _context(digits, rounding=decimal.ROUND_HALF_EVEN):
    """A decimal context with the widest exponent range.  No value formed
    from float or ``Fraction`` arguments by a feasible number of steps comes
    near its ends, so no result is subnormal and every rounding is relative;
    overflow and division by zero still raise."""
    return decimal.Context(prec=digits, rounding=rounding,
                           Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


#: A run over ``k``: ``values[k]`` and ``bounds[k]``, an upper bound on the
#: sum of the relative error bounds of ``values[:k]``.  A prefix run of
#: :meth:`_Grid.prefixes` holds products of a run's first ``k`` values and
#: keeps that run's bounds.
_Run = namedtuple("_Run", "values bounds")


class _Runs:
    """Runs over ``k < length`` in one number type, each built on first use.

    ``context`` is the decimal context of the sums and of every run; for
    ``digits=None`` the runs are ``Fraction``s, and their bounds are 0
    because nothing rounds.  Parameters are ``(numerator, denominator)``
    pairs, and each parameter, ``q^k`` and ``q^-k`` is one correctly rounded
    ``context.divide`` of exact integers (or a ``Fraction``): one rounding
    each.  ``up`` rounds the bounds upward; ``floor`` and ``ceiling`` round
    the ends of a sum's interval outward.
    """

    def __init__(self, digits, powers):
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

    def column(self, a2, a3, stop):
        """``(1 - a2 q^k) (1 - a3 q^k)`` for ``k < stop``, the step where every
        series of this column ends (:attr:`_Grid.column_steps`)."""

        def entries():
            b, c = self.value(a2), self.value(a3)
            for qk in self.powers[:stop]:
                f, f_bound = self._one_minus(b * qk, self._three_units)
                g, g_bound = self._one_minus(c * qk, self._three_units)
                yield f * g, self._product(f_bound, g_bound)

        return self._share(("column", a2, a3), entries)

    def quotient(self, dens, z):
        """``z / ((1 - q^(k+1)) (1 - b1 q^k) (1 - b2 q^k) (1 - b3 q^k))``.

        An entry whose denominator is zero is 0 with an infinite bound: no
        sum reaches an exact zero (see :class:`_Grid`), and a sum that
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
