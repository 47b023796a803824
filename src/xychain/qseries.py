"""Basic q-series building blocks.

Provides q-Pochhammer symbols and the one terminating balanced ``4phi3``
evaluator, :func:`phi43_terminating_exact`, which returns the float that the
exact sum rounds to, so catastrophic cancellation in the alternating sum
never contaminates downstream certifications.  It carries the sum in stdlib
:mod:`decimal` at a precision it checks itself: accepted only when the
cancellation leaves :data:`GUARD_DIGITS` digits and a sum at twice the digits
rounds to the same float, with the digits doubled up to :data:`PRECISION_CAP`
otherwise.  What needs exact values (where the series ends, vanishing
denominators, an exactly zero sum) is decided on the exact arguments.

The term ratio of step ``k`` is a product of factors ``(1 - p q^k)``, and
the sums of one grid of polynomial values share most of them.  Inside a
:func:`_shared_factor_runs` block (one grid build) each run of factors over
``k`` is computed once per precision and read by every sum that needs it:
the denominator products ``(1 - q^(k+1)) (1 - b1 q^k) (1 - b2 q^k)
(1 - b3 q^k)`` once per denominator triple, the heads ``(1 - q^(k-i))
(1 - a1 q^k)`` once per degree and first numerator parameter, and
``(1 - p q^k)`` once per other numerator parameter.  A run entry is the
decimal operation the term loop would otherwise repeat per sum, in the same
order at the same precision, so sharing changes no bit of any value.  The
runs die with the block; a call outside one has runs of its own.
"""

import contextlib
import contextvars
import decimal
import math
from fractions import Fraction

from .errors import ConvergenceFailure, DenominatorVanishes

__all__ = [
    "q_pochhammer",
    "phi43_terminating_exact",
]

#: Significant decimal digits of the first decimal sum.
START_DIGITS = 40
#: Digits an accepted decimal sum must keep after cancellation.
GUARD_DIGITS = 30
#: Most significant decimal digits any sum is carried at; a series that has
#: no checked float by then raises :class:`ConvergenceFailure`.
PRECISION_CAP = 2560


def q_pochhammer(a, q, k):
    """Finite q-Pochhammer symbol ``(a; q)_k = prod_{l=0}^{k-1} (1 - a q^l)``.

    Parameters
    ----------
    a : float
        Base parameter.
    q : float
        Deformation parameter.
    k : int
        Number of factors; ``k = 0`` gives the empty product 1.
    """
    if k < 0:
        raise ValueError(f"q-Pochhammer order must be >= 0, got {k}")
    out = 1.0
    for l in range(k):
        out *= 1.0 - a * q**l
    return out


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

    The sum itself is accumulated by successive term ratios in
    :mod:`decimal` at ``p`` significant digits, starting at
    :data:`START_DIGITS`.  The ``p``-digit sum is accepted when

    * it is nonzero and keeps at least :data:`GUARD_DIGITS` digits after
      cancellation, ``p - log10(sum |term_k| / |sum term_k|)``, with the
      logarithm bounded above by the decimal exponents' difference plus one;
    * the sum at ``2p`` digits rounds to the same float.

    Otherwise ``p`` doubles.  Agreement of ``p`` and ``2p`` alone is not
    enough: when cancellation eats more digits than both carry, both sums
    come out as the same wrong value (often exactly zero).  A series that no
    pair within :data:`PRECISION_CAP` digits accepts is ``0.0`` if its exact
    sum is zero (no decimal sum of an exact zero keeps any digits).

    Inside a :func:`_shared_factor_runs` block the sum reads the factor runs
    it shares with the other sums of the block; the value is the same bit for
    bit.

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
        If no ``p``, ``2p`` pair within :data:`PRECISION_CAP` digits is
        accepted and the exact sum is not zero.
    OverflowError
        If the accepted sum is too large for a float.
    """
    if i < 0:
        raise ValueError(f"termination degree must be >= 0, got {i}")
    if not 0 < q < 1:
        raise ValueError(f"q must lie strictly inside (0, 1), got {float(q)}")
    # every argument as the (numerator, denominator) of its exact value
    nums = [v.as_integer_ratio() for v in num_params]
    dens = tuple(v.as_integer_ratio() for v in den_params)
    q, z = q.as_integer_ratio(), z.as_integer_ratio()
    series = (i, nums, dens, z, _exact_steps(i, nums, dens, q))
    scope = _SCOPE.get() or _FactorRuns(i)
    digits = START_DIGITS
    value, kept = _decimal_sum(scope.runs(digits, q), *series)
    while 2 * digits <= PRECISION_CAP:
        digits *= 2
        check, check_kept = _decimal_sum(scope.runs(digits, q), *series)
        if kept and check == value:
            if math.isinf(value):
                raise OverflowError("series sum too large for a float")
            return value
        value, kept = check, check_kept
    if _sums_to_zero(scope.runs(None, q), *series):
        return 0.0
    raise ConvergenceFailure(
        f"4phi3 sum of degree {i} has no checked float within the precision "
        f"cap of {PRECISION_CAP} significant digits"
    )


def _exact_steps(i, nums, dens, q):
    """Steps of the series loop before a numerator factor ends it.

    Decided on the exact ``(numerator, denominator)`` pairs by integer
    cross-multiplication: ``1 - p q^k`` with ``p = n/d`` and ``q = qn/qd``
    vanishes exactly when ``n qn^k == d qd^k``.  Both pairs are in lowest
    terms with positive denominators, so that is ``(n, d) == (qd^k, qn^k)``,
    compared without multiplying.  The factors ``1 - q^(k-i)`` and
    ``1 - q^(k+1)`` never vanish inside the loop.  Raises
    :class:`DenominatorVanishes` with the ``k`` and parameter of the first
    denominator factor that vanishes exactly before the series ends.
    """
    (qn, qd), nums, dens = q, set(nums), set(dens)
    qn_k = qd_k = 1
    for k in range(i):
        if (qd_k, qn_k) in nums:
            return k
        if (qd_k, qn_k) in dens:
            raise DenominatorVanishes(k, qd_k / qn_k)
        qn_k *= qn
        qd_k *= qd
    return i


def _sums_to_zero(runs, i, nums, dens, z, steps):
    """Whether the series sums to exactly zero, decided like the steps on
    the exact arguments: the one term loop over ``Fraction`` runs.  Only a
    series that reached the precision cap is asked."""
    return sum(_phi43_terms(runs, i, nums, dens, z, steps)) == 0


def _decimal_sum(runs, i, nums, dens, z, steps):
    """The series summed over the decimal ``runs``, at their digits.

    The arguments are ``(numerator, denominator)`` pairs.  Returns the float
    the sum rounds to and whether the sum is nonzero and keeps
    :data:`GUARD_DIGITS` digits after cancellation.  A factor that rounds to
    zero in a denominator gives ``(nan, False)``.
    """
    with decimal.localcontext(runs.context):
        try:
            terms = list(_phi43_terms(runs, i, nums, dens, z, steps))
        except (decimal.DivisionByZero, decimal.InvalidOperation):
            return math.nan, False
        total = sum(terms)
        magnitude = sum(map(abs, terms))
    lost = magnitude.adjusted() - total.adjusted() + 1
    return float(total), total != 0 and runs.context.prec - lost >= GUARD_DIGITS


def _phi43_terms(runs, i, nums, dens, z, steps):
    """Terms of the 4phi3 sum, the leading 1 first: the one term recurrence,
    generic over the number type of the ``runs`` (Decimal for the checked
    sums, Fraction for the exact zero test).

    The loop runs the ``steps`` decided beforehand on the exact arguments
    (see :func:`_exact_steps`), so a factor that only rounds to zero neither
    stops it nor raises.
    """
    a1, a2, a3 = nums
    head, f2, f3 = runs.head(i, a1), runs.factor(a2), runs.factor(a3)
    den, z = runs.den(dens), runs.value(z)
    term = runs.powers[0]
    yield term
    for k in range(steps):
        term *= head[k] * f2[k] * f3[k] * z / den[k]
        yield term


#: The factor runs of the enclosing :func:`_shared_factor_runs` block, if
#: any.  A context variable, so that each sum of a grid is still one call of
#: :func:`phi43_terminating_exact` with its own arguments and no more.
_SCOPE = contextvars.ContextVar("phi43_factor_runs", default=None)


@contextlib.contextmanager
def _shared_factor_runs(n):
    """Let the 4phi3 sums evaluated inside this block share their factor runs.

    Meant for one grid build: every sum in the block must have degree at most
    ``n``, which is the length of the runs.  The runs are dropped when the
    block ends, so no state outlives it.
    """
    token = _SCOPE.set(_FactorRuns(n))
    try:
        yield
    finally:
        _SCOPE.reset(token)


class _FactorRuns:
    """The factor runs of one scope (a grid build, or a single sum), by
    number type and base; every sum in the scope has degree <= ``length``."""

    def __init__(self, length):
        self.length = length
        self._runs = {}

    def runs(self, digits, q):
        """The :class:`_Runs` of base ``q`` at ``digits`` digits, or in
        ``Fraction`` arithmetic for ``digits=None``."""
        runs = self._runs.get((digits, q))
        if runs is None:
            runs = self._runs[digits, q] = _Runs(digits, q, self.length)
        return runs


class _Runs:
    """Factor runs over ``k < length`` in one number type, each built on
    first use by the operations of the term loop, in its order.

    ``context`` is the decimal context of the sums and of every run
    (``Fraction`` arithmetic ignores it).  Parameters are ``(numerator,
    denominator)`` pairs, converted by ``context.divide`` (or ``Fraction``).
    """

    def __init__(self, digits, q, length):
        self.context = decimal.Context(prec=digits)
        self._number = Fraction if digits is None else self.context.divide
        self._shared = {}
        self._q = self.value(q)
        with decimal.localcontext(self.context):
            # q^k stepped by multiplication from q**0, 1 in q's number type
            qk = self._q**0
            self.powers = [qk]
            for _ in range(length):
                qk = qk * self._q
                self.powers.append(qk)

    def _share(self, key, build):
        run = self._shared.get(key)
        if run is None:
            with decimal.localcontext(self.context):
                run = self._shared[key] = build()
        return run

    def value(self, p):
        """The parameter ``p`` in this number type."""
        return self._share(("value", p), lambda: self._number(*p))

    def den(self, dens):
        """``(1 - q^(k+1)) (1 - b1 q^k) (1 - b2 q^k) (1 - b3 q^k)``."""

        def build():
            b1, b2, b3 = map(self.value, dens)
            return [(1 - qk_next) * (1 - b1 * qk) * (1 - b2 * qk) * (1 - b3 * qk)
                    for qk, qk_next in zip(self.powers, self.powers[1:])]

        return self._share(("den", dens), build)

    def head(self, i, a1):
        """``(1 - q^(k-i)) (1 - a1 q^k)`` for ``k < i``, ``q^(k-i)`` carried
        along from ``q**-i`` like ``q^k``."""

        def build():
            a, run = self.value(a1), []
            q_ki = self._q**-i
            for qk in self.powers[:i]:
                run.append((1 - q_ki) * (1 - a * qk))
                q_ki *= self._q
            return run

        return self._share(("head", i, a1), build)

    def factor(self, p):
        """``1 - p q^k``."""

        def build():
            a = self.value(p)
            return [1 - a * qk for qk in self.powers[:-1]]

        return self._share(("factor", p), build)
