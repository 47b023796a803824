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
"""

import decimal
import functools
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
    dens = [v.as_integer_ratio() for v in den_params]
    q, z = q.as_integer_ratio(), z.as_integer_ratio()
    series = (i, nums, dens, q, z, _exact_steps(i, nums, dens, q))
    digits = START_DIGITS
    value, kept = _decimal_sum(digits, *series)
    while 2 * digits <= PRECISION_CAP:
        digits *= 2
        check, check_kept = _decimal_sum(digits, *series)
        if kept and check == value:
            if math.isinf(value):
                raise OverflowError("series sum too large for a float")
            return value
        value, kept = check, check_kept
    if _sums_to_zero(*series):
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


def _sums_to_zero(i, nums, dens, q, z, steps):
    """Whether the series sums to exactly zero, decided like the steps on
    the exact arguments: the one term loop in rational arithmetic.  Only a
    series that reached the precision cap is asked."""
    nums = [Fraction(*p) for p in nums]
    dens = [Fraction(*p) for p in dens]
    return sum(_phi43_terms(i, nums, dens, Fraction(*q), Fraction(*z), steps)) == 0


@functools.lru_cache(maxsize=512)
def _decimal_of(numerator, denominator, digits):
    """``numerator / denominator`` rounded to ``digits`` significant digits.

    Cached because a grid passes the same few arguments to all its series.
    """
    return decimal.Context(prec=digits).divide(numerator, denominator)


def _decimal_sum(digits, i, nums, dens, q, z, steps):
    """The series summed at ``digits`` significant digits.

    The arguments are ``(numerator, denominator)`` pairs.  Returns the float
    the sum rounds to and whether the sum is nonzero and keeps
    :data:`GUARD_DIGITS` digits after cancellation.  A factor that rounds to
    zero in a denominator gives ``(nan, False)``.
    """
    nums = [_decimal_of(*p, digits) for p in nums]
    dens = [_decimal_of(*p, digits) for p in dens]
    q, z = _decimal_of(*q, digits), _decimal_of(*z, digits)
    with decimal.localcontext(decimal.Context(prec=digits)):
        try:
            terms = list(_phi43_terms(i, nums, dens, q, z, steps))
        except (decimal.DivisionByZero, decimal.InvalidOperation):
            return math.nan, False
        total = sum(terms)
        magnitude = sum(map(abs, terms))
    lost = magnitude.adjusted() - total.adjusted() + 1
    return float(total), total != 0 and digits - lost >= GUARD_DIGITS


def _phi43_terms(i, num_params, den_params, q, z, steps):
    """Terms of the 4phi3 sum, the leading 1 first: the one term recurrence,
    generic over the number type (Decimal for the checked sums, Fraction for
    the exact zero test).

    The loop runs the ``steps`` decided beforehand on the exact arguments
    (see :func:`_exact_steps`), so a factor that only rounds to zero neither
    stops it nor raises.
    """
    a1, a2, a3 = num_params
    b1, b2, b3 = den_params
    term = qk = q**0  # 1 in the number type of q
    q_ki = q**-i  # q^(k-i), carried along like q^k
    yield term
    for _ in range(steps):
        num = (1 - q_ki) * (1 - a1 * qk) * (1 - a2 * qk) * (1 - a3 * qk)
        qk_next = qk * q
        den = (1 - qk_next) * (1 - b1 * qk) * (1 - b2 * qk) * (1 - b3 * qk)
        term *= num * z / den
        yield term
        qk = qk_next
        q_ki *= q
