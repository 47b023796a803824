"""Basic q-series building blocks.

Provides q-Pochhammer symbols and a terminating balanced ``4phi3`` evaluator
for float or :class:`fractions.Fraction` arguments.  The exact sum is used
where catastrophic cancellation in the alternating sum would otherwise
contaminate downstream certifications.
"""

import math
from fractions import Fraction

from .errors import DenominatorVanishes

__all__ = [
    "q_pochhammer",
    "phi43_terminating",
    "phi43_terminating_exact",
]


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


def phi43_terminating(i, num_params, den_params, q, z):
    """Terminating basic hypergeometric series 4phi3.

    Evaluates

        sum_{k=0}^{i} [ (q^{-i};q)_k (a1;q)_k (a2;q)_k (a3;q)_k /
                        ( (q;q)_k (b1;q)_k (b2;q)_k (b3;q)_k ) ] z^k

    by accumulating successive term ratios, so each term costs O(1) and no
    large intermediate Pochhammer products are formed.  The series terminates
    because of the ``q^{-i}`` numerator parameter, which is supplied through
    ``i`` and never passed explicitly.

    Accepts float or :class:`fractions.Fraction` arguments: floats give the
    float sum, Fractions the exact sum (see also
    :func:`phi43_terminating_exact`).

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
    float (Fraction for Fraction arguments)

    Raises
    ------
    DenominatorVanishes
        If a denominator factor ``(1 - b_j q^k)`` is exactly zero at a term
        that is still being accumulated.  If a *numerator* factor vanishes
        first at the same ``k``, the series has already terminated and the
        denominator zero is never touched.
    ArithmeticError
        If the sum is not finite as a float.
    """
    total = _phi43(i, num_params, den_params, q, z)
    if not math.isfinite(total):
        raise ArithmeticError(f"series accumulated a non-finite value: {total}")
    return total


def phi43_terminating_exact(i, num_params, den_params, q, z):
    """Exact-rational form of :func:`phi43_terminating`.

    All inputs are converted with :class:`fractions.Fraction` — binary floats
    are represented exactly — and the terminating sum is accumulated without
    any rounding, so the returned ``Fraction`` is the exact value of the
    series at the given (float-valued) parameters.

    The direct float accumulation loses digits to cancellation between large
    alternating terms as the degree grows; callers that feed certification
    residuals (grid evaluations, relation checks) use this form and round
    once at the end.  Same termination and error semantics as the float
    sum.
    """
    nums = [Fraction(v) for v in num_params]
    dens = [Fraction(v) for v in den_params]
    return _phi43(i, nums, dens, Fraction(q), Fraction(z))


def _phi43(i, num_params, den_params, q, z):
    """The 4phi3 loop of both entry points, generic over the number type:
    float arguments give the float sum, Fraction arguments the exact sum."""
    if i < 0:
        raise ValueError(f"termination degree must be >= 0, got {i}")
    if not 0 < q < 1:
        raise ValueError(f"q must lie strictly inside (0, 1), got {float(q)}")
    a1, a2, a3 = num_params
    b1, b2, b3 = den_params
    total = term = q**0  # 1.0, or Fraction(1) for exact arguments
    for k in range(i):
        qk = q**k
        num = (1 - q ** (k - i)) * (1 - a1 * qk) * (1 - a2 * qk) * (1 - a3 * qk)
        if num == 0:
            # a numerator factor hit zero: every later term vanishes too
            break
        factors = (1 - q ** (k + 1), 1 - b1 * qk, 1 - b2 * qk, 1 - b3 * qk)
        den = factors[0] * factors[1] * factors[2] * factors[3]
        if den == 0:
            for p, f in zip((q, b1, b2, b3), factors):
                if f == 0:
                    raise DenominatorVanishes(k, float(p))
        term *= num * z / den
        total += term
    return total
