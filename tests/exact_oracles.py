"""Exact-rational reference implementations used as test oracles.

Everything here is computed with :class:`fractions.Fraction`, independently of
the package's floating-point code paths, and only converted to ``float`` for
the final comparison.
"""

from fractions import Fraction


def phi43_exact(i, nums, dens, q, z):
    """Terminating basic hypergeometric sum in exact rational arithmetic."""
    nums = [Fraction(v) for v in nums]
    dens = [Fraction(v) for v in dens]
    q, z = Fraction(q), Fraction(z)
    total = Fraction(0)
    term = Fraction(1)
    for k in range(i + 1):
        total += term
        num = (
            (1 - q ** (k - i))
            * (1 - nums[0] * q**k)
            * (1 - nums[1] * q**k)
            * (1 - nums[2] * q**k)
        )
        if num == 0:
            break
        den = (
            (1 - q ** (k + 1))
            * (1 - dens[0] * q**k)
            * (1 - dens[1] * q**k)
            * (1 - dens[2] * q**k)
        )
        term = term * num / den * z
    return total


def qracah_exact(i, x, a, b, c, N, q):
    """q-Racah polynomial value as an exact rational number.

    ``x`` is an integer grid point; parameters are Fractions (or exact ints).
    """
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    return phi43_exact(
        i,
        (a * b * q ** (i + 1), q ** (-x), c * q ** (x - N)),
        (a * q, b * c * q, q ** (-N)),
        q,
        q,
    )


def qracah_grid_by_recurrence(a, b, c, N, q):
    """Base grid ``R_i(x)``, ``i, x = 0..N``, from the three-term recurrence
    in the degree, in exact rational arithmetic.

    Koekoek, Lesky & Swarttouw, *Hypergeometric Orthogonal Polynomials and
    Their q-Analogues* (2010), (14.2.3), with ``alpha = a``, ``beta = b``,
    ``gamma = q^(-N-1)`` and ``delta = c``:

        -(1 - q^-x)(1 - c q^(x-N)) R_n = A_n R_{n+1} - (A_n + C_n) R_n + C_n R_{n-1}.

    It shares no step with the series: no term ratio, no termination.  Its
    coefficients have poles the series does not have, so it is an oracle
    for points away from them, and cheap only for dyadic ``q``.
    """
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    gamma = q ** (-N - 1)
    A, C = [], []
    for n in range(N):
        A.append((1 - a * q ** (n + 1)) * (1 - a * b * q ** (n + 1))
                 * (1 - b * c * q ** (n + 1)) * (1 - gamma * q ** (n + 1))
                 / ((1 - a * b * q ** (2 * n + 1)) * (1 - a * b * q ** (2 * n + 2))))
        C.append(q * (1 - q**n) * (1 - b * q**n) * (gamma - a * b * q**n) * (c - a * q**n)
                 / ((1 - a * b * q ** (2 * n)) * (1 - a * b * q ** (2 * n + 1))))
    grid = [[Fraction(1)] * (N + 1)]
    for n in range(N):
        row = []
        for x in range(N + 1):
            variable = -(1 - q ** (-x)) * (1 - c * q ** (x - N))
            below = grid[n - 1][x] if n else 0
            row.append(((A[n] + C[n] + variable) * grid[n][x] - C[n] * below) / A[n])
        grid.append(row)
    return grid


def shift_exact(family, a, b, c, N, q):
    """Exact-rational version of the family shift map."""
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    if family == "qr13":
        return 1, (a / q, b * q, c / q**2, N, q)
    if family == "qr24":
        return 0, (a / q, b * q, c, N, q)
    raise ValueError(f"unknown family {family!r}")


def relation_residuals_exact(family, params, coeffs):
    """Check the two three-term contiguity relations with exact polynomials.

    The coefficient tables are taken from ``coeffs`` (floats, converted to
    Fractions exactly), while every polynomial value is recomputed in exact
    rational arithmetic.  Returns two ``(N+1) x (N+1)`` nested lists of float
    relative residuals indexed ``[i][x]``; residuals are limited only by the
    float precision of the tables themselves.
    """
    a, b, c, N, q = params.as_tuple()
    a, b, c, q = Fraction(a), Fraction(b), Fraction(c), Fraction(q)
    x_shift, (ab_, bb_, cb_, _, _) = shift_exact(family, a, b, c, N, q)

    base = [
        [qracah_exact(i, x, a, b, c, N, q) for x in range(N + 1)]
        for i in range(N + 1)
    ]
    shifted = [
        [qracah_exact(i, x + x_shift, ab_, bb_, cb_, N, q) for x in range(N + 1)]
        for i in range(N + 1)
    ]

    lam_p = [Fraction(v) for v in coeffs.lambda_plus]
    lam_m = [Fraction(v) for v in coeffs.lambda_minus]
    tables = {
        name: [Fraction(v) for v in getattr(coeffs, name)]
        for name in (
            "phi_plus1_plus",
            "phi_0_plus",
            "phi_minus1_plus",
            "phi_plus1_minus",
            "phi_0_minus",
            "phi_minus1_minus",
        )
    }

    def residual(lhs, terms):
        scale = max([abs(lhs)] + [abs(t) for t in terms] + [Fraction(1, 10**30)])
        return float(abs(lhs - sum(terms)) / scale)

    res_plus = [[0.0] * (N + 1) for _ in range(N + 1)]
    res_minus = [[0.0] * (N + 1) for _ in range(N + 1)]
    for i in range(N + 1):
        for x in range(N + 1):
            terms = [tables["phi_0_plus"][i] * shifted[i][x]]
            if i < N:
                terms.append(tables["phi_plus1_plus"][i] * shifted[i + 1][x])
            if i > 0:
                terms.append(tables["phi_minus1_plus"][i] * shifted[i - 1][x])
            res_plus[i][x] = residual(lam_p[x] * base[i][x], terms)

            terms = [tables["phi_0_minus"][i] * base[i][x]]
            if i < N:
                terms.append(tables["phi_plus1_minus"][i] * base[i + 1][x])
            if i > 0:
                terms.append(tables["phi_minus1_minus"][i] * base[i - 1][x])
            res_minus[i][x] = residual(lam_m[x] * shifted[i][x], terms)
    return res_plus, res_minus
