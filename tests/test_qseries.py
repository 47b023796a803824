"""Tests for the terminating basic hypergeometric series.

The primary oracle is an exact-rational reimplementation
(:mod:`exact_oracles`); float inputs are converted to Fractions exactly, so
any disagreement beyond accumulated rounding is a real bug.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import phi43_exact
from xychain.errors import DenominatorVanishes
from xychain.qseries import phi43_terminating, q_pochhammer

# (i, numerator params, denominator params, q, z) exercising long products,
# mixed signs, and parameters of magnitude > 1.
ORACLE_CASES = [
    (4, (0.5, -0.75, 2.0), (0.125, 1.5, -5.0), 0.5, 0.5),
    (7, (-0.4, 9.0, 1.0 / 3.0), (4.0 / 7.0, -6.0, 5.5), 0.4, 3.0 / 7.0),
    (12, (1.5, -0.5, 0.625), (0.4375, -2.25, 1.625), 0.625, 1.0 / 3.0),
]

# Same cases frozen as regression pins (validated against the exact oracle).
FROZEN_VALUES = [-4.0, 4037579.0665726066, -16108209.864902496]


class TestAgainstExactRational:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_matches_exact_oracle(self, case):
        i, nums, dens, q, z = case
        exact = float(phi43_exact(i, nums, dens, q, z))
        got = phi43_terminating(i, nums, dens, q, z)
        assert got == pytest.approx(exact, rel=5e-13)

    @pytest.mark.parametrize("case, frozen", list(zip(ORACLE_CASES, FROZEN_VALUES)))
    def test_frozen_regression_values(self, case, frozen):
        got = phi43_terminating(*case)
        assert got == pytest.approx(frozen, rel=1e-12)

    def test_random_parameters_match_oracle(self, rng):
        for _ in range(25):
            i = int(rng.integers(0, 9))
            nums = tuple(rng.uniform(-0.9, 0.9, 3))
            dens = tuple(rng.uniform(-0.45, 0.45, 3))
            q = float(rng.uniform(0.3, 0.9))
            z = float(rng.uniform(-0.9, 0.9))
            exact = float(phi43_exact(i, nums, dens, q, z))
            got = phi43_terminating(i, nums, dens, q, z)
            assert got == pytest.approx(exact, rel=1e-11, abs=1e-11)


class TestStructure:
    def test_degree_zero_is_one(self):
        assert phi43_terminating(0, (0.3, -0.5, 2.0), (0.2, 0.4, 0.6), 0.5, 0.8) == 1.0

    def test_zero_argument_is_one(self):
        assert phi43_terminating(6, (0.3, -0.5, 2.0), (0.2, 0.4, 0.6), 0.5, 0.0) == 1.0

    def test_degree_one_single_step(self):
        nums, dens, q, z = (0.25, -0.5, 0.75), (0.125, 0.375, -0.625), 0.5, 0.5
        expected = 1.0 + (
            (1 - q**-1) * (1 - nums[0]) * (1 - nums[1]) * (1 - nums[2])
            / ((1 - q) * (1 - dens[0]) * (1 - dens[1]) * (1 - dens[2]))
        ) * z
        assert phi43_terminating(1, nums, dens, q, z) == pytest.approx(expected, rel=1e-15)

    def test_vanishing_numerator_truncates_early(self):
        # A numerator parameter equal to q^-2 kills every term with k >= 3, so
        # a denominator zero that would occur at k = 4 is never reached.
        q = 0.5
        value = phi43_terminating(9, (q**-3, 0.3, 0.5), (q**-4, 0.2, 0.1), q, 0.7)
        exact = float(phi43_exact(9, (Fraction(8), Fraction(3, 10), Fraction(1, 2)),
                                  (Fraction(16), Fraction(1, 5), Fraction(1, 10)),
                                  Fraction(1, 2), Fraction(7, 10)))
        assert value == pytest.approx(exact, rel=1e-13)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            phi43_terminating(-1, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3), 0.5, 0.5)
        with pytest.raises(ValueError):
            phi43_terminating(2, (0.1, 0.2, 0.3), (0.1, 0.2, 0.3), 1.5, 0.5)


class TestDenominatorVanishes:
    def test_reports_offending_step_and_parameter(self):
        # With q = 1/2 the denominator factor 1 - 4 * q^k hits exact zero at
        # k = 2 (powers of two are exact in binary floats).
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_terminating(6, (0.3, 0.7, 0.9), (4.0, 0.2, 0.1), 0.5, 0.5)
        assert excinfo.value.k == 2
        assert excinfo.value.param == 4.0

    def test_q_power_denominator_also_detected(self):
        # The (q; q)_k factor itself cannot vanish for 0 < q < 1, but a
        # denominator parameter exactly equal to 1 vanishes at k = 0.
        with pytest.raises(DenominatorVanishes) as excinfo:
            phi43_terminating(3, (0.3, 0.7, 0.9), (1.0, 0.2, 0.1), 0.5, 0.5)
        assert excinfo.value.k == 0


class TestQPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0.7, 0.5, 0) == 1.0

    def test_explicit_small_orders(self):
        a, q = 0.5, 0.25
        assert q_pochhammer(a, q, 1) == pytest.approx(1 - a, rel=1e-15)
        assert q_pochhammer(a, q, 3) == pytest.approx(
            (1 - a) * (1 - a * q) * (1 - a * q**2), rel=1e-15
        )

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            q_pochhammer(0.5, 0.5, -1)

    @given(
        a=st.floats(-2.0, 2.0, allow_nan=False),
        q=st.floats(0.05, 0.95, allow_nan=False),
        k=st.integers(0, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence_property(self, a, q, k):
        longer = q_pochhammer(a, q, k + 1)
        stepped = q_pochhammer(a, q, k) * (1 - a * q**k)
        assert longer == pytest.approx(stepped, rel=1e-12, abs=1e-300)


class TestIndexArgumentSymmetry:
    """The sum is symmetric under swapping the termination index ``i`` with a
    numerator parameter ``q^-x`` for integer ``x``: both series run over
    ``k <= min(i, x)`` with identical factors."""

    @given(
        i=st.integers(0, 8),
        x=st.integers(0, 8),
        a1=st.floats(-0.9, 0.9, allow_nan=False),
        a2=st.floats(-0.9, 0.9, allow_nan=False),
        d=st.tuples(
            st.floats(-0.45, 0.45, allow_nan=False),
            st.floats(-0.45, 0.45, allow_nan=False),
            st.floats(-0.45, 0.45, allow_nan=False),
        ),
        q=st.floats(0.4, 0.9, allow_nan=False),
        z=st.floats(-0.9, 0.9, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_swap_index_with_numerator_power(self, i, x, a1, a2, d, q, z):
        first = phi43_terminating(i, (a1, q ** (-x), a2), d, q, z)
        second = phi43_terminating(x, (a1, q ** (-i), a2), d, q, z)
        scale = max(1.0, abs(first), abs(second))
        assert abs(first - second) <= 1e-7 * scale
