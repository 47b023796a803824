"""Tests for q-Racah polynomials, parameter shifts, and contiguity data.

Oracles: an exact-rational polynomial evaluator, exact Lagrange interpolation
for the degree structure, and exact-rational evaluation of the defining
three-term relations with the package's coefficient tables.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from exact_oracles import qracah_exact, relation_residuals_exact
from helpers import QR13_CHAIN, QR24_DEFAULT
from xychain.errors import InvalidParameterRegime, InvalidShiftedParams
from xychain.qracah import (
    FAMILIES,
    QRacahParams,
    contiguity_coefficients,
    grid_variable,
    qracah_eval,
    shift_params,
    verify_contiguity,
)

# Sample point used for frozen polynomial values.
POLY_POINT = QRacahParams(a=-0.4, b=0.3, c=0.2, N=5, q=0.5)

# (i, x) -> value, validated against the exact-rational oracle.
FROZEN_R = {
    (1, 1): 1.0627979159738388,
    (2, 3): 0.8906473343463007,
    (3, 5): 0.017273523727219766,
    (5, 1): 2.8935781786941583,
    (5, 5): 0.000777927603256823,
}

# Contiguity tables at the qr24 reference point, first three degrees, columns
# (phi_plus1_plus, phi_0_plus, phi_minus1_plus,
#  phi_plus1_minus, phi_0_minus, phi_minus1_minus); exact-rational provenance.
FROZEN_QR24_TABLES = {
    0: (0.8133935829901351, 1.613173083676532, 0.0,
        0.880642658749162, 3.6411621031556005, 0.0),
    1: (0.4721892853167388, 1.9045776747313792, 0.049799706618549,
        0.48676834720772605, 3.826450825184328, 0.20858558951270845),
    2: (0.24610469720388994, 2.066070708496838, 0.11439126096593917,
        0.2443610410624909, 3.8608421024565254, 0.41660161838574605),
}

FIELDS = (
    "phi_plus1_plus", "phi_0_plus", "phi_minus1_plus",
    "phi_plus1_minus", "phi_0_minus", "phi_minus1_minus",
)


class TestPolynomialValues:
    def test_degree_zero_is_one_on_grid(self):
        for x in range(POLY_POINT.N + 1):
            assert qracah_eval(0, x, POLY_POINT) == 1.0

    def test_value_one_at_grid_origin(self):
        # The q^-x numerator parameter equals 1 at x = 0, so only the k = 0
        # term survives for every degree.
        for i in range(POLY_POINT.N + 1):
            assert qracah_eval(i, 0, POLY_POINT) == 1.0

    @pytest.mark.parametrize("key", sorted(FROZEN_R))
    def test_frozen_values(self, key):
        i, x = key
        assert qracah_eval(i, x, POLY_POINT) == pytest.approx(
            FROZEN_R[key], rel=1e-14
        )

    def test_matches_exact_oracle_everywhere(self):
        a, b, c = Fraction(-2, 5), Fraction(3, 10), Fraction(1, 5)
        N, q = 5, Fraction(1, 2)
        for i in range(N + 1):
            for x in range(N + 1):
                exact = float(qracah_exact(i, x, a, b, c, N, q))
                got = qracah_eval(i, x, POLY_POINT)
                assert got == pytest.approx(exact, rel=1e-15, abs=1e-300)

    def test_shifted_point_value(self):
        shifted = QRacahParams(a=-0.8, b=0.15, c=0.8, N=5, q=0.5)
        assert qracah_eval(2, 2, shifted) == pytest.approx(
            2.311495959781786, rel=1e-12
        )

    def test_degree_bounds_enforced(self):
        with pytest.raises(ValueError):
            qracah_eval(-1, 0, POLY_POINT)
        with pytest.raises(ValueError):
            qracah_eval(POLY_POINT.N + 1, 0, POLY_POINT)

    def test_off_grid_argument_allowed(self):
        value = qracah_eval(2, 1.5, POLY_POINT)
        assert np.isfinite(value)


class TestDegreeStructure:
    """R_i is a polynomial of degree i in the grid variable: exact Lagrange
    interpolation through i+1 grid nodes must reproduce every other node."""

    def test_exact_interpolation_reproduces_grid(self):
        a, b, c = Fraction(-2, 5), Fraction(3, 10), Fraction(1, 5)
        N, q = 5, Fraction(1, 2)
        lam = [-(1 - q**-x) * (1 - c * q ** (x - N)) for x in range(N + 1)]
        for i in range(1, N):
            nodes = lam[: i + 1]
            values = [qracah_exact(i, x, a, b, c, N, q) for x in range(i + 1)]
            for x_check in range(i + 1, N + 1):
                t = lam[x_check]
                predicted = Fraction(0)
                for j in range(i + 1):
                    weight = Fraction(1)
                    for m in range(i + 1):
                        if m != j:
                            weight *= (t - nodes[m]) / (nodes[j] - nodes[m])
                    predicted += values[j] * weight
                assert predicted == qracah_exact(i, x_check, a, b, c, N, q)

    def test_grid_variable_formula(self):
        params = POLY_POINT
        assert grid_variable(0, params) == 0.0
        a, b, c = Fraction(-2, 5), Fraction(3, 10), Fraction(1, 5)
        q = Fraction(1, 2)
        for x in range(params.N + 1):
            exact = float(-(1 - q**-x) * (1 - c * q ** (x - params.N)))
            assert grid_variable(x, params) == pytest.approx(exact, rel=1e-14, abs=1e-15)


class TestShiftMap:
    def test_first_family_worked_example(self):
        x_shift, shifted = shift_params("qr13", POLY_POINT)
        assert x_shift == 1
        assert shifted.as_tuple() == pytest.approx((-0.8, 0.15, 0.8, 5, 0.5), rel=1e-15)

    def test_second_family_worked_example(self):
        x_shift, shifted = shift_params("qr24", POLY_POINT)
        assert x_shift == 0
        assert shifted.as_tuple() == pytest.approx((-0.8, 0.15, 0.2, 5, 0.5), rel=1e-15)

    def test_double_shift_compounds(self):
        _, once = shift_params("qr13", POLY_POINT)
        _, twice = shift_params("qr13", once)
        a, b, c, N, q = POLY_POINT.as_tuple()
        assert twice.as_tuple() == pytest.approx(
            (a / q**2, b * q**2, c / q**4, N, q), rel=1e-14
        )

    def test_invalid_shifted_parameters_rejected(self):
        # After the shift a -> a/q the factor 1 - (a/q) q = 1 - a vanishes
        # exactly for a = 1.
        params = QRacahParams(a=1.0, b=0.3, c=0.2, N=3, q=0.5)
        with pytest.raises(InvalidShiftedParams):
            shift_params("qr13", params)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            shift_params("qr99", POLY_POINT)


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidParameterRegime):
            QRacahParams(a=0.1, b=0.2, c=0.3, N=0, q=0.5)
        with pytest.raises(InvalidParameterRegime):
            QRacahParams(a=0.1, b=0.2, c=0.3, N=3, q=1.0)
        with pytest.raises(InvalidParameterRegime):
            QRacahParams(a=0.1, b=0.2, c=0.3, N=3, q=-0.2)
        with pytest.raises(InvalidParameterRegime):
            QRacahParams(a=float("nan"), b=0.2, c=0.3, N=3, q=0.5)

    def test_bool_degree_rejected(self):
        with pytest.raises(InvalidParameterRegime, match="N must be an integer"):
            QRacahParams(a=0.1, b=0.2, c=0.3, N=True, q=0.5)

    def test_as_tuple_round_trip(self):
        assert QR24_DEFAULT.as_tuple() == (-0.3, 0.3, -0.8, 4, 0.7)


class TestContiguityTables:
    def test_frozen_reference_entries(self):
        coeffs = contiguity_coefficients("qr24", QR24_DEFAULT)
        for i, expected in FROZEN_QR24_TABLES.items():
            got = tuple(float(getattr(coeffs, f)[i]) for f in FIELDS)
            assert got == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_boundary_coefficients_vanish(self):
        # Degree lowering at i = 0 and raising at i = N have no target
        # polynomial, so those coefficients are identically zero.
        for family, params in (("qr24", QR24_DEFAULT), ("qr13", QR13_CHAIN)):
            coeffs = contiguity_coefficients(family, params)
            assert coeffs.phi_minus1_plus[0] == pytest.approx(0.0, abs=1e-15)
            assert coeffs.phi_minus1_minus[0] == pytest.approx(0.0, abs=1e-15)
            assert abs(coeffs.phi_plus1_plus[-1]) < 1e-14
            assert abs(coeffs.phi_plus1_minus[-1]) < 1e-14

    def test_plus_offset_phi_0_minus_fails_relation(self):
        # The other printed qr24 form of phi_0_minus, lambda_plus(0) minus the
        # "plus"-relation neighbours, must be caught by the certification.
        coeffs = contiguity_coefficients("qr24", QR24_DEFAULT)
        plus_offset = (
            coeffs.lambda_plus[0] - coeffs.phi_plus1_plus - coeffs.phi_minus1_plus
        )
        forced = dataclasses.replace(coeffs, phi_0_minus=plus_offset)
        report = verify_contiguity("qr24", QR24_DEFAULT, coeffs=forced)
        checks = {c.name: c for c in report.checks}
        assert not checks["relation-minus"].passed
        assert checks["relation-minus"].residual > 0.1
        assert checks["relation-plus"].passed

    def test_exact_zero_denominator_rejected(self):
        # a b q = 1 exactly for a = 4, b = 1, q = 1/4.
        params = QRacahParams(a=4.0, b=1.0, c=-0.5, N=3, q=0.25)
        with pytest.raises(InvalidParameterRegime, match="denominator factor"):
            contiguity_coefficients("qr24", params)

    def test_constraint_ratio_near_one(self):
        for family, params in (("qr24", QR24_DEFAULT), ("qr13", QR13_CHAIN)):
            coeffs = contiguity_coefficients(family, params)
            assert coeffs.constraint_ratio_deviation() < 1e-12


class TestRelationsExact:
    """The defining property, checked with exact-rational polynomials."""

    def test_second_family_relations_hold(self):
        coeffs = contiguity_coefficients("qr24", QR24_DEFAULT)
        res_plus, res_minus = relation_residuals_exact("qr24", QR24_DEFAULT, coeffs)
        assert max(max(row) for row in res_plus) < 5e-13
        assert max(max(row) for row in res_minus) < 5e-13

    def test_first_family_relations_hold_off_corner(self):
        coeffs = contiguity_coefficients("qr13", QR13_CHAIN)
        res_plus, res_minus = relation_residuals_exact("qr13", QR13_CHAIN, coeffs)
        N = QR13_CHAIN.N
        worst_plus = max(
            res_plus[i][x]
            for i in range(N + 1)
            for x in range(N + 1)
            if (i, x) != (N, N)
        )
        assert worst_plus < 5e-13
        assert max(max(row) for row in res_minus) < 5e-13

    def test_large_degree_relations_survive(self):
        # Regression: direct float accumulation of the series loses ~10
        # digits to cancellation near the far grid corner at this size, which
        # used to reject the draw with a spurious 3e-5 residual.  The
        # exact-rational grid evaluation keeps the measured residual at the
        # float precision of the coefficient tables.
        params = QRacahParams(a=-0.4, b=0.3, c=-0.5, N=9, q=0.7)
        report = verify_contiguity("qr24", params)
        assert report.passed
        worst = max(c.residual for c in report.checks)
        assert worst < 1e-13

    def test_first_family_corner_anomaly_is_real(self):
        # The excluded grid corner genuinely violates the raising relation (a
        # boundary term survives a 0*inf limit there); it is harmless because
        # the corresponding relation row enters the chain with weight
        # lambda_minus(N) = 0.
        coeffs = contiguity_coefficients("qr13", QR13_CHAIN)
        res_plus, _ = relation_residuals_exact("qr13", QR13_CHAIN, coeffs)
        N = QR13_CHAIN.N
        assert res_plus[N][N] > 1e-6
        assert coeffs.lambda_minus[N] == pytest.approx(0.0, abs=1e-15)


class TestVerifyReport:
    def test_reference_point_passes(self):
        report = verify_contiguity("qr24", QR24_DEFAULT)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["relation-plus", "relation-minus", "constraint-ratio"]

    def test_first_family_passes_with_corner_note(self):
        report = verify_contiguity("qr13", QR13_CHAIN)
        assert report.passed
        corner_notes = [c.note for c in report.checks if "corner" in c.note]
        assert corner_notes, "expected the corner exclusion to be disclosed"

    def test_families_constant(self):
        assert FAMILIES == ("qr13", "qr24")
