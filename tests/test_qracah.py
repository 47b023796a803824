"""Tests for q-Racah polynomials, parameter shifts, and contiguity data.

Oracles: an exact-rational polynomial evaluator, exact Lagrange interpolation
for the degree structure, and exact-rational evaluation of the defining
three-term relations with the package's coefficient tables.
"""

import contextvars
import dataclasses
import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from exact_oracles import (
    phi43_exact, qracah_exact, qracah_grid_by_recurrence, relation_residuals_exact, shift_exact,
)
from helpers import QR13_CHAIN, QR24_DEFAULT, phi43_lone
from xychain import qracah, qseries
from xychain.errors import DenominatorVanishes, InvalidParameterRegime, InvalidShiftedParams
from xychain.qracah import (
    FAMILIES,
    QRacahParams,
    _Points,
    _Reasons,
    _grid_pairs,
    _polynomial_grids,
    _raw_tables,
    _shift_map,
    contiguity_coefficients,
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


def _assert_grids_match_exact_oracle(family, params):
    """Each grid entry is the float its exact sum rounds to, and Fraction ->
    float rounding is correct, so the grids must equal the oracle bit for bit."""
    base, shifted = contiguity_coefficients(family, params).grids
    x_shift, shifted_args = shift_exact(family, *params.as_tuple())
    for i in range(params.N + 1):
        for x in range(params.N + 1):
            assert base[i, x] == float(qracah_exact(i, x, *params.as_tuple()))
            assert shifted[i, x] == float(qracah_exact(i, x + x_shift, *shifted_args))
    return base, shifted


class TestPolynomialValues:
    def test_degree_zero_is_one_on_grid(self):
        for x in range(POLY_POINT.N + 1):
            assert qracah_eval(0, x, POLY_POINT) == 1.0

    def test_failure_of_its_grid_is_raised(self):
        # a = 2, q = 0.5: the denominator parameter a q is 1, so (1 - a q q^0)
        # vanishes at the first term
        with pytest.raises(DenominatorVanishes) as info:
            qracah_eval(1, 1, QRacahParams(2.0, 0.3, -0.8, 4, 0.5))
        assert (info.value.k, info.value.param) == (0, 1.0)

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
        for family, point in (("qr24", QR24_DEFAULT), ("qr13", QR13_CHAIN)):
            for N in (4, 10, 14):
                _assert_grids_match_exact_oracle(family, dataclasses.replace(point, N=N))

    @pytest.mark.parametrize("q, value", [
        # the 40- and 80-digit sums are 2e87 and 0.0
        (1e-6, -0.20971508675417788),
        # the 40- and 80-digit sums are 1e66 and 1e26
        (1e-5, -0.20971406753403193),
    ])
    def test_cancellation_beyond_both_precisions_is_escalated(self, q, value):
        # base[7, 8] cancels by more than 80 digits, so the 40- and 80-digit
        # sums are far off; their error bounds refuse them, and the 160-digit
        # sum is the first one proved.
        params = QRacahParams(a=1e-6, b=0.3, c=-0.8, N=8, q=q)
        base, _ = _assert_grids_match_exact_oracle("qr24", params)
        assert base[7, 8] == value

    @pytest.mark.parametrize("N", [20, 40])
    def test_base_grid_matches_the_degree_recurrence(self, N):
        # the recurrence shares no step with the series; a dyadic q keeps
        # its Fractions small
        params = dataclasses.replace(QR24_DEFAULT, N=N, q=0.5)
        base, _ = _polynomial_grids("qr24", params)
        exact = qracah_grid_by_recurrence(*params.as_tuple())
        assert base.tobytes() == np.array(exact, dtype=float).tobytes()

    def test_exact_zero_values(self):
        # No interval around an exact zero rounds to one float; R_1(3) and the
        # shifted R_1(2) are exactly zero at this point, which verify passes.
        params = QRacahParams(a=0.25, b=0.5, c=-1.0, N=5, q=0.5)
        base, shifted = _assert_grids_match_exact_oracle("qr24", params)
        assert base[1, 3] == 0.0 and shifted[1, 2] == 0.0

    def test_exact_tie_values(self):
        # No interval around a value halfway between two floats rounds to one
        # float; entry [1, 4] of the shifted grid is such a tie here, rounded
        # to even.
        params = QRacahParams(a=0.0, b=0.0, c=-0.8, N=4, q=0.5)
        _assert_grids_match_exact_oracle("qr13", params)

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

    def test_numpy_integer_degree(self):
        # the degree's parameter a b q^(i+1) is formed from a Python int
        assert qracah_eval(np.int64(3), 2, POLY_POINT) == qracah_eval(3, 2, POLY_POINT)

    def test_off_grid_argument_allowed(self):
        # Off the grid q^-x and c q^(x-N) are floats; the value is the float
        # the exact sum of those very arguments rounds to.
        a, b, c, N, q = POLY_POINT.as_tuple()
        a, b, c, q = (Fraction(v) for v in (a, b, c, q))
        i, x = 2, 1.5
        nums = (a * b * q ** (i + 1), q ** (-x), c * q ** (x - N))
        exact = phi43_exact(i, nums, (a * q, b * c * q, q ** (-N)), q, q)
        assert qracah_eval(i, x, POLY_POINT) == float(exact)


def _lone_grids(family, params):
    """Every grid entry from its own 1 x 1 evaluator grid, outside any grid
    build: :func:`qracah_eval` on the base grid, and on the shifted grid
    the lone sum of the exactly shifted arguments."""
    N = params.N
    base = [[qracah_eval(i, x, params) for x in range(N + 1)] for i in range(N + 1)]
    x_shift, (a, b, c, _, q) = shift_exact(family, *params.as_tuple())
    den = (a * q, b * c * q, q ** (-N))
    shifted = [
        [
            phi43_lone(
                i, (a * b * q ** (i + 1), q ** -(x + x_shift), c * q ** (x + x_shift - N)),
                den, q, q,
            )
            for x in range(N + 1)
        ]
        for i in range(N + 1)
    ]
    return np.array(base), np.array(shifted)


GRID_CASES = [
    pytest.param(family, dataclasses.replace(point, N=N, q=q), id=f"{family}-N{N}-q{q}")
    for family, point in (("qr24", QR24_DEFAULT), ("qr13", QR13_CHAIN))
    for N in (1, 2, 9, 12, 20)
    for q in (0.3, 0.7)
] + [
    # values proved only at 160 digits
    pytest.param("qr24", QRacahParams(a=1e-6, b=0.3, c=-0.8, N=8, q=1e-6), id="escalation"),
    # exact zeros, which end at their exact Fraction sums
    pytest.param("qr24", QRacahParams(a=0.25, b=0.5, c=-1.0, N=5, q=0.5), id="exact-zero"),
]


class TestGridEvaluator:
    """A grid build sums both grids in one evaluator call on shared decimal
    factor runs; every entry must still be, bit for bit, the value of a lone
    evaluation and of the exact oracle."""

    @pytest.mark.parametrize("family, params", GRID_CASES)
    def test_grids_equal_lone_evaluations(self, family, params):
        grids = _polynomial_grids(family, params)
        for grid, lone in zip(grids, _lone_grids(family, params)):
            assert grid.tobytes() == lone.tobytes()
        if params.N > 12:
            return  # the exact oracle takes seconds a grid here
        x_shift, shifted_args = shift_exact(family, *params.as_tuple())
        for (i, x), value in np.ndenumerate(grids[0]):
            assert value.hex() == float(qracah_exact(i, x, *params.as_tuple())).hex()
        for (i, x), value in np.ndenumerate(grids[1]):
            assert value.hex() == float(qracah_exact(i, x + x_shift, *shifted_args)).hex()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_of_points_equals_their_lone_builds(self, monkeypatch, family):
        # Interleaved points of three q values, the exact-zero point among
        # them: one evaluator call per q, and each pair bit for bit its own.
        point = QR24_DEFAULT if family == "qr24" else QR13_CHAIN
        points = [dataclasses.replace(point, N=5, a=point.a * (1 + k / 10), q=q)
                  for k, q in enumerate((0.3, 0.7, 0.3, 0.5, 0.7, 0.3))]
        points.insert(4, QRacahParams(a=0.25, b=0.5, c=-1.0, N=5, q=0.5))
        calls = []
        evaluator = qracah.phi43_terminating_exact

        def counting(grids, q, z):
            grids = list(grids)
            calls.append((len(grids), q))
            return evaluator(grids, q, z)

        monkeypatch.setattr(qracah, "phi43_terminating_exact", counting)
        pairs = _grid_pairs(family, points)
        assert calls == [(3, Fraction(0.3)), (2, Fraction(0.7)), (2, Fraction(0.5))]
        monkeypatch.setattr(qracah, "phi43_terminating_exact", evaluator)
        for params, pair in zip(points, pairs):
            for grid, lone in zip(pair, _polynomial_grids(family, params)):
                assert grid.tobytes() == lone.tobytes()

    def test_no_state_outlives_a_build(self):
        first, other = QR24_DEFAULT, QRacahParams(a=-0.4, b=0.3, c=-0.5, N=9, q=0.5)
        before = _polynomial_grids("qr24", first)
        _polynomial_grids("qr24", other)
        after = _polynomial_grids("qr24", first)
        for grid, again in zip(before, after):
            assert grid.tobytes() == again.tobytes()
        caches = [name for name, value in vars(qseries).items()
                  if hasattr(value, "cache_info") or hasattr(value, "cache_clear")]
        assert caches == []
        assert not [name for name, value in vars(qseries).items()
                    if isinstance(value, contextvars.ContextVar)]


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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_shift_is_the_python_float_map(self, family):
        for params in (POLY_POINT, QR24_DEFAULT, QR13_CHAIN):
            a, b, c, N, q = params.as_tuple()
            mapped = (a / q, b * q, c / q**2 if family == "qr13" else c, N, q)
            assert shift_params(family, params)[1].as_tuple() == mapped

    @pytest.mark.parametrize(("family", "a", "c", "q", "error", "message"), [
        ("qr13", -0.3, -0.8, 1e-320, ZeroDivisionError, "float division by zero"),
        ("qr24", -0.3, -0.8, 1e-320, InvalidShiftedParams,
         "shifted parameters invalid: parameter a must be finite, got -inf"),
        ("qr13", -0.3, 1e300, 1e-5, InvalidShiftedParams,
         "shifted parameters invalid: parameter c must be finite, got inf"),
    ])
    def test_float_failures_of_the_map(self, family, a, c, q, error, message):
        # q^2 underflows to zero, or a/q or c/q^2 overflows
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            shift_params(family, QRacahParams(a, 0.3, c, 4, q))
        if error is InvalidShiftedParams:
            assert isinstance(raised.value.__cause__, InvalidParameterRegime)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            shift_params("qr99", POLY_POINT)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_exact_shift_keeps_a_times_b(self, family):
        # the two grids of a build share their rows (i, a b q^(i+1))
        for params in (POLY_POINT, QR24_DEFAULT, QR13_CHAIN):
            a, b, c, _, q = (Fraction(v) for v in params.as_tuple())
            _, sa, sb, _ = _shift_map(family, a, b, c, q, q**2)
            assert type(sa * sb) is Fraction and sa * sb == a * b


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["a", "b", "c", "q"])
    def test_non_finite_field_rejected(self, name, value):
        fields = {"a": 0.1, "b": 0.2, "c": 0.3, "N": 3, "q": 0.5, name: value}
        message = f"parameter {name} must be finite, got {value!r}"
        with pytest.raises(InvalidParameterRegime) as excinfo:
            QRacahParams(**fields)
        assert str(excinfo.value) == message

    def test_bool_degree_rejected(self):
        with pytest.raises(InvalidParameterRegime, match="N must be an integer"):
            QRacahParams(a=0.1, b=0.2, c=0.3, N=True, q=0.5)

    def test_as_tuple_round_trip(self):
        assert QR24_DEFAULT.as_tuple() == (-0.3, 0.3, -0.8, 4, 0.7)


#: sha256 of the eight coefficient tables (bytes, in table order) at 28
#: seeded draws, a, b, c uniform in [-3, 3] and q in [0.01, 0.99].  The first
#: 20 (N = 4, 7, 12) were recorded from the per-point tables before they were
#: batched, the last 8 (two per family at N = 9 and 16, the benchmark's sizes,
#: from ``default_rng(36)``) from the tables that printed every power in full,
#: before each power and factor was formed once.  The seeds put q where
#: numpy's power differs from Python's in the last bit at the qr24 scalar
#: powers q^N or q^{N+1}, so computing those with numpy fails here.
TABLE_DIGESTS = [
    ("qr13", -1.0381663403666357, 2.9236610600275537, -1.0877349690868996, 4,
     0.7827779571036284, "f7ed741a22bb4a21fab5a4dbe58d422a3a5e6b2b1ead352f61c8ca45f0ab54ab"),
    ("qr24", 2.219379070177297, -0.6534911607648359, -0.3727087612632074, 7,
     0.375293925027566, "ecf9473a84f85bfaed63957fad3d061b87234e5cf7dcbcb6218a9180d5acca80"),
    ("qr13", -2.358278421163354, -0.126207275023698, -1.5518871294919063, 12,
     0.26200234358010716, "0e074b80c6cf298960a5c0513cdce8a43edbca1cf9879b7793ce765fae6f9d52"),
    ("qr24", -1.8916106589935107, -1.8368127065741358, 1.8829660209301258, 4,
     0.4245245043813418, "97256c5034062249373c84d8c4c467716197994bb8f3adf0a0e23cf7569e391c"),
    ("qr13", -1.4644769690506436, 0.5454171105924694, 0.6256337763507345, 7,
     0.6439208665189842, "44cdd36ba36e4867eb818ee9366087591dd0f537d34fbd94b259d99150518b4a"),
    ("qr24", 2.468138282691145, -2.0987633282281895, -0.7716772293456229, 12,
     0.2889282247605963, "1053dfdff543edd2e5c025d38b9511f0cfecaa28ab59be8b8e336aba22a3771b"),
    ("qr13", -2.8993076860532954, -1.910676375823623, -0.631988512208383, 4,
     0.39544449588459774, "72706c38f30a962625683f6788d5c3bc590a6a6b9b9832f4cb09ec96c47ecc24"),
    ("qr24", 0.7003676664420055, -0.2864008270371219, 0.6439840054288495, 7,
     0.22859878570510533, "224ca2aa9c6d2161908d4666b9386d2699ba7578ce280b469a95bd55aa11764b"),
    ("qr13", -2.1960772092037257, -1.024263739729477, -2.423349398831118, 12,
     0.3685231163744401, "9d7229613024ad7c256c20eb3bdc94d6076dc910ad27a23b2ed90f93867866e1"),
    ("qr24", -0.238924155060253, 1.3139318633370847, 2.2021492160124767, 4,
     0.06079893946634062, "70526afef44ca9398839cb12f7dc864e561b89b6751adda28277accf8c4fe052"),
    ("qr13", 2.736575463995397, 1.3206085512922066, 2.932641592038925, 7,
     0.12640156711232442, "c9d497fdec655ab488907a87f8cf5bc3313405bbd64c0a478516e8d6e1dbceb2"),
    ("qr24", -0.7498694658102028, 0.013524071430487616, 1.4833407721108705, 12,
     0.31481033082679627, "ff2cd01b5dade353f0a70abf49a4fb93acab908ad7090b557effbe3aade51849"),
    ("qr13", -0.3005743434924062, -1.343043884396121, -0.305009023793561, 4,
     0.5097745277433436, "e297ae4aad4730f3c1cbd9673265819ef3f88e0f954e47c920845e9186decb36"),
    ("qr24", 0.39016763858714665, 1.225144290552243, -1.5490800805271228, 7,
     0.6278806721497227, "a2874408b45c707e950b3c5eefc2268abe5f2a607272ba1c515e25350de4a321"),
    ("qr13", -2.4591229280321065, 0.6662517865934525, -0.24577443371142538, 12,
     0.14215713714263226, "3abd75e34869fdfe50e5d37f578a6e634b1fdd6201d94c749a8157c06c51113d"),
    ("qr24", -1.4598314523993081, -2.6107606777246803, -0.7660682243528765, 4,
     0.4057040882053361, "23481fb3f58ddf6e62e8de0f6d3d5891ebe956e50035245301bd40d64b166ed1"),
    ("qr13", -0.06730560893773063, -2.5808556205166093, 1.294097819167777, 7,
     0.32255493498652194, "07e3f3eb0ee6fbe2ad817f0539876d4b5868a326fe9805a1302d6c38d52897ab"),
    ("qr24", -1.3091782645593537, 2.348192522295859, 0.6066740020806733, 12,
     0.6554998865820197, "9e62a44f962d6a45fc0e08e6c560bfda42b81c29c0af230b197ffe0bed2d601a"),
    ("qr13", 0.18853464893224814, -1.7028176100362815, -2.0948142345974263, 4,
     0.19046364728027196, "d44b5a7f6e47132600391652647c84b2a851b303cc14b7f6317aa2a44a95f6b7"),
    ("qr24", -0.9558940773888382, -1.979647088113357, -0.13330052787844338, 7,
     0.9580213230594554, "cdc836b16c56a7f08d01f51e3b2b301f47bbb2b27c588a53e1f466f0b5bbc46b"),
    ("qr13", -1.916201452654983, -0.6105794355859899, 2.362994421419268, 9,
     0.4053182873643735, "012ccc9b0183228c7abc14303a2ceeb1427eff57e222b32a7eb23101f33bd87b"),
    ("qr13", 1.0980277381678292, 0.066485491281568, 0.21255931849383014, 9,
     0.8678473676838848, "8f9e6d8a3773aa7ceb2fa4e4e4d5c96e75f68e286e9ad91032f3f499dfab1da0"),
    ("qr24", 2.5196269375679163, 0.7984258765952292, -2.8720365889661936, 9,
     0.4613889307068453, "3b7bdea4bccbe64324757b9c2a1264d24173d0ac87c1b78df595c444cc437a05"),
    ("qr24", 0.36175079542888655, -1.3546364396837038, -0.6064000370898261, 9,
     0.4265813670824241, "db9bedbe32710139b88ea803515e7120f8abaf4c0f02565396b4dd42314225a3"),
    ("qr13", -2.008240967694709, -2.488168057944741, -0.14696368479461697, 16,
     0.7877867436278849, "c0511ed8dffa0c2252dbed4b3ca77fb6b6d2f248831ca10a42249e82c863aa40"),
    ("qr13", -1.3015572536748816, 0.6868538268235325, -2.773832702017426, 16,
     0.8733337277254065, "b56161e7e1743fc1bb53b88d3b432a4969c4a75d37b94e2573bee964bb60b905"),
    ("qr24", 1.8891905843233765, 2.308786932015562, -0.019269692572705388, 16,
     0.3326753101457978, "1becde457eeeb72fb20334d5f834326b3caf96ff75153d30947b7258e148ed36"),
    ("qr24", 2.365482150833312, -1.8673038316047983, -0.4759109850796288, 16,
     0.9515121143019137, "d90c65226150fab080b2d47424ce21598080dec2cbfefad2e66470fecca97599"),
]


def _table_digest(tables, s):
    return hashlib.sha256(b"".join(table[s].tobytes() for table in tables.values())).hexdigest()


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
        report = verify_contiguity(forced)
        checks = {c.name: c for c in report.checks}
        assert not checks["relation-minus"].passed
        assert checks["relation-minus"].residual > 0.1
        assert checks["relation-plus"].passed

    def test_tables_are_bit_identical_to_the_per_point_route(self):
        groups = {}
        for family, a, b, c, N, q, digest in TABLE_DIGESTS:
            groups.setdefault((family, N), []).append((QRacahParams(a, b, c, N, q), digest))
        for (family, N), draws in groups.items():
            points = _Points.of([params for params, _ in draws])
            tables = _raw_tables(family, points, _Reasons(len(draws)))
            for s, (params, digest) in enumerate(draws):
                assert _table_digest(tables, s) == digest, (family, params)
                single = contiguity_coefficients(family, params)
                assert _table_digest({f: getattr(single, f)[None] for f in tables}, 0) == digest

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
        report = verify_contiguity(contiguity_coefficients("qr24", params))
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
        report = verify_contiguity(contiguity_coefficients("qr24", QR24_DEFAULT))
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == ["relation-plus", "relation-minus", "constraint-ratio"]

    def test_first_family_passes_with_corner_note(self):
        report = verify_contiguity(contiguity_coefficients("qr13", QR13_CHAIN))
        assert report.passed
        corner_notes = [c.note for c in report.checks if "corner" in c.note]
        assert corner_notes, "expected the corner exclusion to be disclosed"

    def test_families_constant(self):
        assert FAMILIES == ("qr13", "qr24")
