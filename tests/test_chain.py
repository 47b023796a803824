"""Tests for chain construction, closed-form spectra, P/Q tables, and scans.

Oracles: the independently validated contiguity tables (squared couplings are
fixed products of table entries), the Jacobi eigensolver for spectra, and
frozen regression values with exact-rational provenance.
"""

import dataclasses
import json
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (
    CONFIG_DIR, QR13_BOX, QR13_CHAIN, QR24_BOX, QR24_DEFAULT, pq_table, residuals,
)
from test_cli_fuzz import RANGES, TYPED_VALUES, WRONG_TYPES
from xychain import chain, qseries
from xychain.chain import (
    SCAN_LEVELS,
    ChainSpec,
    _SCAN_BLOCK,
    _sampler,
    _screen_block,
    analytic_spectrum,
    build_chain,
    parameter_scan,
    recurrence_check,
    validate_draw,
)
from xychain.errors import (
    ConfigError, InvalidParameterRegime, InvalidShiftedParams, NoValidParameters,
)
from xychain.linalg import jacobi_eigh
from xychain.qracah import (
    QRacahParams,
    _Points,
    _Reasons,
    _raw_tables,
    contiguity_coefficients,
    verify_contiguity,
)
from xychain.report import TOLERANCES

# Frozen couplings and spectrum at the qr24 reference point.
FROZEN_ALPHA = [0.31065916369567, 0.33974793882028204, 0.2950548157339187, 0.20744776232261103]
FROZEN_BETA = [2.423597470314253, 2.699587526846191, 2.8243181085027893,
               2.8722722137587717, 2.8852712345113574]
FROZEN_GAMMA = [0.10124152823607636, 0.10377750627544419, 0.08710266153520348,
                0.06011170703811548]
FROZEN_LAMBDA = [3.31247048415721, 3.0240364316436827, 2.7572312847417093,
                 2.477255870232123, 2.1459797798727145]

# The eight coefficient tables of a contiguity record, in table order.
TABLE_FIELDS = (
    "lambda_plus", "lambda_minus", "phi_plus1_plus", "phi_0_plus", "phi_minus1_plus",
    "phi_plus1_minus", "phi_0_minus", "phi_minus1_minus",
)


class TestChainSpec:
    def test_sizes(self):
        chain = ChainSpec(alpha=[1.0, 2.0], beta=[0.1, 0.2, 0.3], gamma=[0.0, 0.5])
        assert chain.n_sites == 3
        assert chain.N == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ChainSpec(alpha=[1.0], beta=[0.1, 0.2, 0.3], gamma=[0.0, 0.5])
        with pytest.raises(ValueError):
            ChainSpec(alpha=[1.0, 2.0], beta=[0.1, 0.2, 0.3], gamma=[0.0])
        with pytest.raises(ValueError):
            ChainSpec(alpha=[], beta=[], gamma=[])
        with pytest.raises(ValueError):
            ChainSpec(alpha=[np.nan, 1.0], beta=[0.1, 0.2, 0.3], gamma=[0.0, 0.5])

    def test_single_site_chain(self):
        chain = ChainSpec(alpha=[], beta=[0.7], gamma=[])
        assert chain.n_sites == 1
        assert chain.is_xx()

    def test_is_xx(self):
        chain = ChainSpec(alpha=[1.0], beta=[0.1, 0.2], gamma=[0.0])
        assert chain.is_xx()
        chain = ChainSpec(alpha=[1.0], beta=[0.1, 0.2], gamma=[1e-6])
        assert not chain.is_xx()


class TestBuildChain:
    def test_frozen_reference_couplings(self):
        chain = build_chain(contiguity_coefficients("qr24", QR24_DEFAULT))
        np.testing.assert_allclose(chain.alpha, FROZEN_ALPHA, rtol=1e-12)
        np.testing.assert_allclose(chain.beta, FROZEN_BETA, rtol=1e-12)
        np.testing.assert_allclose(chain.gamma, FROZEN_GAMMA, rtol=1e-12)

    @pytest.mark.parametrize(
        "family, params", [("qr24", QR24_DEFAULT), ("qr13", QR13_CHAIN)]
    )
    def test_squared_couplings_are_table_products(self, family, params):
        # The construction fixes beta_j^2 and (alpha -/+ gamma)_j^2 as
        # products of contiguity-table entries; those tables are certified
        # independently, so this ties the chain to certified data.
        coeffs = contiguity_coefficients(family, params)
        chain = build_chain(coeffs)
        np.testing.assert_allclose(
            chain.beta**2, coeffs.phi_0_plus * coeffs.phi_0_minus, rtol=1e-12
        )
        minus = chain.alpha - chain.gamma
        plus = chain.alpha + chain.gamma
        np.testing.assert_allclose(
            minus**2,
            coeffs.phi_minus1_plus[1:] * coeffs.phi_plus1_minus[:-1],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            plus**2,
            coeffs.phi_minus1_minus[1:] * coeffs.phi_plus1_plus[:-1],
            rtol=1e-12,
        )

    def test_positive_branch(self):
        chain = build_chain(contiguity_coefficients("qr24", QR24_DEFAULT))
        assert np.all(chain.beta > 0)
        assert np.all(chain.alpha - chain.gamma > 0)
        assert np.all(chain.alpha + chain.gamma > 0)

    def test_root_signs_follow_their_factors(self):
        # At this point the roots have mixed signs; each takes the sign of
        # its factor times the sign of phi_0_plus[0].
        coeffs = contiguity_coefficients("qr13", QR13_CHAIN)
        chain = build_chain(coeffs)
        gauge = np.sign(coeffs.phi_0_plus[0])
        for root, factor in ((chain.beta, coeffs.phi_0_plus),
                             (chain.alpha - chain.gamma, coeffs.phi_plus1_minus[:-1]),
                             (chain.alpha + chain.gamma, coeffs.phi_plus1_plus[:-1])):
            np.testing.assert_array_equal(np.sign(root), gauge * np.sign(factor))
        assert len({*np.sign(chain.beta), *np.sign(chain.alpha - chain.gamma)}) == 2

    def test_negative_radicand_rejected(self):
        params = QRacahParams(a=0.5, b=0.3, c=0.8, N=4, q=0.7)
        for family in ("qr13", "qr24"):
            with pytest.raises(InvalidParameterRegime, match="radicand"):
                build_chain(contiguity_coefficients(family, params))

    def test_radicand_tolerance_is_relative_to_the_row(self):
        # The bound is -RADICAND_TOL times the larger of 1 and the row's
        # largest magnitude; an entry exactly at the bound is clamped.
        np.testing.assert_array_equal(chain._radicand_check([-1e-12, 0.5], "r"), [0.0, 0.5])
        np.testing.assert_array_equal(chain._radicand_check([-1e-7, 1e6], "r"), [0.0, 1e6])
        with pytest.raises(InvalidParameterRegime,
                           match=re.escape("radicand r[0] = -2.000000e-06 is negative")):
            chain._radicand_check([-2e-6, 1e6], "r")

    def test_exact_denominator_zero_rejected(self):
        # 1 - a b q^0 = 0 exactly for a = 2, b = 1/2.
        params = QRacahParams(a=2.0, b=0.5, c=0.3, N=4, q=0.7)
        with pytest.raises(InvalidParameterRegime, match="denominator"):
            build_chain(contiguity_coefficients("qr24", params))


class TestAnalyticSpectrum:
    def test_frozen_reference_spectrum(self):
        lam = analytic_spectrum(contiguity_coefficients("qr24", QR24_DEFAULT))
        np.testing.assert_allclose(lam, FROZEN_LAMBDA, rtol=1e-12)

    def test_all_energies_positive_and_distinct(self):
        lam = analytic_spectrum(contiguity_coefficients("qr24", QR24_DEFAULT))
        assert np.all(lam > 0)
        assert np.unique(np.round(lam, 10)).size == lam.size

    def test_matches_numeric_diagonalization(self):
        # Independent numeric route: assemble the doubled one-particle matrix
        # from the constructed couplings and diagonalize with Jacobi.
        from xychain.freefermion import assemble, eigendecompose

        chain = build_chain(contiguity_coefficients("qr24", QR24_DEFAULT))
        spectral = eigendecompose(assemble(chain))
        np.testing.assert_allclose(
            np.sort(analytic_spectrum(contiguity_coefficients("qr24", QR24_DEFAULT))),
            spectral.lambda_numeric,
            rtol=0,
            atol=1e-12 * max(FROZEN_LAMBDA),
        )

    def test_scan_draws_match_numerics(self, rng):
        from xychain.freefermion import assemble, eigendecompose

        draws = parameter_scan(
            "qr24", QR24_BOX, N=5, samples=120, seed=3, level="spectral"
        )
        assert draws, "expected spectral-level draws in the reference box"
        for params in draws[:10]:
            coeffs = contiguity_coefficients("qr24", params)
            lam = analytic_spectrum(coeffs)
            spectral = eigendecompose(assemble(build_chain(coeffs)))
            scale = max(1.0, float(np.max(lam)))
            assert np.max(np.abs(np.sort(lam) - spectral.lambda_numeric)) < 1e-10 * scale


class TestPQTables:
    def test_shapes_and_finiteness(self):
        pq = pq_table("qr24", QR24_DEFAULT)
        n = QR24_DEFAULT.N + 1
        assert pq.P.shape == (n, n)
        assert pq.Q.shape == (n, n)
        assert pq.lam.shape == (n,)
        assert np.all(np.isfinite(pq.P)) and np.all(np.isfinite(pq.Q))

    def test_recurrence_residuals_tiny(self):
        # The defining property: (A - B) P = Q diag(lam) and
        # (A + B) Q = P diag(lam) with A, B assembled from the couplings.
        pq = pq_table("qr24", QR24_DEFAULT)
        res = residuals(recurrence_check(pq))
        assert res["recurrence-P"] < 1e-12
        assert res["recurrence-Q"] < 1e-12

    def test_recurrence_on_scan_draws(self):
        draws = parameter_scan(
            "qr24", QR24_BOX, N=6, samples=80, seed=5, level="full"
        )
        assert draws
        for params in draws[:5]:
            res = residuals(recurrence_check(pq_table("qr24", params)))
            # Non-normalized columns span orders of magnitude, so relative
            # residuals can reach ~1e-9; the certification tolerance is 1e-8.
            assert max(res.values()) < 1e-8

    def test_corrupted_chain_breaks_recurrence(self):
        # Discrimination: the residual is not vacuously small.
        pq = pq_table("qr24", QR24_DEFAULT)
        bad_beta = pq.chain.beta.copy()
        bad_beta[2] *= 1.01
        bad_chain = ChainSpec(alpha=pq.chain.alpha, beta=bad_beta, gamma=pq.chain.gamma)
        from dataclasses import replace

        res = residuals(recurrence_check(replace(pq, chain=bad_chain)))
        assert max(res.values()) > 1e-4

    @pytest.mark.parametrize(("shrink", "passes"), [(1e-14, True), (1.0, False)],
                             ids=["below-the-floor", "at-full-scale"])
    def test_floor_absorbs_errors_in_vanishing_columns(self, shrink, passes):
        # The tables times 2^20 put the floor at 1e-12 of their largest entry,
        # 1.3e-5.  Mode 1 shrunk by 1e-14 still solves both recurrences, as
        # they are linear in each column; a 1e-7 relative error in it then
        # reads 5e-10 against the floor, where at full scale it reads 8e-8.
        pq = pq_table("qr24", QR24_DEFAULT)
        P, Q = pq.P * 2.0**20, pq.Q * 2.0**20
        P[:, 1] *= shrink
        Q[:, 1] *= shrink
        P[2, 1] *= 1 + 1e-7
        from dataclasses import replace

        assert recurrence_check(replace(pq, P=P, Q=Q)).passed is passes


class TestXXReduction:
    def test_gamma_zero_spectrum_is_abs_hopping_eigenvalues(self, rng):
        # With gamma = 0 the doubled problem decouples: single-particle
        # energies are the absolute eigenvalues of the tridiagonal hopping
        # matrix A.
        from xychain.freefermion import assemble, eigendecompose

        for _ in range(5):
            n = int(rng.integers(2, 8))
            chain = ChainSpec(
                alpha=rng.uniform(-1.5, 1.5, n - 1),
                beta=rng.uniform(-1.5, 1.5, n),
                gamma=np.zeros(n - 1),
            )
            system = assemble(chain)
            spectral = eigendecompose(system)
            hop_values = jacobi_eigh(system.A)
            np.testing.assert_allclose(
                spectral.lambda_numeric,
                np.sort(np.abs(hop_values)),
                rtol=0,
                atol=1e-10 * max(1.0, float(np.max(np.abs(hop_values)))),
            )


class TestValidateDraw:
    def test_reference_point_full_valid(self):
        ok, reason = validate_draw("qr24", QR24_DEFAULT, level="full")
        assert ok, reason

    def test_first_family_point_couplings_only(self):
        # valid up to spectral; its reason at full is a SCREEN_DRAWS row
        for level in ("couplings", "spectral"):
            ok, reason = validate_draw("qr13", QR13_CHAIN, level=level)
            assert ok, (level, reason)

    def test_levels_are_nested(self, rng):
        # Any draw valid at a level must be valid at every weaker level.
        order = {level: rank for rank, level in enumerate(SCAN_LEVELS)}
        for _ in range(40):
            params = QRacahParams(
                a=float(rng.uniform(*QR24_BOX["a"])),
                b=float(rng.uniform(*QR24_BOX["b"])),
                c=float(rng.uniform(*QR24_BOX["c"])),
                N=4,
                q=float(rng.choice(QR24_BOX["q"])),
            )
            status = {
                level: validate_draw("qr24", params, level=level)[0]
                for level in SCAN_LEVELS
            }
            for strong in SCAN_LEVELS:
                if status[strong]:
                    for weak in SCAN_LEVELS:
                        if order[weak] < order[strong]:
                            assert status[weak], (params, strong, weak)

    def test_nan_residual_names_the_failed_check(self):
        params = QRacahParams(a=-5.0, b=-5.0, c=-1e100, N=8, q=1e-6)
        with np.errstate(all="ignore"):
            valid, reason = validate_draw("qr13", params, level="contiguity")
        assert (valid, reason) == (False, "relation-minus residual above tolerance")

    def test_unknown_level_rejected(self):
        with pytest.raises(ConfigError, match="'level' must be one of"):
            validate_draw("qr24", QR24_DEFAULT, level="extreme")


#: One draw per screen of ``validate_draw`` at level ``full``, with its exact
#: ``(valid, reason)``, in screen order, and the qr13 point.  The cross-check
#: has no real draw (its two routes multiply the same factors), so it is
#: locked below by perturbing the closed form instead.
SCREEN_DRAWS = [
    # family factor, base factor and shifted factor below the floor
    (("qr24", 1e-9, 0.3, -0.8, 4, 0.7), "denominator factor (a) within 1e-08 of zero"),
    (("qr24", 1.999999998, 0.3, -0.8, 4, 0.5),
     "denominator factor (1 - a q^1) within 1e-08 of zero"),
    (("qr24", -0.3, 0.3, 106.66666656000001, 4, 0.5),
     "denominator factor (1 - b c q^4) within 1e-08 of zero"),
    # invalid shifted parameters: non-finite, a vanishing factor, a zero q^2
    (("qr13", -0.3, 0.3, 1e300, 4, 1e-5),
     "shifted parameters invalid: parameter c must be finite, got inf"),
    (("qr24", -0.3, 1.0, 32.0, 4, 0.5),
     "shifted parameters make denominator factor (1 - b c q^4) vanish"),
    (("qr13", -0.3, 0.3, -0.8, 4, 1e-320), "float division by zero"),
    # the coefficient tables: a zero divisor of a per-point term, a non-finite entry
    (("qr24", 1e-8, 1e-8, -0.8, 4, 2e-316), "float division by zero"),
    (("qr24", -0.3, 0.3, 1e308, 4, 0.7), "coefficient table lambda_plus has non-finite entries"),
    (("qr24", 0.10044109572818183, -0.4162318775149334, 0.5207914286288444, 4, 0.5),
     "radicand beta^2[1] = -2.558929e+01 is negative beyond tolerance"),
    (("qr24", -2.4352281465576047, -0.401238358581157, -0.12569221115499563, 4, 0.7),
     "radicand (alpha-gamma)^2[0] = -1.317224e+00 is negative beyond tolerance"),
    (("qr24", 472.55645435919536, 630.7200989563315, 412.5437947600831, 4, 0.99),
     "radicand (alpha+gamma)^2[2] = -1.079731e-06 is negative beyond tolerance"),
    (("qr24", -0.1491745889207142, 8.580233076151011e-06, -1.0149034716436375e157, 4, 0.99),
     "radicand Lambda^2 has non-finite entries"),
    (("qr24", 0.8915000363677201, -2.283626489272071, -0.006631933354358743, 4, 0.5),
     "no global sign (coefficient tables or eigenvalues of mixed sign)"),
    # the qr13 point: every screen but the global sign passes
    (("qr13", 4.21, 6.28, -0.54, 4, 0.7),
     "no global sign (coefficient tables or eigenvalues of mixed sign)"),
    (("qr24", -0.3, 0.3, -0.8, 4, 0.7), ""),
]


def _screen_params(draw):
    family, a, b, c, N, q = draw
    return family, QRacahParams(a, b, c, N, q)


class TestScreenReasons:
    """Each screen of ``validate_draw`` keeps its exact reason string."""

    @pytest.mark.parametrize(("draw", "reason"), SCREEN_DRAWS)
    def test_first_reason(self, draw, reason):
        family, params = _screen_params(draw)
        with np.errstate(all="ignore"):
            assert validate_draw(family, params, level="full") == (not reason, reason)

    def test_cross_check_reason(self, monkeypatch):
        closed_form = chain.closed_form_lambda_squared
        monkeypatch.setattr(chain, "closed_form_lambda_squared",
                            lambda *args: closed_form(*args) * (1 + 1e-9))
        assert validate_draw("qr24", QR24_DEFAULT, level="couplings") == (
            False, "internal cross-check failed: closed-form spectrum deviates from the "
            "eigenvalue-product route by 1.656e-09",
        )

    def test_refused_draws_form_no_error_until_a_reason_is_read(self, monkeypatch):
        # A scan that refuses every draw forms no error and no parameter
        # record; validate_draw forms the one error its reason reads.
        made = []
        for error in (InvalidParameterRegime, InvalidShiftedParams):
            monkeypatch.setattr(error, "__init__", _counting(made, error.__init__, error.__name__))
        monkeypatch.setattr(QRacahParams, "__post_init__",
                            _counting(made, QRacahParams.__post_init__, "QRacahParams"))
        box = {"a": [-3.0, 3.0], "b": [-3.0, 3.0], "c": [-3.0, 3.0], "q": [0.7]}
        with pytest.raises(NoValidParameters):
            parameter_scan("qr13", box, N=4, samples=_SCAN_BLOCK + 44, seed=5, level="couplings")
        assert made == []
        screens = [  # one draw per screen, and the errors reading its reason forms
            (0, ["InvalidParameterRegime"]),  # denominator floor
            (3, ["InvalidParameterRegime", "InvalidShiftedParams"]),  # shift overflow, and cause
            (5, []),  # shift underflow: a ZeroDivisionError
            (7, ["InvalidParameterRegime"]),  # non-finite table
            (8, ["InvalidParameterRegime"]),  # radicand
            (12, ["InvalidParameterRegime"]),  # global sign
        ]
        for index, formed in screens:
            draw, reason = SCREEN_DRAWS[index]
            family, params = _screen_params(draw)
            made.clear()
            with np.errstate(all="ignore"):
                assert validate_draw(family, params, level="full") == (False, reason)
            assert made == formed, reason
        closed_form = chain.closed_form_lambda_squared
        monkeypatch.setattr(chain, "closed_form_lambda_squared",
                            lambda *args: closed_form(*args) * (1 + 1e-9))
        made.clear()
        assert validate_draw("qr24", QR24_DEFAULT, level="couplings") == (
            False, "internal cross-check failed: closed-form spectrum deviates from the "
            "eigenvalue-product route by 1.656e-09",
        )
        assert made == ["InvalidParameterRegime"]

    @pytest.mark.parametrize("family", ["qr13", "qr24"])
    @pytest.mark.parametrize("level", ["contiguity", "full"])
    def test_scan_keeps_the_draws_validate_draw_accepts(self, family, level):
        # A box of discrete choices from the screen draws: the scan keeps
        # exactly the draws that validate_draw accepts one at a time.
        draws = [draw for draw, _ in SCREEN_DRAWS if draw[0] == family]
        ranges = {key: [draw[k] for draw in draws] + [getattr(QR24_DEFAULT, key)]
                  for k, key in ((1, "a"), (2, "b"), (3, "c"), (5, "q"))}
        _assert_scan_keeps_the_valid_draws(family, ranges, 4, 60, 3, level)

    @pytest.mark.parametrize("family", ["qr13", "qr24"])
    @pytest.mark.parametrize("level", ["contiguity", "spectral"])
    @pytest.mark.parametrize("q", [[0.3, 0.5, 0.7], [0.3, 0.7]], ids=["q-choices", "q-range"])
    def test_scan_keeps_the_draws_validate_draw_accepts_at_shared_and_drawn_q(
            self, monkeypatch, family, level, q):
        # A choice list of q gives the survivors of a block a few q each, so
        # their grids are certified together; a q range gives each its own.
        shared = []
        grid_pairs = chain._grid_pairs

        def counting(family, points):
            shared.append(max(Counter(p.q for p in points).values(), default=0))
            return grid_pairs(family, points)

        monkeypatch.setattr(chain, "_grid_pairs", counting)
        box = {**(QR24_BOX if family == "qr24" else QR13_BOX), "q": q}
        _assert_scan_keeps_the_valid_draws(family, box, 4, 300, 11, level)
        assert max(shared) > 10 if len(q) == 3 else max(shared) == 1

    def test_scan_certifies_draws_of_one_and_two_triples_together(self, monkeypatch):
        # A qr13 draw with a = 0 and b = 0 has the same denominator triple
        # (0, 0, q^-N) in its base and shifted columns, so its grid has one
        # distinct triple where its block-mates have two.
        triples = []
        grid = qseries._Grid.__init__

        def counting(self, rows, columns, *args):
            triples.append(len({column[2:] for column in columns}))
            grid(self, rows, columns, *args)

        monkeypatch.setattr(qseries._Grid, "__init__", counting)
        box = {"a": [0.0, 0.0, -0.3, 0.2], "b": [0.0, 0.0, 0.4, -0.5], "c": [0.3, -0.6, 0.5],
               "q": [0.5]}
        expected = _replayed_valid_draws("qr13", box, 4, 60, 3, "contiguity")
        triples.clear()
        kept = parameter_scan("qr13", box, N=4, samples=60, seed=3, level="contiguity")
        assert [p.as_tuple() for p in kept] == [p.as_tuple() for p in expected]
        assert len(triples) == 60 and set(triples) == {1, 2}
        assert any(p.a == p.b == 0 for p in kept)

    def test_survivor_whose_grids_fail_is_refused_alone(self, monkeypatch):
        # The middle draw's grid pair fails: it gets the failure's message,
        # as when verify_contiguity raises it, and its block-mates keep
        # their verdicts.
        points = [QR24_DEFAULT, dataclasses.replace(QR24_DEFAULT, a=-0.4),
                  dataclasses.replace(QR24_DEFAULT, a=-0.5)]
        a, b, q = (Fraction(v) for v in (points[1].a, points[1].b, points[1].q))
        failing = (a * b * q).as_integer_ratio()  # the a1 of degree 0
        grid_sums = qseries._Grid.sums

        def sums(grid, block, rung):
            if grid.rows[0][1] == failing:
                return OverflowError("series sum too large for a float")
            return grid_sums(grid, block, rung)

        monkeypatch.setattr(qseries._Grid, "sums", sums)
        _, verdicts = chain._classify("qr24", _Points.of(points), "full", TOLERANCES)
        assert verdicts == {
            0: (True, ""), 1: (False, "series sum too large for a float"), 2: (True, ""),
        }
        assert [validate_draw("qr24", p) for p in points] == list(verdicts.values())
        with pytest.raises(OverflowError, match="too large"):
            verify_contiguity(contiguity_coefficients("qr24", points[1]))


def _assert_scan_keeps_the_valid_draws(family, ranges, N, samples, seed, level):
    """The scan of ``ranges`` keeps exactly the draws ``validate_draw``
    accepts one at a time, in draw order; returns them."""
    expected = _replayed_valid_draws(family, ranges, N, samples, seed, level)
    with np.errstate(all="ignore"):
        if not expected:
            with pytest.raises(NoValidParameters):
                parameter_scan(family, ranges, N=N, samples=samples, seed=seed, level=level)
            return []
        kept = parameter_scan(family, ranges, N=N, samples=samples, seed=seed, level=level)
    assert [p.as_tuple() for p in kept] == [p.as_tuple() for p in expected]
    return kept


def _counting(made, function, name):
    """``function`` that first appends ``name`` to ``made``."""
    def counted(self, *args, **kwargs):
        made.append(name)
        function(self, *args, **kwargs)
    return counted


def _replayed_valid_draws(family, ranges, N, samples, seed, level):
    """The draws of ``parameter_scan``'s generator stream that
    ``validate_draw`` accepts one at a time, in draw order."""
    rng = np.random.default_rng(seed)
    samplers = [_sampler(rng, ranges[key], key) for key in ("a", "b", "c", "q")]
    valid = []
    for _ in range(samples):
        a, b, c, q = (sample() for sample in samplers)
        try:
            params = QRacahParams(a, b, c, N, q)
        except InvalidParameterRegime:
            continue
        with np.errstate(all="ignore"):
            if validate_draw(family, params, level=level)[0]:
                valid.append(params)
    return valid


class TestScreenBlocks:
    """A block screens each draw on its own, bit for bit."""

    NEIGHBOURS = [
        QRacahParams(-0.3, 0.3, 1e308, 4, 0.7),  # overflowing tables
        QR24_DEFAULT,
        QRacahParams(1e-8, 1e-8, -0.8, 4, 2e-316),  # b q underflows: NaN tables
        QRacahParams(0.10044109572818183, -0.4162318775149334, 0.5207914286288444, 4, 0.5),
        QRacahParams(-0.35, 0.4, -0.7, 4, 0.5),
    ]

    @staticmethod
    def _outcomes(points, level):
        """Per point, the message of its first failed screen or the bytes of
        its tables."""
        reasons, tables = _screen_block("qr24", _Points.of(points), level)
        return [
            str(reasons.error(s)) if reasons.error(s) is not None
            else b"".join(tables[f][s].tobytes() for f in TABLE_FIELDS)
            for s in range(len(points))
        ]

    @pytest.mark.parametrize("level", SCAN_LEVELS)
    def test_outcome_does_not_depend_on_neighbours(self, level):
        outcomes = self._outcomes(self.NEIGHBOURS, level)
        for params, outcome in zip(self.NEIGHBOURS, outcomes):
            assert outcome == self._outcomes([params], level)[0]
        assert outcomes[0] == "coefficient table lambda_plus has non-finite entries"
        assert outcomes[2] == "float division by zero"
        assert all(isinstance(outcome, bytes) for outcome in outcomes[1::3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_table_bytes_do_not_depend_on_neighbours(self):
        together = _raw_tables("qr24", _Points.of(self.NEIGHBOURS), _Reasons(len(self.NEIGHBOURS)))
        for s, params in enumerate(self.NEIGHBOURS):
            alone = _raw_tables("qr24", _Points.of([params]), _Reasons(1))
            for name, table in together.items():
                assert table[s].tobytes() == alone[name][0].tobytes(), (params, name)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(("name", "column"), [("phi_plus1_plus", 0), ("lambda_plus", 1)])
    def test_global_sign_tolerance_is_relative_to_phi_0(self, monkeypatch, sign, name, column):
        # Tables of one sign but for one entry, exactly -tol or just past it,
        # with tol = RADICAND_TOL max(1, |phi_0|) = 4e-12; the negated tables
        # pass or fail alike.  The entry's radicand partner is 1e-3, so the
        # radicand screens pass.
        point = dataclasses.replace(QR24_DEFAULT, N=1)
        for entry, passed in ((-4e-12, True), (-4.000001e-12, False)):
            tables = {field: np.ones((1, 2)) for field in TABLE_FIELDS}
            tables["phi_0_plus"][:] = 4.0
            tables["phi_minus1_minus"][0, 1] = tables["lambda_minus"][0, 1] = 1e-3
            tables[name][0, column] = entry
            tables = {field: sign * table for field, table in tables.items()}
            monkeypatch.setattr(chain, "_contiguity_block", lambda *args: tables)
            monkeypatch.setattr(chain, "closed_form_lambda_squared",
                                lambda *args: tables["lambda_plus"] * tables["lambda_minus"])
            reasons, _ = _screen_block("qr24", _Points.of([point]), "full")
            assert reasons.passed()[0] == passed, entry
            if not passed:
                assert str(reasons.error(0)).startswith("no global sign")

    @pytest.mark.parametrize(("family", "box"), [("qr24", QR24_BOX), ("qr13", QR13_BOX)])
    def test_scan_across_a_block_boundary(self, family, box):
        # One more draw than a block: the last draw is a block of its own.
        samples = _SCAN_BLOCK + 1
        expected = _replayed_valid_draws(family, box, 2, samples, 17, "couplings")
        kept = parameter_scan(family, box, N=2, samples=samples, seed=17, level="couplings")
        assert [p.as_tuple() for p in kept] == [p.as_tuple() for p in expected]


@st.composite
def corrupted_scans(draw):
    """Arguments of ``parameter_scan`` corrupted as ``test_cli_fuzz`` corrupts
    a scan config: mostly a box with up to three ranges deleted or replaced by
    the fuzz's ranges and wrong types, sometimes a whole ``ranges`` value of
    its kinds, and ``samples`` and ``level`` mostly of the right type."""
    box = dict(QR24_BOX)
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from("abcqz"))
        if draw(st.integers(0, 4)) == 0:
            box.pop(key, None)
        else:
            box[key] = draw(RANGES | WRONG_TYPES)
    if draw(st.integers(0, 4)) == 0:
        box = draw(TYPED_VALUES["ranges"] | WRONG_TYPES)
    samples = TYPED_VALUES["samples"] if draw(st.integers(0, 4)) else WRONG_TYPES | st.floats()
    level = TYPED_VALUES["level"] if draw(st.integers(0, 4)) else WRONG_TYPES
    family = draw(st.sampled_from(["qr13", "qr24"]))
    return family, box, draw(st.integers(1, 4)), draw(samples), draw(level)


class TestParameterScan:
    def test_deterministic_for_fixed_seed(self):
        first = parameter_scan("qr24", QR24_BOX, N=4, samples=60, seed=9, level="full")
        second = parameter_scan("qr24", QR24_BOX, N=4, samples=60, seed=9, level="full")
        assert [p.as_tuple() for p in first] == [p.as_tuple() for p in second]

    def test_seed_changes_draws(self):
        first = parameter_scan("qr24", QR24_BOX, N=4, samples=60, seed=9, level="full")
        other = parameter_scan("qr24", QR24_BOX, N=4, samples=60, seed=10, level="full")
        assert [p.as_tuple() for p in first] != [p.as_tuple() for p in other]

    def test_level_filtering_is_a_subset(self):
        # Same seed generates the same candidate stream, so stricter levels
        # keep a subset of the draws accepted at weaker levels.
        weak = parameter_scan("qr24", QR24_BOX, N=4, samples=80, seed=2, level="contiguity")
        strong = parameter_scan("qr24", QR24_BOX, N=4, samples=80, seed=2, level="full")
        weak_set = {p.as_tuple() for p in weak}
        assert {p.as_tuple() for p in strong} <= weak_set
        assert len(strong) < len(weak)

    def test_draws_respect_ranges(self):
        draws = parameter_scan("qr24", QR24_BOX, N=4, samples=50, seed=1, level="couplings")
        assert draws
        for p in draws:
            assert QR24_BOX["a"][0] <= p.a <= QR24_BOX["a"][1]
            assert QR24_BOX["b"][0] <= p.b <= QR24_BOX["b"][1]
            assert QR24_BOX["c"][0] <= p.c <= QR24_BOX["c"][1]
            assert p.q in set(QR24_BOX["q"])
            assert p.N == 4

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**40 + 3])
    def test_range_sampler_gives_the_bits_of_uniform(self, seed):
        ranges = {
            "negative": [-0.9, -0.05],
            "subnormal width": [0.0, 2e-322],
            "width near 1e308": [-6e307, 5e307],
        }
        for label, (lo, hi) in ranges.items():
            draw = _sampler(np.random.default_rng(seed), [lo, hi], label)
            reference = np.random.default_rng(seed)
            for _ in range(2000):
                assert draw() == float(reference.uniform(lo, hi)), label
        # the shipped scan box: three ranges and a choice list share one generator
        box = json.loads((CONFIG_DIR / "qr24_scan.json").read_text())["ranges"]
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        samplers = [_sampler(rng, box[key], key) for key in "abcq"]
        choices = np.array(box["q"], dtype=float)
        for _ in range(2000):
            expected = [float(reference.uniform(*box[key])) for key in "abc"]
            expected.append(float(choices[reference.integers(choices.size)]))
            assert [sample() for sample in samplers] == expected

    def test_first_family_has_couplings_draws(self):
        draws = parameter_scan("qr13", QR13_BOX, N=4, samples=200, seed=4, level="couplings")
        assert draws

    def test_first_family_full_scan_raises(self):
        with pytest.raises(NoValidParameters, match="qr13"):
            parameter_scan("qr13", QR13_BOX, N=4, samples=100, seed=4, level="full")

    def test_missing_range_key_rejected(self):
        with pytest.raises(ValueError, match="ranges"):
            parameter_scan("qr24", {"a": [-0.5, -0.1]}, N=4, samples=10)

    @pytest.mark.parametrize(
        ("label", "spec", "message"),
        [
            ("a", [-0.9, float("nan")], "ranges['a'] must be a non-empty array of finite numbers"),
            ("c", [float("-inf"), -0.1], "ranges['c'] must be a non-empty array of finite numbers"),
            ("q", [0.3, float("inf"), 0.7],
             "ranges['q'] must be a non-empty array of finite numbers"),
            ("b", [0.9, 0.05], "ranges['b'] = [0.9, 0.05] has hi < lo"),
            ("a", [], "ranges['a'] must be a non-empty array of finite numbers"),
            ("a", [-1e308, 1e308],
             "ranges['a'] = [-1e+308, 1e+308] has a width hi - lo that is not a finite float"),
        ],
        ids=[
            "a-spec0-range for a must be finite",
            "c-spec1-range for c must be finite",
            "q-spec2-range for q must be finite",
            "b-spec3-range for b has hi < lo",
            "a-spec4-range for a is empty",
            "a-spec5-range for a has a width hi - lo that is not finite",
        ],
    )
    def test_bad_range_rejected_when_called_directly(self, label, spec, message):
        # parameter_scan owns the range rules: it refuses a bad range rather
        # than draw from it, and the CLI reports its message as it is.
        with pytest.raises(ConfigError, match=re.escape(message)):
            parameter_scan("qr24", {**QR24_BOX, label: spec}, N=4, samples=10)

    @pytest.mark.parametrize(
        "change",
        [
            {"a": [[-0.9, -0.05]]},
            {"a": {"lo": -0.9, "hi": -0.05}},
            {"q": ["0.3", "0.5"]},
            {"q": "0.5"},
            {"q": [True, 0.5]},
            {"b": 0.5},
            {"b": np.array(0.5)},
            {"a": np.array([[-0.9, -0.05]])},
            {"q": [0.5, 10**400]},
            {"d": [0.1, 0.2]},
        ],
        ids=[
            "nested-list", "mapping", "string-entries", "string", "bool-entry", "scalar",
            "0-d-array", "2-d-array", "huge-int-entry", "unknown-key",
        ],
    )
    def test_malformed_box_rejected(self, change):
        with pytest.raises(ConfigError) as caught:
            parameter_scan("qr24", {**QR24_BOX, **change}, N=4, samples=10)
        assert isinstance(caught.value, ValueError)

    def test_box_not_a_mapping_rejected(self):
        with pytest.raises(ConfigError, match="'ranges' must be a mapping"):
            parameter_scan("qr24", list(QR24_BOX.items()), N=4, samples=10)

    def test_tuples_arrays_and_numpy_integers_are_accepted(self):
        expected = parameter_scan("qr24", QR24_BOX, N=4, samples=40, seed=5, level="couplings")
        for kind in (tuple, np.array):
            box = {key: kind(value) for key, value in QR24_BOX.items()}
            draws = parameter_scan("qr24", box, N=np.int64(4), samples=np.int64(40),
                                   seed=np.uint8(5), level="couplings")
            assert [p.as_tuple() for p in draws] == [p.as_tuple() for p in expected]

    def test_range_of_zero_width_draws_its_one_value(self):
        box = {**QR24_BOX, "a": [-0.3, -0.3]}
        draws = parameter_scan("qr24", box, N=4, samples=20, seed=1, level="couplings")
        assert draws and {p.a for p in draws} == {-0.3}

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError, match="'samples' must be an integer >= 1, got 0"):
            parameter_scan("qr24", QR24_BOX, N=4, samples=0)

    @pytest.mark.parametrize("samples", [True, 2.5], ids=["bool", "float"])
    def test_bad_samples_rejected(self, samples):
        with pytest.raises(ConfigError, match="'samples' must be an integer >= 1") as caught:
            parameter_scan("qr24", QR24_BOX, N=4, samples=samples)
        assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize(("N", "shown"), [
        (0, "0"), (-1, "-1"), (4.9, "4.9"), (True, "True"), ("4", "'4'"),
    ], ids=["zero", "negative", "float", "bool", "string"])
    def test_bad_degree_rejected(self, N, shown):
        # before, 4.9 scanned at N = 4, True at N = 1, and 0 raised NoValidParameters
        with pytest.raises(ConfigError, match=f"^'N' must be an integer >= 1, got {shown}$"):
            parameter_scan("qr24", QR24_BOX, N=N, samples=10)

    @pytest.mark.parametrize(("seed", "shown"), [
        (-1, "-1"), (2.5, "2.5"), (True, "True"),
    ], ids=["negative", "float", "bool"])
    def test_bad_seed_rejected(self, seed, shown):
        # before, -1 raised numpy's bare ValueError, 2.5 a TypeError, and True
        # was taken as seed 1
        with pytest.raises(ConfigError, match=f"^'seed' must be an integer >= 0, got {shown}$"):
            parameter_scan("qr24", QR24_BOX, N=4, samples=10, seed=seed)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=corrupted_scans())
    def test_corrupted_box_returns_draws_or_refuses(self, case):
        family, ranges, N, samples, level = case
        try:
            draws = parameter_scan(family, ranges, N, samples, seed=3, level=level)
        except (ConfigError, NoValidParameters):
            return
        assert draws and all(isinstance(p, QRacahParams) for p in draws)

    def test_draws_the_parameter_record_refuses_are_skipped(self):
        # q outside (0, 1) is refused when the draw is made, not screened:
        # the other choices still give valid draws, and with no other choice
        # nothing passes
        box = {**QR24_BOX, "q": [0.0, 0.5, 0.7]}
        draws = parameter_scan("qr24", box, N=4, samples=30, seed=2, level="couplings")
        assert draws and {p.q for p in draws} <= {0.5, 0.7}
        with pytest.raises(NoValidParameters):
            parameter_scan("qr24", {**QR24_BOX, "q": [1.0, 1.5, 2.0]}, N=4, samples=30, seed=2)

    def test_draws_follow_the_generator_stream(self):
        # Each draw takes a, b, c uniformly and then one q choice from one
        # generator, in that order; the kept draws are a subsequence.
        rng = np.random.default_rng(5)
        stream = []
        for _ in range(40):
            a, b, c = (float(rng.uniform(*QR24_BOX[key])) for key in ("a", "b", "c"))
            q = QR24_BOX["q"][rng.integers(len(QR24_BOX["q"]))]
            stream.append((a, b, c, 4, q))
        draws = parameter_scan("qr24", QR24_BOX, N=4, samples=40, seed=5, level="couplings")
        kept = iter(stream)
        assert draws and all(p.as_tuple() in kept for p in draws)
