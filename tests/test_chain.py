"""Tests for chain construction, closed-form spectra, P/Q tables, and scans.

Oracles: the independently validated contiguity tables (squared couplings are
fixed products of table entries), the Jacobi eigensolver for spectra, and
frozen regression values with exact-rational provenance.
"""

import numpy as np
import pytest

from helpers import QR13_BOX, QR13_CHAIN, QR24_BOX, QR24_DEFAULT
from xychain.chain import (
    SCAN_LEVELS,
    ChainSpec,
    analytic_spectrum,
    build_chain,
    build_pq_table,
    parameter_scan,
    pq_recurrence_residual,
    validate_draw,
)
from xychain.errors import InvalidParameterRegime, NoValidParameters
from xychain.linalg import jacobi_eigh
from xychain.qracah import QRacahParams, contiguity_coefficients

# Frozen couplings and spectrum at the qr24 reference point.
FROZEN_ALPHA = [0.31065916369567, 0.33974793882028204, 0.2950548157339187, 0.20744776232261103]
FROZEN_BETA = [2.423597470314253, 2.699587526846191, 2.8243181085027893,
               2.8722722137587717, 2.8852712345113574]
FROZEN_GAMMA = [0.10124152823607636, 0.10377750627544419, 0.08710266153520348,
                0.06011170703811548]
FROZEN_LAMBDA = [3.31247048415721, 3.0240364316436827, 2.7572312847417093,
                 2.477255870232123, 2.1459797798727145]


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
        chain = build_chain("qr24", QR24_DEFAULT)
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
        chain = build_chain(family, params, coeffs=coeffs)
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
        chain = build_chain("qr24", QR24_DEFAULT)
        assert np.all(chain.beta > 0)
        assert np.all(chain.alpha - chain.gamma > 0)
        assert np.all(chain.alpha + chain.gamma > 0)

    def test_negative_radicand_rejected(self):
        params = QRacahParams(a=0.5, b=0.3, c=0.8, N=4, q=0.7)
        for family in ("qr13", "qr24"):
            with pytest.raises(InvalidParameterRegime, match="radicand"):
                build_chain(family, params)

    def test_exact_denominator_zero_rejected(self):
        # 1 - a b q^0 = 0 exactly for a = 2, b = 1/2.
        params = QRacahParams(a=2.0, b=0.5, c=0.3, N=4, q=0.7)
        with pytest.raises(InvalidParameterRegime, match="denominator"):
            build_chain("qr24", params)


class TestAnalyticSpectrum:
    def test_frozen_reference_spectrum(self):
        lam = analytic_spectrum("qr24", QR24_DEFAULT)
        np.testing.assert_allclose(lam, FROZEN_LAMBDA, rtol=1e-12)

    def test_all_energies_positive_and_distinct(self):
        lam = analytic_spectrum("qr24", QR24_DEFAULT)
        assert np.all(lam > 0)
        assert np.unique(np.round(lam, 10)).size == lam.size

    def test_matches_numeric_diagonalization(self):
        # Independent numeric route: assemble the doubled one-particle matrix
        # from the constructed couplings and diagonalize with Jacobi.
        from xychain.freefermion import assemble, eigendecompose

        chain = build_chain("qr24", QR24_DEFAULT)
        spectral = eigendecompose(assemble(chain))
        np.testing.assert_allclose(
            np.sort(analytic_spectrum("qr24", QR24_DEFAULT)),
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
            lam = analytic_spectrum("qr24", params)
            spectral = eigendecompose(assemble(build_chain("qr24", params)))
            scale = max(1.0, float(np.max(lam)))
            assert np.max(np.abs(np.sort(lam) - spectral.lambda_numeric)) < 1e-10 * scale


class TestPQTables:
    def test_shapes_and_finiteness(self):
        pq = build_pq_table("qr24", QR24_DEFAULT)
        n = QR24_DEFAULT.N + 1
        assert pq.P.shape == (n, n)
        assert pq.Q.shape == (n, n)
        assert pq.lam.shape == (n,)
        assert np.all(np.isfinite(pq.P)) and np.all(np.isfinite(pq.Q))

    def test_recurrence_residuals_tiny(self):
        # The defining property: (A - B) P = Q diag(lam) and
        # (A + B) Q = P diag(lam) with A, B assembled from the couplings.
        pq = build_pq_table("qr24", QR24_DEFAULT)
        res_p, res_q = pq_recurrence_residual(pq)
        assert res_p < 1e-12
        assert res_q < 1e-12

    def test_recurrence_on_scan_draws(self):
        draws = parameter_scan(
            "qr24", QR24_BOX, N=6, samples=80, seed=5, level="full"
        )
        assert draws
        for params in draws[:5]:
            res_p, res_q = pq_recurrence_residual(build_pq_table("qr24", params))
            # Non-normalized columns span orders of magnitude, so relative
            # residuals can reach ~1e-9; the certification tolerance is 1e-8.
            assert max(res_p, res_q) < 1e-8

    def test_corrupted_chain_breaks_recurrence(self):
        # Discrimination: the residual is not vacuously small.
        pq = build_pq_table("qr24", QR24_DEFAULT)
        bad_beta = pq.chain.beta.copy()
        bad_beta[2] *= 1.01
        bad_chain = ChainSpec(alpha=pq.chain.alpha, beta=bad_beta, gamma=pq.chain.gamma)
        from dataclasses import replace

        res_p, res_q = pq_recurrence_residual(replace(pq, chain=bad_chain))
        assert max(res_p, res_q) > 1e-4


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
            hop_values, _ = jacobi_eigh(system.A)
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
        ok, reason = validate_draw("qr13", QR13_CHAIN, level="couplings")
        assert ok, reason
        ok, reason = validate_draw("qr13", QR13_CHAIN, level="spectral")
        assert not ok
        assert "sign" in reason

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

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            validate_draw("qr24", QR24_DEFAULT, level="extreme")


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

    def test_first_family_has_couplings_draws(self):
        draws = parameter_scan("qr13", QR13_BOX, N=4, samples=200, seed=4, level="couplings")
        assert draws

    def test_first_family_spectral_scan_raises(self):
        with pytest.raises(NoValidParameters, match="qr13"):
            parameter_scan("qr13", QR13_BOX, N=4, samples=100, seed=4, level="full")

    def test_missing_range_key_rejected(self):
        with pytest.raises(ValueError, match="ranges"):
            parameter_scan("qr24", {"a": [-0.5, -0.1]}, N=4, samples=10)
