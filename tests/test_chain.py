"""Tests for chain construction, closed-form spectra, P/Q tables, and scans.

Oracles: the independently validated contiguity tables (squared couplings are
fixed products of table entries), the Jacobi eigensolver for spectra, and
frozen regression values with exact-rational provenance.
"""

import numpy as np
import pytest

from helpers import QR13_BOX, QR13_CHAIN, QR24_BOX, QR24_DEFAULT, pq_table
from xychain import chain
from xychain.chain import (
    SCAN_LEVELS,
    ChainSpec,
    _SCAN_BLOCK,
    _sampler,
    _screen_block,
    analytic_spectrum,
    build_chain,
    parameter_scan,
    pq_recurrence_residual,
    validate_draw,
)
from xychain.errors import InvalidParameterRegime, NoValidParameters
from xychain.linalg import jacobi_eigh
from xychain.qracah import QRacahParams, _Points, _raw_tables, contiguity_coefficients

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

    def test_negative_radicand_rejected(self):
        params = QRacahParams(a=0.5, b=0.3, c=0.8, N=4, q=0.7)
        for family in ("qr13", "qr24"):
            with pytest.raises(InvalidParameterRegime, match="radicand"):
                build_chain(contiguity_coefficients(family, params))

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
        res_p, res_q = pq_recurrence_residual(pq)
        assert res_p < 1e-12
        assert res_q < 1e-12

    def test_recurrence_on_scan_draws(self):
        draws = parameter_scan(
            "qr24", QR24_BOX, N=6, samples=80, seed=5, level="full"
        )
        assert draws
        for params in draws[:5]:
            res_p, res_q = pq_recurrence_residual(pq_table("qr24", params))
            # Non-normalized columns span orders of magnitude, so relative
            # residuals can reach ~1e-9; the certification tolerance is 1e-8.
            assert max(res_p, res_q) < 1e-8

    def test_corrupted_chain_breaks_recurrence(self):
        # Discrimination: the residual is not vacuously small.
        pq = pq_table("qr24", QR24_DEFAULT)
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

    def test_nan_residual_names_the_failed_check(self):
        params = QRacahParams(a=-5.0, b=-5.0, c=-1e100, N=8, q=1e-6)
        with np.errstate(all="ignore"):
            valid, reason = validate_draw("qr13", params, level="contiguity")
        assert (valid, reason) == (False, "relation-minus residual above tolerance")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            validate_draw("qr24", QR24_DEFAULT, level="extreme")


#: One draw per screen of ``validate_draw`` at level ``full``, with its exact
#: ``(valid, reason)``, in screen order.  The cross-check has no real draw
#: (its two routes multiply the same factors), so it is locked below by
#: perturbing the closed form instead.
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
    (("qr24", 2.37451443960627, 2.8688450563047763, 0.014244055433511704, 4, 0.9),
     "sign-loop condition fails (spectrum not reachable)"),
    (("qr24", 0.8915000363677201, -2.283626489272071, -0.006631933354358743, 4, 0.5),
     "no global sign (P/Q normalization radicands mixed)"),
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

    @pytest.mark.parametrize("family", ["qr13", "qr24"])
    @pytest.mark.parametrize("level", ["contiguity", "full"])
    def test_scan_keeps_the_draws_validate_draw_accepts(self, family, level):
        # A box of discrete choices from the screen draws: the scan keeps
        # exactly the draws that validate_draw accepts one at a time.
        draws = [draw for draw, _ in SCREEN_DRAWS if draw[0] == family]
        ranges = {key: [draw[k] for draw in draws] + [getattr(QR24_DEFAULT, key)]
                  for k, key in ((1, "a"), (2, "b"), (3, "c"), (5, "q"))}
        expected = _replayed_valid_draws(family, ranges, 4, 60, 3, level)
        with np.errstate(all="ignore"):
            if not expected:
                with pytest.raises(NoValidParameters):
                    parameter_scan(family, ranges, N=4, samples=60, seed=3, level=level)
                return
            kept = parameter_scan(family, ranges, N=4, samples=60, seed=3, level=level)
        assert [p.as_tuple() for p in kept] == [p.as_tuple() for p in expected]


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
    def _outcome(screened):
        if isinstance(screened, Exception):
            return str(screened)
        return b"".join(getattr(screened, f).tobytes() for f in TABLE_FIELDS)

    @pytest.mark.parametrize("level", SCAN_LEVELS)
    def test_outcome_does_not_depend_on_neighbours(self, level):
        together = _screen_block("qr24", _Points(self.NEIGHBOURS), level)
        for params, screened in zip(self.NEIGHBOURS, together):
            (alone,) = _screen_block("qr24", _Points([params]), level)
            assert self._outcome(screened) == self._outcome(alone)
        outcomes = [self._outcome(screened) for screened in together]
        assert outcomes[0] == "coefficient table lambda_plus has non-finite entries"
        assert outcomes[2] == "float division by zero"
        assert all(isinstance(outcome, bytes) for outcome in outcomes[1::3])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_table_bytes_do_not_depend_on_neighbours(self):
        together = _raw_tables("qr24", _Points(self.NEIGHBOURS), [None] * len(self.NEIGHBOURS))
        for s, params in enumerate(self.NEIGHBOURS):
            alone = _raw_tables("qr24", _Points([params]), [None])
            for name, table in together.items():
                assert table[s].tobytes() == alone[name][0].tobytes(), (params, name)

    @pytest.mark.parametrize(("family", "box"), [("qr24", QR24_BOX), ("qr13", QR13_BOX)])
    def test_scan_across_a_block_boundary(self, family, box):
        # One more draw than a block: the last draw is a block of its own.
        samples = _SCAN_BLOCK + 1
        expected = _replayed_valid_draws(family, box, 2, samples, 17, "couplings")
        kept = parameter_scan(family, box, N=2, samples=samples, seed=17, level="couplings")
        assert [p.as_tuple() for p in kept] == [p.as_tuple() for p in expected]


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

    @pytest.mark.parametrize(
        ("label", "spec", "message"),
        [
            ("a", [-0.9, float("nan")], "range for a must be finite"),
            ("c", [float("-inf"), -0.1], "range for c must be finite"),
            ("q", [0.3, float("inf"), 0.7], "range for q must be finite"),
            ("b", [0.9, 0.05], "range for b has hi < lo"),
        ],
    )
    def test_bad_range_rejected_when_called_directly(self, label, spec, message):
        # The CLI checks ranges in load_config; a direct call must still
        # refuse them rather than draw from them.
        with pytest.raises(ValueError, match=message):
            parameter_scan("qr24", {**QR24_BOX, label: spec}, N=4, samples=10)

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
