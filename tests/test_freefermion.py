"""Tests for the doubled one-particle problem and its certifications.

Oracles: hand-assembled matrices for tiny chains, ``numpy.linalg`` (eigh /
svd) as an independent solver, and direct recomputation of many-body energies
from occupation bitmasks.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    CONFIG_DIR,
    QR13_CHAIN,
    QR24_BOX,
    QR24_DEFAULT,
    pq_table,
    random_chain,
    residuals,
)
from xychain import freefermion
from xychain.chain import (
    ChainSpec,
    PQTable,
    analytic_spectrum,
    build_chain,
    parameter_scan,
    recurrence_check,
)
from xychain.errors import SizeCapExceeded
from xychain.freefermion import (
    MANY_BODY_MODE_CAP,
    analytic_vs_numeric,
    assemble,
    eigendecompose,
    eigenvector_crosscheck,
    many_body_spectrum,
    singular_value_check,
    xx_reduction_check,
)
from xychain.qracah import contiguity_coefficients


def orthogonality(spectral):
    """The ``transition-orthogonality`` residual of ``spectral``."""
    return residuals(singular_value_check(spectral))["transition-orthogonality"]


def eigen_residual(spectral):
    """Largest entry of ``H [Psi; Phi] - [Psi; Phi] diag(lambda)``, relative
    to the largest ``lambda``."""
    stacked = np.vstack([spectral.Psi, spectral.Phi])
    lam = spectral.lambda_numeric
    residual = spectral.system.H @ stacked - stacked * lam[None, :]
    return float(np.max(np.abs(residual))) / max(float(lam[-1]), 1e-300)


def gathered_many_body(lam):
    """:func:`many_body_spectrum` with full-size steps: the sorted energies
    gathered by the ``argsort`` order, the ties from ``np.diff`` and a
    separate run key.  It shares no step with the in-place sort, the
    blockwise tie test or the key built into the order."""
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    energies = np.empty(1 << n)
    energies[0] = -float(lam.sum())
    for j in range(n):
        np.add(energies[: 1 << j], 2.0 * lam[j], out=energies[1 << j : 2 << j])
    order = np.argsort(energies)
    energies = energies[order]
    tie = np.diff(energies) <= n * np.finfo(float).eps * float(np.abs(lam).sum())
    run = np.concatenate([[0], np.cumsum(~tie)])
    masks = order[np.lexsort((order, run))]
    energies[1:][tie] = -np.inf
    return np.maximum.accumulate(energies), masks


class TestAssemble:
    def test_single_site(self):
        system = assemble(ChainSpec(alpha=[], beta=[0.7], gamma=[]))
        np.testing.assert_array_equal(system.A, [[0.7]])
        np.testing.assert_array_equal(system.B, [[0.0]])
        np.testing.assert_array_equal(system.H, [[0.7, 0.0], [0.0, -0.7]])

    def test_two_sites_hand_assembly(self):
        chain = ChainSpec(alpha=[0.4], beta=[0.1, 0.2], gamma=[0.3])
        system = assemble(chain)
        np.testing.assert_array_equal(system.A, [[0.1, 0.4], [0.4, 0.2]])
        np.testing.assert_array_equal(system.B, [[0.0, 0.3], [-0.3, 0.0]])
        expected_h = np.block(
            [[system.A, system.B], [-system.B, -system.A]]
        )
        np.testing.assert_array_equal(system.H, expected_h)

    def test_doubled_matrix_is_symmetric(self, rng):
        system = assemble(random_chain(rng, 6))
        np.testing.assert_array_equal(system.H, system.H.T)


class TestEigendecompose:
    def test_structure_on_random_chains(self, rng):
        for n in (2, 3, 5, 8):
            system = assemble(random_chain(rng, n))
            spectral = eigendecompose(system)
            assert spectral.lambda_numeric.shape == (n,)
            assert np.all(spectral.lambda_numeric >= 0)
            assert np.all(np.diff(spectral.lambda_numeric) >= 0)
            doubled = residuals(singular_value_check(spectral))
            assert doubled["spectrum-parity"] < 1e-12
            assert doubled["transition-orthogonality"] < 1e-10
            assert eigen_residual(spectral) < 1e-10

    def test_matches_numpy_oracle(self, rng):
        for n in (2, 4, 7):
            system = assemble(random_chain(rng, n))
            spectral = eigendecompose(system)
            oracle = np.linalg.eigvalsh(system.H)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            np.testing.assert_allclose(
                spectral.lambda_numeric, oracle[n:], rtol=0, atol=1e-12 * scale
            )

    def test_transition_matrix_block_structure(self, rng):
        # transition-orthogonality reads T = [[Psi, Phi], [Phi, Psi]]
        spectral = eigendecompose(assemble(random_chain(rng, 5)))
        t = np.block([[spectral.Psi, spectral.Phi], [spectral.Phi, spectral.Psi]])
        assert orthogonality(spectral) == np.max(np.abs(t.T @ t - np.eye(10)))

    def test_transition_columns_diagonalize(self, rng):
        # H [psi; phi] = lam [psi; phi] column by column.
        system = assemble(random_chain(rng, 6))
        spectral = eigendecompose(system)
        stacked = np.vstack([spectral.Psi, spectral.Phi])
        residual = system.H @ stacked - stacked * spectral.lambda_numeric
        scale = max(1.0, float(np.max(np.abs(system.H))))
        assert np.max(np.abs(residual)) < 1e-10 * scale

    def test_exact_zero_modes_handled(self):
        # A field-free hopping chain with an odd number of sites has an exact
        # zero single-particle energy; the transition matrix must stay
        # orthogonal with whichever null vectors the SVD pairs.
        chain = ChainSpec(alpha=[1.0, 1.0], beta=[0.0, 0.0, 0.0], gamma=[0.0, 0.0])
        spectral = eigendecompose(assemble(chain))
        np.testing.assert_allclose(
            spectral.lambda_numeric, [0.0, np.sqrt(2), np.sqrt(2)], atol=1e-14
        )
        assert orthogonality(spectral) < 1e-12
        assert eigen_residual(spectral) < 1e-12

    def test_degenerate_spectrum_handled(self):
        # Two decoupled identical sites: doubly degenerate energies.
        chain = ChainSpec(alpha=[0.0], beta=[0.9, 0.9], gamma=[0.0])
        spectral = eigendecompose(assemble(chain))
        np.testing.assert_allclose(spectral.lambda_numeric, [0.9, 0.9], atol=1e-15)
        assert orthogonality(spectral) < 1e-12


    def test_near_zero_modes_on_graded_chains(self):
        # Couplings falling geometrically along the chain give modes many
        # orders below the largest that are not exact zeros; 8 of these 20
        # chains once paired more zero-mode columns than they had modes.
        for system in graded_systems():
            spectral = eigendecompose(system)
            n = system.n_sites
            assert spectral.Psi.shape == spectral.Phi.shape == (n, n)
            oracle = np.linalg.eigvalsh(system.H)[n:]
            scale = max(1.0, float(np.max(oracle)))
            assert np.max(np.abs(spectral.lambda_numeric - oracle)) < 1e-12 * scale
            assert eigen_residual(spectral) < 1e-10

    def test_graded_chains_orthogonal_and_relatively_accurate(self):
        # The doubled-matrix Jacobi left T up to 5.8e-6 from orthogonal here
        # and lost the small modes' relative accuracy.
        for system in graded_systems():
            spectral = eigendecompose(system)
            assert orthogonality(spectral) <= 1e-12
            oracle = np.sort(np.linalg.svd(system.A + system.B, compute_uv=False))
            np.testing.assert_allclose(spectral.lambda_numeric, oracle, rtol=1e-13, atol=0)


def graded_systems():
    """20 seeded chains of 2..6 sites whose couplings fall geometrically."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        decay = 10.0 ** -rng.uniform(1, 4)
        yield assemble(
            ChainSpec(
                alpha=rng.uniform(-1, 1, n - 1) * decay ** np.arange(n - 1),
                beta=rng.uniform(-1, 1, n) * decay ** np.arange(n),
                gamma=rng.uniform(-1, 1, n - 1) * decay ** np.arange(n - 1),
            )
        )


class TestSingularValueCheck:
    def test_report_passes_on_random_chains(self, rng):
        for n in (2, 5, 7):
            system = assemble(random_chain(rng, n))
            report = singular_value_check(eigendecompose(system))
            assert report.passed
            names = [c.name for c in report.checks]
            assert names == [
                "spectrum-parity", "transition-orthogonality", "spectrum-vs-singular-values"
            ]

    def test_agrees_with_numpy_svd(self, rng):
        system = assemble(random_chain(rng, 6))
        spectral = eigendecompose(system)
        oracle = np.sort(np.linalg.svd(system.A + system.B, compute_uv=False))
        scale = max(1.0, float(oracle[-1]))
        assert np.max(np.abs(oracle - spectral.lambda_numeric)) < 1e-12 * scale


    def test_huge_coupling_does_not_overflow_the_gram_product(self):
        # (A + B)^T (A + B) would hold 1e400; the singular values do not.
        chain = ChainSpec(alpha=[1e200, 1.0, 1.0], beta=[0.0] * 4, gamma=[0.0] * 3)
        with np.errstate(over="ignore"):  # tau^2 = inf in a Jacobi angle gives t = 0
            report = singular_value_check(eigendecompose(assemble(chain)))
        assert report.passed, report.checks


class TestXXReductionCheck:
    def test_passes_on_xx_chain_and_fails_on_xy_modes(self, rng):
        chain = ChainSpec(
            alpha=rng.uniform(-1.5, 1.5, 4), beta=rng.uniform(-1.5, 1.5, 5), gamma=np.zeros(4)
        )
        report = xx_reduction_check(eigendecompose(assemble(chain)))
        assert report.passed
        assert [c.name for c in report.checks] == ["xx-reduction"]
        # Discrimination: with gamma switched on, the modes no longer are |eig(A)|.
        xy = ChainSpec(alpha=chain.alpha, beta=chain.beta, gamma=np.full(4, 0.5))
        assert not xx_reduction_check(eigendecompose(assemble(xy))).passed


class TestManyBody:
    def test_single_mode(self):
        spectrum = many_body_spectrum(np.array([1.5]))
        np.testing.assert_allclose(spectrum.energies, [-1.5, 1.5])
        np.testing.assert_array_equal(spectrum.masks, [0b0, 0b1])

    def test_two_modes_hand_enumeration(self):
        spectrum = many_body_spectrum(np.array([1.0, 2.0]))
        np.testing.assert_allclose(spectrum.energies, [-3.0, -1.0, 1.0, 3.0])
        np.testing.assert_array_equal(spectrum.masks, [0b00, 0b01, 0b10, 0b11])

    def test_energies_recomputable_from_masks(self, rng):
        lam = rng.uniform(0.1, 3.0, 6)
        spectrum = many_body_spectrum(lam)
        total = lam.sum()
        for mask, energy in zip(spectrum.masks, spectrum.energies):
            occupied = [j for j in range(6) if int(mask) >> j & 1]
            assert energy == pytest.approx(2 * lam[occupied].sum() - total, rel=1e-13)

    def test_particle_hole_symmetry(self, rng):
        lam = rng.uniform(0.0, 2.0, 7)
        spectrum = many_body_spectrum(lam)
        np.testing.assert_allclose(
            spectrum.energies, -spectrum.energies[::-1], atol=1e-11
        )

    def test_sorted_ascending(self, rng):
        spectrum = many_body_spectrum(rng.uniform(0.1, 2.0, 8))
        assert np.all(np.diff(spectrum.energies) >= 0)

    def test_degenerate_levels_ordered_by_mask(self):
        # configs/xx_uniform.json has levels degenerate in exact arithmetic
        # whose float energies differ in the last bits.  Moving one mode by
        # two ulps must leave the mask column as it is.
        config = json.loads((CONFIG_DIR / "xx_uniform.json").read_text())
        chain = ChainSpec(alpha=config["alpha"], beta=config["beta"], gamma=config["gamma"])
        lam = eigendecompose(assemble(chain)).lambda_numeric
        spectrum = many_body_spectrum(lam)
        assert np.all(np.diff(spectrum.energies) >= 0)
        for j in range(lam.size):
            for direction in (-np.inf, np.inf):
                moved = lam.copy()
                moved[j] = np.nextafter(np.nextafter(lam[j], direction), direction)
                np.testing.assert_array_equal(many_body_spectrum(moved).masks, spectrum.masks)

    def test_degenerate_run_takes_its_first_energy(self):
        # Modes 0.1 + 0.2 and mode 0.3 differ in the last bits, and by
        # rounding mask 4 came first: one level now, masks ascending.
        spectrum = many_body_spectrum(np.array([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(spectrum.masks, np.arange(8))
        assert spectrum.energies[3] == spectrum.energies[4]
        assert np.all(np.diff(spectrum.energies) >= 0.0)

    @pytest.mark.parametrize("config_name", ["xx_uniform.json", None])
    def test_tie_rule_scales_with_the_couplings(self, config_name):
        # The tie tolerance is relative to sum |lam|: a chain scaled by 1e-17
        # keeps its distinct levels apart and its masks, and its energies are
        # the unscaled ones times 1e-17.  ``None`` is the 3-site chain with
        # hoppings 1e-17, whose 8 levels an absolute floor of n * eps merged.
        if config_name is None:
            config = {"alpha": [1.0, 1.0], "beta": [0.0, 0.0, 0.0], "gamma": [0.0, 0.0]}
        else:
            config = json.loads((CONFIG_DIR / config_name).read_text())
        spectra = []
        for scale in (1.0, 1e-17):
            chain = ChainSpec(alpha=np.multiply(config["alpha"], scale),
                              beta=np.multiply(config["beta"], scale),
                              gamma=np.multiply(config["gamma"], scale))
            spectra.append(many_body_spectrum(eigendecompose(assemble(chain)).lambda_numeric))
        unscaled, scaled = spectra
        np.testing.assert_array_equal(scaled.masks, unscaled.masks)
        bound = 1e-17 * 1e-14 * np.max(np.abs(unscaled.energies))
        np.testing.assert_allclose(scaled.energies, 1e-17 * unscaled.energies, rtol=0, atol=bound)
        assert np.unique(scaled.energies).size == np.unique(unscaled.energies).size > 1

    # All-zero modes give one run of -0.0 and 0.0, whose head's sign the
    # in-place sort does not keep; [0.5, 0.5] a run of zeros after -1.0; 17
    # random modes and the 16 of a uniform XX chain more than one block.
    @pytest.mark.parametrize("lam", [
        [0.0] * 4, [0.0] * 17, [0.5, 0.5], [0.1, 0.2, 0.3],
        pytest.param(np.random.default_rng(7).uniform(0.1, 2.0, 17), id="random-17"),
        pytest.param(np.abs(2 * np.cos(np.pi * np.arange(1, 17) / 17)), id="xx-16"),
    ])
    def test_bits_are_the_gathered_enumeration(self, lam):
        spectrum = many_body_spectrum(np.array(lam))
        energies, masks = gathered_many_body(lam)
        assert spectrum.energies.tobytes() == energies.tobytes()
        np.testing.assert_array_equal(spectrum.masks, masks)
        assert spectrum.masks.dtype == np.uint32
        if len(lam) == 17:
            assert energies.size > freefermion._RUN_BLOCK

    @pytest.mark.parametrize("lam", [[1e308, 1e308], [0.0, 1e308]])
    def test_energies_beyond_the_float_range_raise(self, lam):
        # -sum(lam) and 2 lam_1 leave the float range, though every energy of
        # the second (+-1e308) is a float
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            OverflowError, match="many-body energies too large for a float"
        ):
            many_body_spectrum(np.array(lam))

    def test_mode_cap_enforced(self):
        assert MANY_BODY_MODE_CAP == 24
        with pytest.raises(SizeCapExceeded):
            many_body_spectrum(np.ones(25))


class TestCrosschecks:
    def test_reference_point_crosscheck_passes(self):
        chain = build_chain(contiguity_coefficients("qr24", QR24_DEFAULT))
        spectral = eigendecompose(assemble(chain))
        pq = pq_table("qr24", QR24_DEFAULT)
        report = eigenvector_crosscheck(spectral, pq)
        assert report.passed
        names = [c.name for c in report.checks]
        assert "eigenvalue-matching" in names
        assert any(name.startswith("P-modes") for name in names)
        assert any(name.startswith("Q-modes") for name in names)

    def test_crosscheck_on_scan_draws(self):
        draws = parameter_scan("qr24", QR24_BOX, N=5, samples=100, seed=6, level="full")
        assert draws
        for params in draws[:5]:
            chain = build_chain(contiguity_coefficients("qr24", params))
            spectral = eigendecompose(assemble(chain))
            report = eigenvector_crosscheck(spectral, pq_table("qr24", params))
            assert report.passed, str(report)

    def test_crosscheck_detects_corruption(self):
        chain = build_chain(contiguity_coefficients("qr24", QR24_DEFAULT))
        spectral = eigendecompose(assemble(chain))
        pq = pq_table("qr24", QR24_DEFAULT)
        bad_p = pq.P.copy()
        bad_p[:, 2] = bad_p[::-1, 2] + 0.3
        report = eigenvector_crosscheck(spectral, replace(pq, P=bad_p))
        assert not report.passed

    @staticmethod
    def _cluster_tables():
        """Two identical decoupled 3-site XY blocks, so every mode is doubly
        degenerate, with ``P``/``Q`` tables from ``numpy.linalg.svd``: each
        pair is mixed by one rotation and its two columns rescaled apart."""
        block = ([0.8, -1.1], [0.3, -0.6, 0.9], [0.4, 0.2])
        chain = ChainSpec(alpha=block[0] + [0.0] + block[0], beta=block[1] * 2,
                          gamma=block[2] + [0.0] + block[2])
        system = assemble(chain)
        left, values, right_t = np.linalg.svd(system.A + system.B)
        p, q, lam = left[:, ::-1], right_t[::-1].T, values[::-1]
        turn = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
        mix = np.kron(np.eye(3), turn) * np.tile([2.0, 0.3], 3)
        return eigendecompose(system), PQTable(P=p @ mix, Q=q @ mix, lam=lam, chain=chain)

    def test_degenerate_clusters_pass_clean(self):
        spectral, pq = self._cluster_tables()
        rows = eigenvector_crosscheck(spectral, pq).checks[1:]
        assert [row.name for row in rows] == [
            f"{side}-modes-{j}..{j + 1}" for j in (0, 2, 4) for side in "PQ"
        ]
        assert all(0.0 <= row.residual <= 1e-14 for row in rows)

    def test_tilt_out_of_a_cluster_fails(self):
        # P column 0 leans 1e-6 of its norm towards the numeric P column of
        # mode 2, which is orthogonal to the numeric span of modes 0 and 1
        spectral, pq = self._cluster_tables()
        bad_p = pq.P.copy()
        tilt = spectral.Psi[:, 2] - spectral.Phi[:, 2]
        bad_p[:, 0] += 1e-6 * np.linalg.norm(bad_p[:, 0]) * tilt
        report = eigenvector_crosscheck(spectral, replace(pq, P=bad_p))
        assert [row.name for row in report.checks if not row.passed] == ["P-modes-0..1"]
        rows = residuals(report)
        assert rows["P-modes-0..1"] > 0.9e-6
        assert rows["Q-modes-0..1"] <= 1e-14

    def test_single_modes_need_no_svd(self, monkeypatch):
        # every mode of the reference point is single, and a single mode's
        # sine is one column norm
        chain = build_chain(contiguity_coefficients("qr24", QR24_DEFAULT))
        spectral = eigendecompose(assemble(chain))

        def refuse(matrix):
            raise AssertionError("jacobi_svd called")

        monkeypatch.setattr(freefermion, "jacobi_svd", refuse)
        report = eigenvector_crosscheck(spectral, pq_table("qr24", QR24_DEFAULT))
        assert report.passed
        assert len(report.checks) == 11

    @staticmethod
    def _unit_modes(lam, P):
        """Numeric modes along the unit vectors with the values ``lam``, and
        analytic tables ``P`` and ``Q = I`` for them."""
        n = len(lam)
        lam = np.array(lam, dtype=float)
        spectral = freefermion.SpectralData(lambda_numeric=lam, Psi=np.eye(n),
                                            Phi=np.zeros((n, n)), system=None)
        return spectral, PQTable(P=np.array(P, dtype=float), Q=np.eye(n), lam=lam, chain=None)

    def test_modes_the_degeneracy_gap_apart_form_one_cluster(self):
        # modes 0 and 1 are 1e-8 apart, DEGENERACY_TOL times the largest value
        spectral, pq = self._unit_modes([0.0, 1e-8, 1.0], np.eye(3))
        assert [row.name for row in eigenvector_crosscheck(spectral, pq).checks[1:]] == [
            "P-modes-0..1", "Q-modes-0..1", "P-modes-2", "Q-modes-2"]

    def test_column_at_the_vanishing_cut_is_skipped(self):
        # the P column of mode 1 peaks at 1e-12 of the tables' largest entry
        spectral, pq = self._unit_modes([1.0, 2.0, 3.0], np.diag([1.0, 1e-12, 1.0]))
        report = eigenvector_crosscheck(spectral, pq)
        assert "P-modes-1" not in residuals(report)
        assert report.notes == ["P-modes-1: analytic column vanishes; skipped"]

    @pytest.mark.parametrize(("largest", "residual"), [(1.0, 0.0), (0.5, 1.0)])
    def test_cluster_cut_is_relative_to_its_largest_value(self, largest, residual):
        # The cluster of modes 0 and 1 spans e0 and e1, and its analytic P
        # columns are largest * e0 and 1e-10 * e2.  Cut at 1e-10 times the
        # largest singular value, e2 is dropped at largest = 1 and kept, a
        # whole unit out of the numeric span, at largest = 0.5.
        P = np.zeros((3, 3))
        P[0, 0], P[2, 1], P[2, 2] = largest, 1e-10, 1.0
        spectral, pq = self._unit_modes([1.0, 1.0, 2.0], P)
        assert residuals(eigenvector_crosscheck(spectral, pq))["P-modes-0..1"] == residual

    def test_single_mode_row_is_the_sine_of_its_angle(self):
        # the P column of mode 0 is turned 0.5 rad away from its numeric mode
        P = np.eye(3)
        P[:2, 0] = np.cos(0.5), np.sin(0.5)
        spectral, pq = self._unit_modes([1.0, 2.0, 3.0], P)
        row = residuals(eigenvector_crosscheck(spectral, pq))["P-modes-0"]
        assert row == pytest.approx(np.sin(0.5), rel=1e-15)

    @staticmethod
    def _default_point():
        """The chain, the numeric decomposition and the P/Q tables of the
        shipped qr24 point (``configs/qr24_default.json``), whose largest
        Lambda is 3.31."""
        chain = build_chain(contiguity_coefficients("qr24", QR24_DEFAULT))
        return chain, eigendecompose(assemble(chain)), pq_table("qr24", QR24_DEFAULT)

    @staticmethod
    def _rows(spectral, pq):
        return [(row.name, row.residual.hex(), row.passed)
                for row in eigenvector_crosscheck(spectral, pq).checks]

    @pytest.mark.parametrize("k", [-30, -4, 4, 30, 300])
    def test_power_of_two_scale_keeps_every_row(self, k):
        # 2^k times the chain has 2^k times its spectrum and the same
        # eigenvectors; P and Q are unchanged
        chain, spectral, pq = self._default_point()
        scaled = ChainSpec(chain.alpha * 2.0**k, chain.beta * 2.0**k, chain.gamma * 2.0**k)
        rows = self._rows(eigendecompose(assemble(scaled)),
                          replace(pq, lam=pq.lam * 2.0**k, chain=scaled))
        assert rows == self._rows(spectral, pq)

    def test_tables_whose_squares_overflow_keep_every_row(self):
        # the entries reach 1.3e302, so the column norms overflow unless the
        # tables are brought down before them
        _, spectral, pq = self._default_point()
        huge = replace(pq, P=pq.P * 2.0**1000, Q=pq.Q * 2.0**1000)
        assert np.max(np.abs(huge.P)) > np.sqrt(np.finfo(float).max)
        assert self._rows(spectral, huge) == self._rows(spectral, pq)

    def test_non_table_argument_raises(self):
        _, spectral, pq = self._default_point()
        with pytest.raises(TypeError, match="expected a PQTable, got tuple"):
            eigenvector_crosscheck(spectral, (pq.P, pq.Q, pq.lam))

    def test_mode_count_mismatch_raises(self):
        pq = pq_table("qr24", QR24_DEFAULT)
        spectral = eigendecompose(assemble(ChainSpec(alpha=[1.0], beta=[0.0, 0.0], gamma=[0.0])))
        with pytest.raises(ValueError, match="5 analytic modes against 2 numeric ones"):
            eigenvector_crosscheck(spectral, pq)

    def test_recurrence_check_report(self):
        report = recurrence_check(pq_table("qr24", QR24_DEFAULT))
        assert report.passed
        assert [c.name for c in report.checks] == ["recurrence-P", "recurrence-Q"]

    def test_analytic_vs_numeric_reference(self):
        coeffs = contiguity_coefficients("qr24", QR24_DEFAULT)
        spectral = eigendecompose(assemble(build_chain(coeffs)))
        report = analytic_vs_numeric(analytic_spectrum(coeffs), spectral)
        assert report.passed
        assert report.checks[0].name == "analytic-vs-numeric"
        assert report.checks[0].residual < 1e-12

    def test_analytic_vs_numeric_fails_outside_branch(self):
        # The coupling roots at this point have mixed signs.  The chain of
        # their magnitudes is real but has another spectrum, and the
        # certification must report the mismatch; build_chain's branch passes.
        coeffs = contiguity_coefficients("qr13", QR13_CHAIN)
        lam = analytic_spectrum(coeffs)
        signed = build_chain(coeffs)
        diff = np.abs(signed.alpha - signed.gamma)
        ssum = np.abs(signed.alpha + signed.gamma)
        magnitudes = ChainSpec(0.5 * (ssum + diff), np.abs(signed.beta), 0.5 * (ssum - diff))
        report = analytic_vs_numeric(lam, eigendecompose(assemble(magnitudes)))
        assert not report.passed
        assert report.checks[0].residual > 1e-2
        assert analytic_vs_numeric(lam, eigendecompose(assemble(signed))).passed
