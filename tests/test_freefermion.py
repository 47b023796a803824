"""Tests for the doubled one-particle problem and its certifications.

Oracles: hand-assembled matrices for tiny chains, ``numpy.linalg`` (eigh /
svd) as an independent solver, and direct recomputation of many-body energies
from occupation bitmasks.
"""

import numpy as np
import pytest

from helpers import QR13_CHAIN, QR24_DEFAULT, QR24_BOX, random_chain
from xychain.chain import ChainSpec, build_chain, build_pq_table, parameter_scan
from xychain.errors import SizeCapExceeded
from xychain.freefermion import (
    MANY_BODY_MODE_CAP,
    analytic_vs_numeric,
    assemble,
    eigendecompose,
    eigenvector_crosscheck,
    many_body_spectrum,
    recurrence_check,
    singular_value_check,
)


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
            assert spectral.pairing_error < 1e-12
            assert spectral.ortho_error < 1e-10
            assert spectral.eigen_residual < 1e-10

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
        system = assemble(random_chain(rng, 5))
        spectral = eigendecompose(system)
        n = 5
        np.testing.assert_array_equal(spectral.T[:n, :n], spectral.Psi)
        np.testing.assert_array_equal(spectral.T[n:, :n], spectral.Phi)
        np.testing.assert_array_equal(spectral.T[:n, n:], spectral.Phi)
        np.testing.assert_array_equal(spectral.T[n:, n:], spectral.Psi)

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
        # orthogonal through the zero-mode pairing.
        chain = ChainSpec(alpha=[1.0, 1.0], beta=[0.0, 0.0, 0.0], gamma=[0.0, 0.0])
        spectral = eigendecompose(assemble(chain))
        np.testing.assert_allclose(
            spectral.lambda_numeric, [0.0, np.sqrt(2), np.sqrt(2)], atol=1e-14
        )
        assert spectral.ortho_error < 1e-12
        assert spectral.eigen_residual < 1e-12

    def test_degenerate_spectrum_handled(self):
        # Two decoupled identical sites: doubly degenerate energies.
        chain = ChainSpec(alpha=[0.0], beta=[0.9, 0.9], gamma=[0.0])
        spectral = eigendecompose(assemble(chain))
        np.testing.assert_allclose(spectral.lambda_numeric, [0.9, 0.9], atol=1e-15)
        assert spectral.ortho_error < 1e-12


class TestSingularValueCheck:
    def test_report_passes_on_random_chains(self, rng):
        for n in (2, 5, 7):
            system = assemble(random_chain(rng, n))
            report = singular_value_check(system)
            assert report.passed
            names = [c.name for c in report.checks]
            assert names == ["spectrum-vs-singular-values"]

    def test_agrees_with_numpy_svd(self, rng):
        system = assemble(random_chain(rng, 6))
        spectral = eigendecompose(system)
        oracle = np.sort(np.linalg.svd(system.A + system.B, compute_uv=False))
        scale = max(1.0, float(oracle[-1]))
        assert np.max(np.abs(oracle - spectral.lambda_numeric)) < 1e-12 * scale


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

    def test_mode_cap_enforced(self):
        assert MANY_BODY_MODE_CAP == 24
        with pytest.raises(SizeCapExceeded):
            many_body_spectrum(np.ones(25))


class TestCrosschecks:
    def test_reference_point_crosscheck_passes(self):
        spectral = eigendecompose(assemble(build_chain("qr24", QR24_DEFAULT)))
        pq = build_pq_table("qr24", QR24_DEFAULT)
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
            spectral = eigendecompose(assemble(build_chain("qr24", params)))
            report = eigenvector_crosscheck(spectral, build_pq_table("qr24", params))
            assert report.passed, str(report)

    def test_crosscheck_detects_corruption(self):
        from dataclasses import replace

        spectral = eigendecompose(assemble(build_chain("qr24", QR24_DEFAULT)))
        pq = build_pq_table("qr24", QR24_DEFAULT)
        bad_p = pq.P.copy()
        bad_p[:, 2] = bad_p[::-1, 2] + 0.3
        report = eigenvector_crosscheck(spectral, replace(pq, P=bad_p))
        assert not report.passed

    def test_recurrence_check_report(self):
        report = recurrence_check(build_pq_table("qr24", QR24_DEFAULT))
        assert report.passed
        assert [c.name for c in report.checks] == ["recurrence-P", "recurrence-Q"]

    def test_analytic_vs_numeric_reference(self):
        report = analytic_vs_numeric("qr24", QR24_DEFAULT)
        assert report.passed
        assert report.checks[0].name == "analytic-vs-numeric"
        assert report.checks[0].residual < 1e-12

    def test_analytic_vs_numeric_fails_outside_branch(self):
        # The first family's closed-form branch does not apply at this real
        # chain: the certification must report the genuine mismatch.
        report = analytic_vs_numeric("qr13", QR13_CHAIN)
        assert not report.passed
        assert report.checks[0].residual > 1e-2
