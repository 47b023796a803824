"""Tests for the brute-force spin-chain oracle.

Oracles: hand-written matrices for one- and two-site chains, and
``numpy.linalg.eigvalsh`` for everything larger.  ``jw_certify`` is itself a
certification; here we certify the certifier on cases small enough to check
by hand.
"""

import numpy as np
import pytest

from helpers import QR13_CHAIN, QR24_DEFAULT, random_chain
from xychain.chain import ChainSpec, build_chain
from xychain.errors import SizeCapExceeded
from xychain.freefermion import assemble, eigendecompose, many_body_spectrum
from xychain.spinoracle import (
    SPIN_DIMENSION_CAP,
    build_spin_hamiltonian,
    jw_certify,
    oracle_spectrum,
)


class TestHamiltonianAssembly:
    def test_single_site_is_field_term(self):
        chain = ChainSpec(alpha=[], beta=[0.7], gamma=[])
        np.testing.assert_array_equal(
            build_spin_hamiltonian(chain), [[-0.7, 0.0], [0.0, 0.7]]
        )

    def test_two_site_pure_hopping_spectrum(self):
        # alpha = 1, beta = gamma = 0: the xx + yy bond has eigenvalues
        # {-2, 0, 0, 2} (Bell basis).
        chain = ChainSpec(alpha=[1.0], beta=[0.0, 0.0], gamma=[0.0])
        values = np.linalg.eigvalsh(build_spin_hamiltonian(chain))
        np.testing.assert_allclose(values, [-2.0, 0.0, 0.0, 2.0], atol=1e-14)

    def test_two_site_hand_matrix(self):
        # H = (a+g) XX + (a-g) YY - b0 ZI - b1 IZ, written out in the
        # computational basis |00>, |01>, |10>, |11> with site 0 leftmost.
        a, g, b0, b1 = 0.4, 0.1, 0.25, -0.35
        chain = ChainSpec(alpha=[a], beta=[b0, b1], gamma=[g])
        xx = np.kron([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real
        z0 = np.kron(np.diag([1, -1]), np.eye(2))
        z1 = np.kron(np.eye(2), np.diag([1, -1]))
        expected = (a + g) * xx + (a - g) * yy - b0 * z0 - b1 * z1
        np.testing.assert_allclose(build_spin_hamiltonian(chain), expected, atol=1e-15)

    def test_symmetric_and_traceless(self, rng):
        matrix = build_spin_hamiltonian(random_chain(rng, 4))
        np.testing.assert_array_equal(matrix, matrix.T)
        assert abs(np.trace(matrix)) < 1e-12

    def test_dimension_cap(self):
        chain = ChainSpec(
            alpha=np.ones(9), beta=np.zeros(10), gamma=np.zeros(9)
        )
        assert SPIN_DIMENSION_CAP == 512
        with pytest.raises(SizeCapExceeded):
            build_spin_hamiltonian(chain)


class TestOracleSpectrum:
    def test_matches_numpy(self, rng):
        for n in (2, 3, 4):
            matrix = build_spin_hamiltonian(random_chain(rng, n))
            values = oracle_spectrum(matrix)
            oracle = np.linalg.eigvalsh(matrix)
            scale = max(1.0, float(np.max(np.abs(oracle))))
            np.testing.assert_allclose(values, oracle, rtol=0, atol=1e-11 * scale)

    def test_spectrum_symmetric_about_zero(self, rng):
        # Free-fermion structure: many-body levels come in (S, complement)
        # pairs with opposite energies, even with a transverse field.
        values = oracle_spectrum(build_spin_hamiltonian(random_chain(rng, 3)))
        np.testing.assert_allclose(values, -values[::-1], atol=1e-12)


class TestJordanWignerCertification:
    def test_random_chains_certify(self, rng):
        for n in (2, 3, 4, 5):
            report = jw_certify(random_chain(rng, n))
            assert report.passed, str(report)
            assert report.checks[0].name == "many-body-multiset"

    def test_xx_chain_certifies(self):
        chain = ChainSpec(
            alpha=[1.0, 1.0, 1.0], beta=[0.5] * 4, gamma=[0.0, 0.0, 0.0]
        )
        assert jw_certify(chain).passed

    def test_family_chains_certify(self):
        # Both family constructions produce genuine free-fermion chains, even
        # where the closed-form energy branch does not apply.
        for family, params in (("qr24", QR24_DEFAULT), ("qr13", QR13_CHAIN)):
            report = jw_certify(build_chain(family, params))
            assert report.passed, str(report)

    def test_matches_bitmask_enumeration(self, rng):
        # Independent route: numpy-diagonalized spin spectrum vs bitmask
        # enumeration of the free-fermion levels.
        chain = random_chain(rng, 4)
        lam = eigendecompose(assemble(chain)).lambda_numeric
        fermion = many_body_spectrum(lam).energies
        spin = np.linalg.eigvalsh(build_spin_hamiltonian(chain))
        scale = max(1.0, float(np.max(np.abs(spin))))
        assert np.max(np.abs(np.sort(fermion) - spin)) < 1e-11 * scale

    def test_detects_broken_chain_mapping(self, rng):
        # Discrimination: certifying chain A against the modes of chain B
        # must fail.
        chain = random_chain(rng, 3)
        other = ChainSpec(
            alpha=chain.alpha * 1.1, beta=chain.beta, gamma=chain.gamma
        )
        spectral = eigendecompose(assemble(other))
        report = jw_certify(chain, spectral=spectral)
        assert not report.passed
