"""Tests for the brute-force spin-chain oracle.

Oracles: hand-written matrices for one- and two-site chains, the Kronecker
product construction of the Hamiltonian, and ``numpy.linalg.eigvalsh`` for
spectra.  ``jw_certify`` is itself a certification; here we certify the
certifier on cases small enough to check by hand.
"""

from math import comb

import numpy as np
import pytest

from helpers import QR13_CHAIN, QR24_DEFAULT, bind_everywhere, random_chain
from xychain.chain import ChainSpec, build_chain
from xychain.errors import SizeCapExceeded
from xychain.freefermion import (
    assemble,
    eigendecompose,
    many_body_spectrum,
    singular_value_check,
)
from xychain.qracah import contiguity_coefficients
from xychain.spinoracle import (
    SPIN_DIMENSION_CAP,
    _coupled_blocks,
    build_spin_hamiltonian,
    jw_certify,
    oracle_spectrum,
)

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])
# i * sigma_y is real; sigma_y x sigma_y = -(i sigma_y) x (i sigma_y)
_I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _site_operator(op, site, n_sites):
    """Kronecker embedding of a single-site operator (site 0 leftmost)."""
    left = np.eye(2**site)
    right = np.eye(2 ** (n_sites - site - 1))
    return np.kron(np.kron(left, op), right)


def kronecker_hamiltonian(chain):
    """The spin Hamiltonian summed from Kronecker products, term by term."""
    n = chain.n_sites
    h = np.zeros((2**n, 2**n))
    for j in range(n - 1):
        xx = _site_operator(_SIGMA_X, j, n) @ _site_operator(_SIGMA_X, j + 1, n)
        yy = -(_site_operator(_I_SIGMA_Y, j, n) @ _site_operator(_I_SIGMA_Y, j + 1, n))
        h += (chain.alpha[j] + chain.gamma[j]) * xx
        h += (chain.alpha[j] - chain.gamma[j]) * yy
    for j in range(n):
        h -= chain.beta[j] * _site_operator(_SIGMA_Z, j, n)
    return h


def model_chain(rng, n_sites, model):
    """A random XY chain, or for ``"xx"`` the same chain with ``gamma = 0``."""
    chain = random_chain(rng, n_sites)
    if model == "xx":
        return ChainSpec(alpha=chain.alpha, beta=chain.beta, gamma=np.zeros(n_sites - 1))
    return chain


def break_everywhere(monkeypatch, name):
    """Make every binding of ``xychain.linalg.<name>`` in the package raise."""

    def broken(*args, **kwargs):
        raise AssertionError(f"{name} must not be called on this route")

    bind_everywhere(monkeypatch, name, broken)


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

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("model", ["xy", "xx"])
    def test_matches_kronecker_construction(self, rng, n, model):
        # Same sums in the same order as the Kronecker route: equal bit for bit.
        chain = model_chain(rng, n, model)
        np.testing.assert_array_equal(
            build_spin_hamiltonian(chain), kronecker_hamiltonian(chain)
        )

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

    @pytest.mark.parametrize("n", [6, 7, 8])
    @pytest.mark.parametrize("model", ["xy", "xx"])
    def test_sectors_match_numpy(self, rng, n, model):
        chain = model_chain(rng, n, model)
        matrix = build_spin_hamiltonian(chain)
        oracle = np.linalg.eigvalsh(matrix)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        np.testing.assert_allclose(
            oracle_spectrum(matrix), oracle, rtol=0, atol=1e-11 * scale
        )

    @pytest.mark.parametrize("model", ["xy", "xx"])
    def test_blocks_are_symmetry_sectors(self, rng, model):
        # Parity sectors for the XY chain; magnetization sectors when gamma = 0.
        n = 6
        chain = model_chain(rng, n, model)
        blocks = _coupled_blocks(build_spin_hamiltonian(chain))
        ones = [{bin(int(state)).count("1") for state in block} for block in blocks]
        if model == "xy":
            assert sorted(map(len, blocks)) == [2 ** (n - 1)] * 2
            assert all(len({k % 2 for k in counts}) == 1 for counts in ones)
        else:
            assert sorted(map(len, blocks)) == sorted(comb(n, k) for k in range(n + 1))
            assert all(len(counts) == 1 for counts in ones)

    def test_cross_sector_entry_merges_sectors(self, rng):
        # Discrimination: an entry linking the two parity sectors must join
        # them into one block, not be dropped by the split.
        matrix = build_spin_hamiltonian(random_chain(rng, 5))
        matrix[0, 1] = matrix[1, 0] = 0.75
        oracle = np.linalg.eigvalsh(matrix)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        assert len(_coupled_blocks(matrix)) == 1
        np.testing.assert_allclose(
            oracle_spectrum(matrix), oracle, rtol=0, atol=1e-11 * scale
        )

    def test_spectrum_symmetric_about_zero(self, rng):
        # Free-fermion structure: many-body levels come in (S, complement)
        # pairs with opposite energies, even with a transverse field.
        values = oracle_spectrum(build_spin_hamiltonian(random_chain(rng, 3)))
        np.testing.assert_allclose(values, -values[::-1], atol=1e-12)


class TestRouteIndependence:
    """The oracle and the free-fermion path share no eigensolver."""

    @pytest.mark.parametrize("model", ["xy", "xx"])
    def test_oracle_runs_without_jacobi(self, rng, monkeypatch, model):
        break_everywhere(monkeypatch, "jacobi_eigh")
        matrix = build_spin_hamiltonian(model_chain(rng, 6, model))
        oracle = np.linalg.eigvalsh(matrix)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        np.testing.assert_allclose(
            oracle_spectrum(matrix), oracle, rtol=0, atol=1e-11 * scale
        )

    def test_fermion_path_runs_without_the_oracle_solver(self, rng, monkeypatch):
        break_everywhere(monkeypatch, "sturm_eigvalsh")
        chain = random_chain(rng, 6)
        system = assemble(chain)
        oracle = np.linalg.eigvalsh(system.H)[chain.n_sites :]
        scale = max(1.0, float(np.max(oracle)))
        np.testing.assert_allclose(
            eigendecompose(system).lambda_numeric, oracle, rtol=0, atol=1e-12 * scale
        )

    def test_fermion_path_runs_without_the_doubled_eigensolver(self, rng, monkeypatch):
        break_everywhere(monkeypatch, "jacobi_eigh")
        chain = random_chain(rng, 6)
        system = assemble(chain)
        oracle = np.linalg.eigvalsh(system.H)[chain.n_sites :]
        scale = max(1.0, float(np.max(oracle)))
        np.testing.assert_allclose(
            eigendecompose(system).lambda_numeric, oracle, rtol=0, atol=1e-12 * scale
        )

    def test_doubled_route_runs_without_the_svd(self, rng, monkeypatch):
        # The certifying side of the single-particle solve: pairing and the
        # singular-value comparison read only the eigenvalues of H.
        spectral = eigendecompose(assemble(random_chain(rng, 6)))
        break_everywhere(monkeypatch, "jacobi_svd")
        report = singular_value_check(spectral)
        assert report.passed
        assert report.checks[0].name == "spectrum-parity"
        assert report.checks[0].residual < 1e-12


class TestJordanWignerCertification:
    def test_random_chains_certify(self, rng):
        for n in (2, 3, 4, 5):
            chain = random_chain(rng, n)
            report = jw_certify(chain, eigendecompose(assemble(chain)))
            assert report.passed, str(report)
            assert report.checks[0].name == "many-body-multiset"

    def test_xx_chain_certifies(self):
        chain = ChainSpec(
            alpha=[1.0, 1.0, 1.0], beta=[0.5] * 4, gamma=[0.0, 0.0, 0.0]
        )
        assert jw_certify(chain, eigendecompose(assemble(chain))).passed

    def test_family_chains_certify(self):
        # Both family constructions produce genuine free-fermion chains, also
        # where the coupling roots have mixed signs (the qr13 point).
        for family, params in (("qr24", QR24_DEFAULT), ("qr13", QR13_CHAIN)):
            chain = build_chain(contiguity_coefficients(family, params))
            report = jw_certify(chain, eigendecompose(assemble(chain)))
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
        report = jw_certify(chain, spectral)
        assert not report.passed
