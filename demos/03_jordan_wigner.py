"""Brute-force check that the free-fermion picture reproduces the spin chain.

For a small chain we build the full 2^n-dimensional spin Hamiltonian, find
all of its eigenvalues, and compare them — as a multiset — with the energies
assembled from single-particle modes via occupation bitmasks.

Run:  python3 demos/03_jordan_wigner.py
"""

import numpy as np

from xychain import (
    QRacahParams,
    assemble,
    build_chain,
    build_spin_hamiltonian,
    contiguity_coefficients,
    eigendecompose,
    jw_certify,
    many_body_spectrum,
    oracle_spectrum,
)


def main():
    print("=" * 66)
    print("Spin-chain oracle vs free-fermion many-body spectrum")
    print("=" * 66)

    params = QRacahParams(a=-0.3, b=0.3, c=-0.8, N=3, q=0.7)
    chain = build_chain(contiguity_coefficients("qr24", params))
    n = chain.n_sites
    print(f"\nChain with {n} sites -> spin Hamiltonian of dimension {2**n}.")

    spectral = eigendecompose(assemble(chain))
    lam = spectral.lambda_numeric
    print(f"Single-particle energies: {np.array2string(lam, precision=8)}")

    mb = many_body_spectrum(lam)
    spin = oracle_spectrum(build_spin_hamiltonian(chain))
    print(f"\n{2**n} many-body levels from bitmasks; lowest five vs spin oracle:")
    print(f"  {'mask':>6}  {'fermion':>18}  {'spin':>18}")
    for mask, energy, oracle in list(zip(mb.masks, mb.energies, spin))[:5]:
        print(f"  {mask:>06b}  {energy:>18.12f}  {oracle:>18.12f}")

    report = jw_certify(chain, spectral)
    print()
    print(report)
    print("\nEvery one of the 2^n spin eigenvalues is a sum/difference of the")
    print("single-particle energies: the chain is a free-fermion system.")


if __name__ == "__main__":
    main()
