"""Build a chain from q-Racah data and compare its closed-form spectrum
against an independent numerical diagonalization.

Run:  python3 demos/01_closed_form_spectrum.py
"""

import numpy as np

from xychain import (
    QRacahParams,
    analytic_spectrum,
    assemble,
    build_chain,
    contiguity_coefficients,
    eigendecompose,
)


def main():
    print("=" * 66)
    print("Closed-form vs numeric single-particle spectrum")
    print("=" * 66)

    params = QRacahParams(a=-0.3, b=0.3, c=-0.8, N=4, q=0.7)
    print(f"\nParameters: a={params.a}, b={params.b}, c={params.c}, "
          f"N={params.N}, q={params.q}  (family qr24)")

    coeffs = contiguity_coefficients("qr24", params)
    chain = build_chain(coeffs)
    print("\nConstructed couplings (open chain, 5 sites):")
    print(f"  alpha (xx+yy part): {np.array2string(chain.alpha, precision=6)}")
    print(f"  beta  (field):      {np.array2string(chain.beta, precision=6)}")
    print(f"  gamma (xx-yy part): {np.array2string(chain.gamma, precision=6)}")

    lam = analytic_spectrum(coeffs)
    spectral = eigendecompose(assemble(chain))
    numeric = spectral.lambda_numeric

    print("\nSingle-particle energies (analytic formula vs Jacobi eigensolver):")
    print(f"  {'j':>2}  {'analytic':>20}  {'numeric':>20}  {'|gap|':>10}")
    for j, value in enumerate(np.sort(lam)[::-1]):
        match = numeric[np.argmin(np.abs(numeric - value))]
        print(f"  {j:>2}  {value:>20.15f}  {match:>20.15f}  {abs(value - match):>10.2e}")

    worst = np.max(np.abs(np.sort(lam) - numeric))
    print(f"\nWorst absolute gap: {worst:.2e}")
    print("The formula and the numerics agree to machine precision: the chain")
    print("is exactly solvable, and the solution is certified independently.")


if __name__ == "__main__":
    main()
