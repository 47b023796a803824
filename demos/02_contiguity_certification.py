"""Certify the q-Racah contiguity data behind the chain construction.

The chain couplings come from coefficients that shift a q-Racah polynomial's
parameters; two three-term relations plus one product constraint pin those
coefficients down completely.  This demo checks both shift families on a
grid of polynomial values.

Run:  python3 demos/02_contiguity_certification.py
"""

from xychain import QRacahParams, contiguity_coefficients, shift_params, verify_contiguity


def main():
    print("=" * 66)
    print("Contiguity-relation certification")
    print("=" * 66)

    cases = {
        "qr24": QRacahParams(a=-0.3, b=0.3, c=-0.8, N=4, q=0.7),
        "qr13": QRacahParams(a=4.21, b=6.28, c=-0.54, N=4, q=0.7),
    }

    for family, params in cases.items():
        x_shift, shifted = shift_params(family, params)
        print(f"\n--- family {family} ---")
        print(f"base    parameters: {params.as_tuple()}")
        print(f"shifted parameters: {shifted.as_tuple()}  (grid offset {x_shift})")
        report = verify_contiguity(contiguity_coefficients(family, params))
        print(report)

    print("\nBoth families satisfy their relations to ~1e-14 at these points.")
    print("For qr13 the single grid corner (i, x) = (N, N) is excluded: a")
    print("boundary term survives there, but it enters the chain weighted by")
    print("a factor that is identically zero, so nothing downstream sees it.")


if __name__ == "__main__":
    main()
