"""Scan a parameter box for draws that pass each validity level.

Not every (a, b, c, q) gives a physical chain: denominators must stay away
from zero, the squared couplings must be non-negative, and the strictest
level also asks every coefficient table to share one sign.  The scan
classifies random draws by the strictest level they pass.

Run:  python3 demos/04_parameter_scan.py
"""

import numpy as np

from xychain import SCAN_LEVELS, parameter_scan, validate_draw

RANGES = {
    "a": [-0.9, -0.05],
    "b": [0.05, 0.9],
    "c": [-0.95, -0.1],
    "q": [0.3, 0.5, 0.7],
}
QR13_RANGES = {
    "a": [1.5, 9.0],
    "b": [1.5, 9.0],
    "c": [-0.9, -0.1],
    "q": [0.3, 0.5, 0.7],
}


def main():
    print("=" * 66)
    print("Parameter scan over validity levels")
    print("=" * 66)
    print(f"\nBox: {RANGES}, N=4, 300 samples, family qr24.\n")

    counts = {}
    for level in SCAN_LEVELS:
        draws = parameter_scan("qr24", RANGES, N=4, samples=300, seed=11, level=level)
        counts[level] = len(draws)
    width = max(len(level) for level in SCAN_LEVELS)
    for level in SCAN_LEVELS:
        print(f"  {level:<{width}}  {counts[level]:>4} / 300 valid")
    print("\nLevels are nested, so the counts can only shrink left to right.")

    draws = parameter_scan("qr24", RANGES, N=4, samples=300, seed=11, level="full")
    sample = draws[0]
    print(f"\nFirst full-level draw: {sample.as_tuple()}")
    for level in SCAN_LEVELS:
        ok, reason = validate_draw("qr24", sample, level=level)
        print(f"  {level:<{width}}  {'ok' if ok else 'rejected: ' + reason}")

    draws = parameter_scan("qr13", QR13_RANGES, N=3, samples=300, seed=11, level="spectral")
    print(f"\nThe first shift family (qr13) over {QR13_RANGES}, N=3:")
    print(f"  spectral  {len(draws):>4} / 300 valid")


if __name__ == "__main__":
    main()
