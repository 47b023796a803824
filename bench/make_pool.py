"""Build ``bench/data/pool.json``: candidate inputs with their known outcomes.

Usage::

    python3 bench/make_pool.py

The pool is built once, on a commit whose outputs are trusted, and committed.
Later runs pick their inputs from it by seed (``bench/gen.py``) and check
every output against what was recorded here, so a change to the package
cannot move its own expectations: which points are valid, which draws a scan
keeps and the digest of those draws all come from the commit named in the
pool's ``commit`` field.

Each slot pins the size and the base ``q`` of an operation, so that the cost
mix of a cycle does not depend on the seed, and holds ``CANDIDATES``
configurations that differ in the remaining parameters:

* ``verify-qr24``: qr24 points that are ``full``-valid (every check then
  PASSes, exit 0) and qr13 points that are ``contiguity``-valid but not
  ``couplings``-valid, so verify certifies the relations and reports the
  chain as unavailable (exit 0).
* ``export-qr24``: ``spectral``-valid qr24 points for ``chain-coeffs``,
  ``spectrum`` and ``manybody``; their expected spectrum is the closed form
  in ``gen.py``, computed with numpy at selection time.
* ``scan-qr``: scan configurations with their exit code (3 when no draw is
  kept), the number of kept draws and a digest of those draws.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import POOL, git_commit, import_package, pin_blas_threads  # noqa: E402
from oracle import rows_digest  # noqa: E402

pin_blas_threads()
import_package()

import numpy as np  # noqa: E402

from xychain.chain import parameter_scan, validate_draw  # noqa: E402
from xychain.errors import NoValidParameters  # noqa: E402
from xychain.qracah import QRacahParams  # noqa: E402

CANDIDATES = 12
MAX_ATTEMPTS = 400

#: ``a``/``b``/``c`` ranges of the documented box in ``configs/qr24_scan.json``.
QR24_BOX = {"a": [-0.9, -0.05], "b": [0.05, 0.9], "c": [-0.95, -0.1]}
#: A box around ``configs/qr13_chain.json`` whose points at N >= 9 certify
#: their relations but have no real chain.
QR13_BOX = {"a": [3.5, 5.0], "b": [5.5, 7.0], "c": [-0.9, -0.2]}
#: A wide box where few draws of either family are valid.
WIDE_BOX = {"a": [-3.0, 3.0], "b": [-3.0, 3.0], "c": [-3.0, 3.0]}

#: verify-qr24 slots ``(family, N, q)``: six full-valid qr24 points and one
#: chain-unavailable qr13 point.  Grid cost grows with N and with q.
VERIFY_QR24_SLOTS = (
    ("qr24", 9, 0.5),
    ("qr24", 10, 0.5),
    ("qr24", 11, 0.5),
    ("qr24", 12, 0.5),
    ("qr24", 9, 0.3),
    ("qr24", 10, 0.7),
    ("qr13", 11, 0.7),
)
#: scan-qr boxes: name -> (family, a/b/c ranges, level, samples per call).
SCAN_BOXES = {
    "qr24-doc": ("qr24", QR24_BOX, "full", 10),
    "qr24-wide": ("qr24", WIDE_BOX, "full", 18),
    "qr13-wide": ("qr13", WIDE_BOX, "couplings", 200),
}
#: scan-qr slots ``(N, q)``: every box is scanned at each slot.  ``q`` is one
#: of the documented choices, pinned per call because grid cost depends on it
#: far more than on ``a``, ``b``, ``c``.
SCAN_SLOTS = ((4, 0.7), (5, 0.3), (6, 0.5), (7, 0.7))
#: export-qr24 slots ``(N, q)``; each point runs every export command in turn.
EXPORT_SLOTS = ((12, 0.5), (13, 0.5), (14, 0.5), (15, 0.5), (16, 0.5))
EXPORT_COMMANDS = ("chain-coeffs", "spectrum", "manybody")

#: Checks every verify report must contain with the given verdict.
RELATION_CHECKS = ("relation-plus", "relation-minus", "constraint-ratio")
CHAIN_CHECKS = ("spectrum-parity", "transition-orthogonality", "spectrum-vs-singular-values")
QR24_FULL_CHECKS = RELATION_CHECKS + CHAIN_CHECKS + (
    "analytic-vs-numeric", "recurrence-P", "recurrence-Q", "eigenvalue-matching",
)


def _full_valid(family, params):
    return validate_draw(family, params, level="full")[0]


def _spectral_valid(family, params):
    return validate_draw(family, params, level="spectral")[0]


def _chain_unavailable(family, params):
    return (
        not validate_draw(family, params, level="couplings")[0]
        and validate_draw(family, params, level="contiguity")[0]
    )


def _points(rng, family, N, q, accept):
    """``CANDIDATES`` points of the family's box that ``accept`` keeps."""
    box = QR24_BOX if family == "qr24" else QR13_BOX
    points = []
    for _ in range(MAX_ATTEMPTS):
        a, b, c = (float(rng.uniform(*box[key])) for key in ("a", "b", "c"))
        if accept(family, QRacahParams(a, b, c, N, q)):
            points.append({"family": family, "a": a, "b": b, "c": c, "q": q, "N": N})
            if len(points) == CANDIDATES:
                return points
    raise SystemExit(f"make_pool: too few acceptable {family} points at N={N}, q={q}")


def verify_qr24(rng):
    slots = []
    for family, N, q in VERIFY_QR24_SLOTS:
        accept = _full_valid if family == "qr24" else _chain_unavailable
        checks = QR24_FULL_CHECKS if family == "qr24" else RELATION_CHECKS
        expected = {"family": family, "N": N, "q": q, "exit": 0,
                    "checks": {check: "PASS" for check in checks}}
        slots.append({
            "commands": ["verify"],
            "candidates": [{"config": point, "expected": expected}
                           for point in _points(rng, family, N, q, accept)],
        })
    return slots


def scan_qr(rng):
    slots = []
    for N, q in SCAN_SLOTS:
        for family, ranges, level, samples in SCAN_BOXES.values():
            ranges = dict(ranges, q=[q])
            candidates = []
            for _ in range(CANDIDATES):
                seed = int(rng.integers(2**31))
                try:
                    draws = parameter_scan(family, ranges, N, samples, seed=seed, level=level)
                except NoValidParameters:
                    draws = []
                rows = [(p.a, p.b, p.c, p.N, p.q) for p in draws]
                config = {"family": family, "N": N, "ranges": ranges, "samples": samples,
                          "level": level, "seed": seed}
                expected = {"family": family, "N": N, "q": q, "exit": 0 if rows else 3,
                            "ranges": ranges, "valid": len(rows), "digest": rows_digest(rows)}
                candidates.append({"config": config, "expected": expected})
            slots.append({"commands": ["scan"], "candidates": candidates})
    return slots


def export_qr24(rng):
    slots = []
    for N, q in EXPORT_SLOTS:
        expected = {"family": "qr24", "N": N, "q": q, "exit": 0}
        slots.append({
            "commands": list(EXPORT_COMMANDS),
            "candidates": [{"config": point, "expected": expected}
                           for point in _points(rng, "qr24", N, q, _spectral_valid)],
        })
    return slots


def main():
    rng = np.random.default_rng(20261017)
    pool = {"commit": git_commit()}
    for workload, build in (("verify-qr24", verify_qr24), ("scan-qr", scan_qr),
                            ("export-qr24", export_qr24)):
        pool[workload] = build(rng)
        print(f"make_pool: {workload} done", flush=True)
    POOL.parent.mkdir(exist_ok=True)
    POOL.write_text(json.dumps(pool, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
