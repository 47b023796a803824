"""Paths, start-up and host-speed probe shared by the benchmark's scripts.

The benchmark runs from the root of a source checkout and imports the
package from ``src/`` of that checkout, never from an installed copy, so
every run measures the code next to it.
"""

import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
POOL = Path(__file__).resolve().parent / "data" / "pool.json"

WORKLOADS = ("verify-qr24", "verify-spin", "scan-qr", "export-qr24")


def pin_blas_threads():
    """Run BLAS on one thread, like the workloads; call before importing numpy."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    return 1


def definition():
    """``BENCHMARK.json``: the metric names, units and directions."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_package():
    """Import ``xychain`` from this checkout's ``src/`` or exit with code 2."""
    package = SRC / "xychain" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"bench: no package source at {package}; run from a source checkout\n")
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import xychain

    if Path(xychain.__file__).resolve() != package.resolve():
        sys.stderr.write(f"bench: imported xychain from {xychain.__file__}, not {package}\n")
        sys.exit(2)
    return xychain


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def speed_probe():
    """Wall seconds of a fixed piece of work that shares no code with xychain.

    The work mixes what the package spends its time on: exact rational
    arithmetic in the interpreter and small numpy row updates.  Run next to
    each operation, it tells how fast the host was at that moment.
    """
    import numpy as np

    start = perf_counter()
    total, term, q = Fraction(1), Fraction(1), Fraction(7, 10)
    for k in range(1, 80):
        term = term * (1 - q**k) / (1 + q ** (k + 1)) * Fraction(3, 7)
        total += term
    rows = np.arange(64 * 64, dtype=float).reshape(64, 64) / 4096.0
    for k in range(800):
        i, j = k % 64, (7 * k + 1) % 64
        ri, rj = rows[i].copy(), rows[j]
        rows[i] = 0.8 * ri - 0.6 * rj
        rows[j] = 0.6 * ri + 0.8 * rj
    return perf_counter() - start
