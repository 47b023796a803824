"""Make the benchmark's modules and the package under ``src/`` importable."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from common import import_package  # noqa: E402

import_package()
