"""Reference points, parameter boxes and helpers shared by the test modules.

A plain module rather than ``conftest.py``: test modules import these names
directly, and ``from conftest import ...`` would resolve to whichever
``conftest`` module was imported first when several test directories run
together.
"""

import sys
from pathlib import Path

from xychain import (
    ChainSpec,
    QRacahParams,
    analytic_spectrum,
    build_chain,
    build_pq_table,
    contiguity_coefficients,
    linalg,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# One verdict line per acceptance criterion, appended by tests/test_acceptance.py
# and echoed as a terminal section at the end of the run by conftest.py.
ACCEPTANCE_LINES = []

# Reference point where every certification level passes.
QR24_DEFAULT = QRacahParams(a=-0.3, b=0.3, c=-0.8, N=4, q=0.7)
# First-family point whose coupling roots have mixed signs (spectral level).
QR13_CHAIN = QRacahParams(a=4.21, b=6.28, c=-0.54, N=4, q=0.7)

# Parameter boxes with healthy validity rates, used for randomized draws.
QR24_BOX = {
    "a": [-0.9, -0.05],
    "b": [0.05, 0.9],
    "c": [-0.95, -0.1],
    "q": [0.3, 0.5, 0.7],
}
QR13_BOX = {
    "a": [1.5, 9.0],
    "b": [1.5, 9.0],
    "c": [-0.9, -0.1],
    "q": [0.3, 0.5, 0.7],
}


def random_chain(rng, n_sites):
    """A generic open XY chain with couplings of mixed sign and order one."""
    return ChainSpec(
        alpha=rng.uniform(-1.5, 1.5, n_sites - 1),
        beta=rng.uniform(-1.5, 1.5, n_sites),
        gamma=rng.uniform(-1.0, 1.0, n_sites - 1),
    )


def pq_table(family, params):
    """P/Q tables of a q-Racah point, from its chain and closed-form spectrum."""
    coeffs = contiguity_coefficients(family, params)
    return build_pq_table(coeffs, build_chain(coeffs), analytic_spectrum(coeffs))


def residuals(report):
    """Check name -> residual of a :class:`~xychain.report.CheckReport`."""
    return {check.name: check.residual for check in report.checks}


def bind_everywhere(monkeypatch, name, replacement, module=linalg):
    """Bind ``replacement`` wherever the package binds ``<module>.<name>``
    (``from .linalg import f`` makes copies); return the original."""
    original = getattr(module, name)
    for module_name, module in list(sys.modules.items()):
        if module_name == "xychain" or module_name.startswith("xychain."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)
    return original
