"""Every check fails on a small corruption of its stage's input.

One row per check name: ``verify`` runs on the shipped qr24 point with one
library call's result corrupted, and the named check must FAIL with a
residual at least ``MARGIN`` times its tolerance.  The same run without the
corruption must PASS it, so the row shows the corruption is what kills it.
"""

import dataclasses
import json

import numpy as np
import pytest

from helpers import bind_everywhere
from xychain import cli
from xychain.cli import main
from xychain.report import TOLERANCES

QR24_CONFIG = {"family": "qr24", "a": -0.3, "b": 0.3, "c": -0.8, "q": 0.7, "N": 4}
MARGIN = 100


def _scale_base_grid_entry(coeffs):
    base, _ = coeffs.grids
    base[2, 3] *= 1 + 1e-6
    return coeffs


def _scale_shifted_grid_entry(coeffs):
    _, shifted = coeffs.grids
    shifted[2, 3] *= 1 + 1e-6
    return coeffs


def _scale_phi_0_plus_entry(coeffs):
    phi_0_plus = coeffs.phi_0_plus.copy()
    phi_0_plus[2] *= 1 + 1e-6
    return dataclasses.replace(coeffs, phi_0_plus=phi_0_plus)


def _rotate_right_column(factors):
    # T^T T - I reads half the overlap the rotation makes between the first
    # two columns of U, so 4e-6 lands at 200 times the tolerance
    values, right, left = factors
    angle = 4e-6
    right = right.copy()
    right[:, 0] = np.cos(angle) * right[:, 0] + np.sin(angle) * right[:, 1]
    return values, right, left


def _scale_largest_singular_value(factors):
    # the gap is relative to the largest value, so 2e-6 lands at 200 times
    # the tolerance
    values, right, left = factors
    return values * np.r_[np.ones(values.size - 1), 1 + 2e-6], right, left


def _scale_doubled_value(values):
    return values * np.r_[1 + 1e-6, np.ones(values.size - 1)]


def _flip_bond_difference(chain):
    # alpha - gamma of bond 1 changes sign, alpha + gamma stays: the bond's
    # alpha and gamma trade places
    alpha, gamma = chain.alpha.copy(), chain.gamma.copy()
    alpha[1], gamma[1] = chain.gamma[1], chain.alpha[1]
    return dataclasses.replace(chain, alpha=alpha, gamma=gamma)


def _flip_site_field(chain):
    beta = chain.beta.copy()
    beta[2] = -beta[2]
    return dataclasses.replace(chain, beta=beta)


# check name -> (tolerance key, module whose binding is wrapped, function
# name, corruption of that function's first result)
KILLERS = {
    "relation-plus": ("relation", "cli", "contiguity_coefficients", _scale_base_grid_entry),
    "relation-minus": ("relation", "cli", "contiguity_coefficients", _scale_shifted_grid_entry),
    "constraint-ratio": ("constraint", "cli", "contiguity_coefficients", _scale_phi_0_plus_entry),
    "transition-orthogonality": ("orthogonality", "linalg", "jacobi_svd", _rotate_right_column),
    "spectrum-parity": ("parity", "linalg", "jacobi_eigh", _scale_doubled_value),
    "spectrum-vs-singular-values": ("svd", "linalg", "jacobi_svd", _scale_largest_singular_value),
    "analytic-vs-numeric": ("spectrum", "cli", "build_chain", _flip_bond_difference),
    "recurrence-P": ("recurrence", "cli", "build_chain", _flip_site_field),
    "recurrence-Q": ("recurrence", "cli", "build_chain", _flip_site_field),
}


def _verify_checks(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(QR24_CONFIG))
    out = tmp_path / "report.json"
    main(["verify", "--config", str(config), "--out", str(out)])
    return {check["name"]: check for check in json.loads(out.read_text())["checks"]}


@pytest.mark.parametrize("name", sorted(KILLERS))
@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted"])
def test_corruption_fails_its_check(tmp_path, monkeypatch, name, corrupt):
    key, module, function, corruption = KILLERS[name]
    if corrupt:
        calls = []

        def corrupted_first_call(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(None)
            return corruption(result) if len(calls) == 1 else result

        if module == "cli":
            original = getattr(cli, function)
            monkeypatch.setattr(cli, function, corrupted_first_call)
        else:
            original = bind_everywhere(monkeypatch, function, corrupted_first_call)
    check = _verify_checks(tmp_path)[name]
    if corrupt:
        assert check["verdict"] == "FAIL"
        assert check["residual"] >= MARGIN * TOLERANCES[key]
    else:
        assert check["verdict"] == "PASS"
