"""Every check fails on a small corruption of its stage's input.

One row per check name, and more where a row id adds ``@`` and a variant:
``verify`` runs on a config (the shipped qr24 point unless the row names
another) with one call of a library function, the first unless the row says
otherwise, returning a corrupted result, and the named check must FAIL with a
residual at least ``MARGIN`` times its tolerance.  The same run without the
corruption must PASS it, so the row shows the corruption is what kills it.
A meta-test runs ``verify`` on four configs and requires a row for every
check name they emit.
"""

import dataclasses
import importlib
import json
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

from helpers import CONFIG_DIR, bind_everywhere
from xychain import cli
from xychain.cli import main
from xychain.report import TOLERANCES

QR24_CONFIG = {"family": "qr24", "a": -0.3, "b": 0.3, "c": -0.8, "q": 0.7, "N": 4}
XX_CONFIG = json.loads((CONFIG_DIR / "xx_uniform.json").read_text())
EXPLICIT_CONFIG = {
    "family": "explicit",
    "N": 5,
    "alpha": [0.9, -1.1, 0.7, 1.3, -0.8],
    "beta": [0.2, -0.5, 0.4, 0.1, -0.3, 0.6],
    "gamma": [0.3, 0.5, -0.2, 0.4, 0.1],
}
#: A spectral-valid qr24 point whose two smallest modes, 1.4e-9 and 2e-6, lie
#: within ``DEGENERACY_TOL`` of the largest, 2000, so they form one cluster.
NEAR_ZERO_MODE = {"family": "qr24", "a": 0.5, "b": -0.5, "c": 0.0, "q": 1e-06, "N": 4}
#: ``EXPLICIT_CONFIG`` with every coupling times 2^-30, exactly: its largest
#: Lambda is 2.0e-9, where a gap over ``max(1, max Lambda)`` would be absolute.
SMALL_COUPLINGS = dict(EXPLICIT_CONFIG, **{
    name: [value * 2.0**-30 for value in EXPLICIT_CONFIG[name]]
    for name in ("alpha", "beta", "gamma")
})
#: The configs of the meta-test: between them every check ``verify`` emits.
META_CONFIGS = {
    "qr24": QR24_CONFIG,
    "qr13": json.loads((CONFIG_DIR / "qr13_chain.json").read_text()),
    "xx": XX_CONFIG,
    "explicit": EXPLICIT_CONFIG,
}
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


def _raise_largest_singular_value_by_half(factors):
    # the gap is a third of the largest value in any units; at 2^-30 it is
    # 1.0e-9, below the tolerance as an absolute number
    values, right, left = factors
    return values * np.r_[np.ones(values.size - 1), 1.5], right, left


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


def _raise_one_prefactor_exponent(products):
    # one more power of four in the running product of row 2 doubles that
    # row of P
    mantissa, exponent = products
    exponent = exponent.copy()
    exponent[2] += 1
    return mantissa, exponent


def _scale_largest_analytic_mode(pq):
    # the matching gap is relative to the largest mode, so 1e-3 lands at
    # 1000 times the tolerance
    lam = pq.lam.copy()
    lam[np.argmax(lam)] *= 1 + 1e-3
    return dataclasses.replace(pq, lam=lam)


def _tilt_column(table, j):
    # tilting a column by 0.1 of its norm makes the sine of its angle about
    # 0.09 here
    table = table.copy()
    table[0, j] += 0.1 * np.linalg.norm(table[:, j])
    return table


def _tilt_p_column(pq):
    return dataclasses.replace(pq, P=_tilt_column(pq.P, 2))


def _tilt_q_column(pq):
    return dataclasses.replace(pq, Q=_tilt_column(pq.Q, 2))


def _turn_p_column(mode, toward):
    """A corruption that turns the ``P`` column of ``mode`` (counted in
    ascending order) by 2e-6 rad towards the column of mode ``toward``, which
    is orthogonal to the numeric span of ``mode``'s row.  The sine lands at
    200 times the tolerance (1e-6 rad would land on the margin itself), while
    ``1 - cos`` is 2e-12."""

    def corruption(pq):
        order = np.argsort(pq.lam, kind="stable")
        column, other = pq.P[:, order[mode]], pq.P[:, order[toward]]
        away = other - column * (column @ other) / (column @ column)
        away *= np.linalg.norm(column) / np.linalg.norm(away)
        turned = pq.P.copy()
        turned[:, order[mode]] = np.cos(2e-6) * column + np.sin(2e-6) * away
        return dataclasses.replace(pq, P=turned)

    return corruption


def _scale_lowest_level(spectrum):
    # the lowest level has the largest magnitude, so the gap is 1e-5 of the
    # spectral radius
    energies = spectrum.energies.copy()
    energies[0] *= 1 + 1e-5
    return dataclasses.replace(spectrum, energies=energies)


def _scale_hopping_values(values):
    # the gap is relative to the largest |eigenvalue| of the hopping matrix,
    # so it is about 1e-5
    return values * (1 + 1e-5)


class Killer(NamedTuple):
    """A tolerance key, the module whose binding is wrapped (``cli``: only
    that binding; otherwise every binding of the module's function), the
    function name, the corruption of that function's result, the config of
    the run and which call, counted from 1, is corrupted."""

    key: str
    module: str
    function: str
    corruption: Callable
    config: dict = QR24_CONFIG
    call: int = 1


KILLERS = {
    "relation-plus": Killer("relation", "cli", "contiguity_coefficients", _scale_base_grid_entry),
    "relation-minus": Killer("relation", "cli", "contiguity_coefficients",
                             _scale_shifted_grid_entry),
    "constraint-ratio": Killer("constraint", "cli", "contiguity_coefficients",
                               _scale_phi_0_plus_entry),
    "transition-orthogonality": Killer("orthogonality", "linalg", "jacobi_svd",
                                       _rotate_right_column),
    "spectrum-parity": Killer("parity", "linalg", "jacobi_eigh", _scale_doubled_value),
    "spectrum-vs-singular-values": Killer("svd", "linalg", "jacobi_svd",
                                          _scale_largest_singular_value),
    "spectrum-vs-singular-values@2^-30": Killer("svd", "linalg", "jacobi_svd",
                                                _raise_largest_singular_value_by_half,
                                                config=SMALL_COUPLINGS),
    "analytic-vs-numeric": Killer("spectrum", "cli", "build_chain", _flip_bond_difference),
    "recurrence-P": Killer("recurrence", "cli", "build_chain", _flip_site_field),
    "recurrence-Q": Killer("recurrence", "cli", "build_chain", _flip_site_field),
    # the first call forms P's row prefactors
    "recurrence-P@prefactor": Killer("recurrence", "chain", "_scaled_cumprod",
                                     _raise_one_prefactor_exponent),
    "eigenvalue-matching": Killer("match", "cli", "build_pq_table",
                                  _scale_largest_analytic_mode),
    # no draw of the shipped or tests/helpers.py scan boxes has a degenerate
    # cluster: on a 60^3 grid of the qr24 boxes at N = 2..12 no two closed-form
    # modes cross and the smallest relative gap is 7e-5, and the qr13 box's
    # crossings found at N = 2..8 all fail a coupling radicand.  The cluster
    # row comes from NEAR_ZERO_MODE; tests/test_freefermion.py::TestCrosschecks
    # kills exact double degeneracies.
    "P-modes-1": Killer("angle", "cli", "build_pq_table", _turn_p_column(1, 2)),
    "P-modes-0..1": Killer("angle", "cli", "build_pq_table", _turn_p_column(0, 4),
                           config=NEAR_ZERO_MODE),
    "P-modes-2": Killer("angle", "cli", "build_pq_table", _tilt_p_column),
    "Q-modes-2": Killer("angle", "cli", "build_pq_table", _tilt_q_column),
    "many-body-multiset": Killer("jw", "freefermion", "many_body_spectrum", _scale_lowest_level),
    # the first jacobi_eigh call is the doubled matrix's, the second the
    # hopping matrix's
    "xx-reduction": Killer("spectrum", "linalg", "jacobi_eigh", _scale_hopping_values,
                           config=XX_CONFIG, call=2),
}


def _folded(name):
    """The check name of a row id, with the mode range of
    ``P-modes-*``/``Q-modes-*`` folded."""
    return re.sub(r"^([PQ]-modes)-.*", r"\1-*", name.split("@")[0])


def _verify_checks(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "report.json"
    main(["verify", "--config", str(path), "--out", str(out)])
    return {check["name"]: check for check in json.loads(out.read_text())["checks"]}


@pytest.mark.parametrize("name", sorted(KILLERS))
@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted"])
def test_corruption_fails_its_check(tmp_path, monkeypatch, name, corrupt):
    key, module, function, corruption, config, call = KILLERS[name]
    if corrupt:
        calls = []

        def corrupted_call(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(None)
            return corruption(result) if len(calls) == call else result

        if module == "cli":
            original = getattr(cli, function)
            monkeypatch.setattr(cli, function, corrupted_call)
        else:
            original = bind_everywhere(monkeypatch, function, corrupted_call,
                                       importlib.import_module(f"xychain.{module}"))
    check = _verify_checks(tmp_path, config)[name.split("@")[0]]
    if corrupt:
        assert check["verdict"] == "FAIL"
        assert check["residual"] >= MARGIN * TOLERANCES[key]
    else:
        assert check["verdict"] == "PASS"


def test_every_emitted_check_has_a_killer(tmp_path):
    emitted = {}
    for label, config in META_CONFIGS.items():
        directory = tmp_path / label
        directory.mkdir()
        for name in _verify_checks(directory, config):
            emitted.setdefault(_folded(name), label)
    assert set(emitted) == {_folded(name) for name in KILLERS}, emitted


@pytest.mark.parametrize("k", [-30, -4, 4, 30, 300])
@pytest.mark.parametrize("config", [EXPLICIT_CONFIG, XX_CONFIG], ids=["explicit", "xx"])
def test_power_of_two_scale_keeps_every_row(tmp_path, config, k):
    # Multiplying every coupling by 2^k is exact and scales every spectrum,
    # singular value and many-body level by 2^k, so each relative residual,
    # and with it each verdict, is the unscaled run's bit for bit.
    scaled = dict(config, **{name: [value * 2.0**k for value in config[name]]
                             for name in ("alpha", "beta", "gamma")})
    rows = [
        [(name, check["residual"].hex(), check["verdict"])
         for name, check in _verify_checks(tmp_path, run).items()]
        for run in (config, scaled)
    ]
    assert rows[1] == rows[0]
