"""Output checks, with numpy as the independent oracle.

:func:`check_exit` compares an operation's exit code with the generator's
expectation; the other ``check_*`` functions run only when it matched, read
the file the operation wrote, and return a list of problems (empty when the
output is correct).  Nothing here imports the package under test.
"""

import csv
import hashlib
import io
import json

import numpy as np

#: Relative agreement required between an output and the numpy oracle.
SPECTRUM_TOL = 1e-8
ENERGY_TOL = 1e-9


def rows_digest(rows):
    """Digest of scan rows ``(a, b, c, N, q)`` by value, not by formatting."""
    data = np.asarray(rows, dtype=float).reshape(-1, 5)
    return hashlib.sha256(data.tobytes()).hexdigest()[:16]


def doubled_spectrum(alpha, beta, gamma):
    """Nonnegative half of ``eigvalsh([[A, B], [-B, -A]])``, ascending."""
    n = len(beta)
    a = np.diag(np.asarray(beta, dtype=float))
    b = np.zeros((n, n))
    for k in range(n - 1):
        a[k, k + 1] = a[k + 1, k] = alpha[k]
        b[k, k + 1] = gamma[k]
        b[k + 1, k] = -gamma[k]
    values = np.linalg.eigvalsh(np.block([[a, b], [-b, -a]]))
    return np.sort(np.abs(values[n:]))


def read_csv(path):
    """Split a CLI CSV into ``(comment lines, header, rows)``."""
    with open(path) as handle:
        text = handle.read()
    lines = text.splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return comments, rows[0], rows[1:]


def _cell(value):
    return float(value) if value != "" else None


def _scale(values):
    return max(1.0, float(np.max(np.abs(values)))) if len(values) else 1.0


def check_exit(code, expected):
    if code != expected["exit"]:
        return [f"exit code {code}, expected {expected['exit']}"]
    return []


def check_verify(code, path, expected):
    """Every expected check present with its verdict; extra checks must PASS."""
    problems = []
    with open(path) as handle:
        report = json.load(handle)
    verdicts = {check["name"]: check["verdict"] for check in report["checks"]}
    for name, verdict in expected["checks"].items():
        if name not in verdicts:
            problems.append(f"check {name} missing")
        elif verdicts[name] != verdict:
            problems.append(f"check {name} is {verdicts[name]}, expected {verdict}")
    for name, verdict in verdicts.items():
        if name not in expected["checks"] and verdict != "PASS":
            problems.append(f"extra check {name} is {verdict}")
    overall = "PASS" if all(v == "PASS" for v in verdicts.values()) else "FAIL"
    if report.get("overall") != overall:
        problems.append(f"overall {report.get('overall')} disagrees with the checks")
    if (code == 0) != (overall == "PASS"):
        problems.append(f"exit code {code} disagrees with overall {overall}")
    return problems


def relation_certified(path):
    """True when a verify report holds the relation certification."""
    with open(path) as handle:
        report = json.load(handle)
    return any(check["name"] == "relation-plus" for check in report["checks"])


def check_chain_coeffs(path, expected):
    """The written chain has the expected closed-form spectrum.

    Returns ``(problems, oracle)`` where ``oracle`` is the numpy spectrum of
    the written chain, used to check ``spectrum`` and ``manybody`` outputs of
    the same configuration.
    """
    problems = []
    _, header, rows = read_csv(path)
    if header != ["j", "alpha", "beta", "gamma"] or len(rows) != expected["N"] + 1:
        return problems + [f"unexpected table shape: {header}, {len(rows)} rows"], None
    beta = [float(row[2]) for row in rows]
    alpha = [float(row[1]) for row in rows[:-1]]
    gamma = [float(row[3]) for row in rows[:-1]]
    if rows[-1][1] != "" or rows[-1][3] != "":
        problems.append("last site carries bond couplings")
    oracle = doubled_spectrum(alpha, beta, gamma)
    lam = np.asarray(expected["lambda"])
    gap = float(np.max(np.abs(oracle - lam))) / _scale(lam)
    if gap > SPECTRUM_TOL:
        problems.append(f"chain spectrum deviates from the closed form by {gap:.3e}")
    return problems, oracle


def check_spectrum(path, expected, oracle):
    """Both spectrum columns agree with the closed form and with numpy."""
    problems = []
    _, header, rows = read_csv(path)
    if header != ["j", "lambda_analytic", "lambda_numeric", "rel_gap"]:
        return problems + [f"unexpected header {header}"]
    if len(rows) != expected["N"] + 1:
        return problems + [f"{len(rows)} rows, expected {expected['N'] + 1}"]
    analytic = np.array([_cell(row[1]) for row in rows])
    numeric = np.array([_cell(row[2]) for row in rows])
    gaps = np.array([_cell(row[3]) for row in rows])
    lam = np.asarray(expected["lambda"])
    scale = _scale(lam)
    if float(np.max(np.abs(np.sort(analytic) - lam))) / scale > SPECTRUM_TOL:
        problems.append("lambda_analytic deviates from the closed form")
    if oracle is None or float(np.max(np.abs(np.sort(numeric) - oracle))) / scale > SPECTRUM_TOL:
        problems.append("lambda_numeric deviates from numpy eigvalsh")
    if float(np.max(gaps)) > SPECTRUM_TOL:
        problems.append(f"rel_gap {float(np.max(gaps)):.3e} above tolerance")
    return problems


def check_manybody(path, expected, oracle):
    """Energies are the signed sums of the oracle modes, masks a permutation."""
    problems = []
    _, header, rows = read_csv(path)
    if header != ["mask", "energy"]:
        return problems + [f"unexpected header {header}"]
    n_modes = expected["N"] + 1
    table = np.array(rows, dtype=float)
    masks = table[:, 0].astype(np.int64)
    energies = table[:, 1]
    if masks.size != 2**n_modes or not np.array_equal(np.sort(masks), np.arange(2**n_modes)):
        return problems + ["masks are not a permutation of 0..2^(N+1)-1"]
    if np.any(np.diff(energies) < 0.0):
        problems.append("energies are not ascending")
    if oracle is None:
        return problems + ["no chain oracle for this configuration"]
    bits = (masks[:, None] >> np.arange(n_modes)[None, :]) & 1
    reference = -float(np.sum(oracle)) + 2.0 * (bits @ oracle)
    gap = float(np.max(np.abs(reference - energies))) / max(1.0, float(np.sum(oracle)))
    if gap > ENERGY_TOL:
        problems.append(f"energies deviate from the oracle signed sums by {gap:.3e}")
    return problems


def scan_rows(path):
    """Kept draws ``(a, b, c, N, q)`` and the ``valid`` header count."""
    comments, header, rows = read_csv(path)
    valid = [int(line.split()[-1]) for line in comments if line.startswith("# valid ")]
    if header != ["index", "a", "b", "c", "N", "q"]:
        raise ValueError(f"unexpected scan header {header}")
    return [tuple(float(v) for v in row[1:]) for row in rows], valid


def check_scan(code, path, stderr, expected):
    """Row count matches the header, rows lie in the box, digest is stable."""
    if code != 0:
        return [] if stderr.startswith("error:") else [f"exit {code} without an error line"]
    problems = []
    rows, valid = scan_rows(path)
    if valid != [len(rows)]:
        problems.append(f"valid header {valid} but {len(rows)} rows")
    if len(rows) != expected["valid"]:
        problems.append(f"{len(rows)} rows, expected {expected['valid']}")
    ranges = expected["ranges"]
    for a, b, c, n_value, q in rows:
        for label, value in (("a", a), ("b", b), ("c", c), ("q", q)):
            spec = ranges[label]
            inside = spec[0] <= value <= spec[1] if len(spec) == 2 else value in spec
            if not inside:
                problems.append(f"{label}={value!r} outside {spec}")
        if n_value != expected["N"]:
            problems.append(f"row N={n_value}, expected {expected['N']}")
    if rows_digest(rows) != expected["digest"]:
        problems.append("scan digest differs from the generator's run")
    return problems
