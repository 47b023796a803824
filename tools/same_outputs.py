"""Compare the command-line outputs of two source trees, case by case.

Usage::

    python tools/same_outputs.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts
(for example a ``git archive`` of the parent commit and this tree's ``src``).
Each tree runs every case through ``xychain.cli.main`` in-process, in one
subprocess per tree.  For each case the script prints the exit code and the
sha256 of the ``--out`` file, of stdout and of stderr, with temporary paths
masked.  For each case that differs it also prints both exit codes, every
check whose verdict changed, and per output column the number of changed
cells and the largest relative change of a numeric cell; a summary ends the
run.  It exits 1 when any case differs, 0 when all agree.

Cases:

* every shipped config in ``configs/`` x every command, with ``verify``
  written as CSV, as JSON and as text on stdout;
* every candidate in ``bench/data/pool.json`` x the commands of its group
  (``verify`` in the same three forms);
* every ``scan-qr`` candidate of the pool once more at each of the three
  validity levels other than its own, since a scan's CSV shows only the
  verdicts at its configured level;
* explicit XY and XX chains of 2-9 sites drawn from a fixed seed, x
  ``spectrum``, ``chain-coeffs``, ``manybody`` and the three ``verify``
  forms, and ``manybody`` once more on stdout;
* uniform XX chains in zero and unit field, uniform XY chains and Ising
  chains of 2-9 sites (``UNIFORM_CHAINS``), x ``manybody`` and the three
  ``verify`` forms: their spin sectors put bisection midpoints on pivots,
  so the spin oracle's guarded steps run;
* the shipped qr24 point moved onto a degenerate or extreme value (``a = 1``,
  ``b c q = 1``, ``c = 1e308``, subnormal ``q = 1e-320``), in both families, x
  ``spectrum`` and the three ``verify`` forms, so the messages of the table
  and shift errors are compared too;
* one scan box of discrete choices on and between those values, in both
  families and at every validity level, with more samples than one screen
  block;
* a spectral-valid qr24 point whose smallest mode, 1.4e-9, is 7e-13 of the
  largest, x ``spectrum``, ``manybody`` and the three ``verify`` forms;
* a point whose grids hold exact zeros (``EXACT_ZERO_POINT``), in both
  families, x the three ``verify`` forms;
* a scan of the qr13 box of ``tests/helpers.py`` at ``N = 3``, at every
  validity level;
* the shipped qr24 and qr13 points (``configs/qr24_default.json`` and
  ``configs/qr13_chain.json``) at ``N = 20``, ``N = 30`` and ``N = 40`` x
  the three ``verify`` forms, whose grids reach deeper precision ladders
  than the pool's ``N <= 16``; the qr13 shifted grid's columns differ from
  its base grid's;
* the same two points moved to ``q = 0.5`` at ``N = 40`` (``EXACT_SUM_MOVE``)
  x the three ``verify`` forms, whose grid pairs each take 60 values from
  the 320-digit rung;
* the shipped qr24 point at ``N = 65``, ``66`` and ``70`` (``PREFACTOR_N``)
  x the three ``verify`` forms, where the running products of the P/Q row
  prefactors leave the float range unless they carry their power of four;
* the three shipped chain configs with each ``"tolerances"`` name in turn
  set to 1e-300, x the three ``verify`` forms, so every check shows which
  name sets its tolerance;
* ``configs/qr24_scan.json`` once with ``relation`` and once with
  ``constraint`` at 1e-300, once with ``q`` drawn from the range ``[0.3,
  0.7]`` (every survivor its own ``q``), and once at the one ``q = 0.7``,
  ``N = 7`` and 600 samples (more than one screen block, whose survivors
  share ``q`` and are certified in parts);
* five explicit chains of finite couplings near the top of the float range
  (``FLOAT_RANGE_CHAINS``: ``z2``, ``z3``, ``e1``, ``e4``, ``xy-overflow``),
  x ``spectrum``, ``chain-coeffs``, ``manybody`` and the three ``verify``
  forms;
* two explicit chains whose many-body rows test the row writer
  (``MANYBODY_CHAINS``: a uniform 14-site XX chain, whose merged tie runs
  cross write-block boundaries, and an all-zero chain, whose energies are
  ``-0.0``), x ``manybody`` on ``--out`` and on stdout;
* ``2^k`` times the 6-site explicit chain of ``tests/test_killers.py`` and
  times ``configs/xx_uniform.json``, for each k of ``SCALE_EXPONENTS``, x
  ``spectrum`` and the three ``verify`` forms: the scaling is exact, so a
  scale-covariant tree gives each the unscaled residuals and verdicts.

A case that ends in an uncaught exception reports the exit ``traceback`` and
hashes the exception's type and message as its stderr.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
POOL = ROOT / "bench" / "data" / "pool.json"

COMMANDS = ("spectrum", "chain-coeffs", "manybody", "scan")
VERIFY_FORMS = ("verify.csv", "verify.json", "verify.txt")
SCAN_LEVELS = ("contiguity", "couplings", "spectral", "full")
CHAIN_SEED = 20240917
CHAIN_SITES = range(2, 10)
#: Uniform chains by number of sites: (alpha, beta, gamma) of every bond,
#: site and bond.
UNIFORM_CHAINS = {
    "xx": (1.0, 0.0, 0.0),
    "xx-field": (1.0, 1.0, 0.0),
    "xy": (1.0, 0.5, 0.25),
    "ising": (0.5, 1.0, 0.5),
}
EDGE_BASE = {"a": -0.3, "b": 0.3, "c": -0.8, "q": 0.7, "N": 4}
EDGE_MOVES = {
    "a=1": {"a": 1.0},
    "bcq=1": {"b": 0.5, "c": 4.0, "q": 0.5},
    "c=1e308": {"c": 1e308},
    "q=1e-320": {"q": 1e-320},
}
EDGE_BOX = {"a": [-0.3, 0.0, 1.0, 2.0], "b": [0.3, 0.5, 0.0], "c": [-0.8, 4.0, 1e308],
            "q": [0.5, 0.7, 1e-320]}
NEAR_ZERO_MODE = {"family": "qr24", "a": 0.5, "b": -0.5, "c": 0.0, "q": 1e-06, "N": 4}
#: A point whose grids hold exact zeros, in both families: every argument of
#: its sums is an exact 40-digit decimal.
EXACT_ZERO_POINT = {"a": 0.25, "b": 0.5, "c": -1.0, "q": 0.5, "N": 5}
QR13_BOX = {"a": [1.5, 9.0], "b": [1.5, 9.0], "c": [-0.9, -0.1], "q": [0.3, 0.5, 0.7]}
DEEP_N = (20, 30, 40)
#: The shipped points run at each ``DEEP_N``: qr24, whose shifted grid
#: points are its base ones, and qr13, whose shifted points move by one.
DEEP_CONFIGS = ("qr24_default.json", "qr13_chain.json")
#: Moves the ``DEEP_CONFIGS`` points onto grid pairs whose arguments are
#: exact decimals within 160 digits: 60 entries of each are proved only by
#: the 320-digit rung.
EXACT_SUM_MOVE = {"q": 0.5, "N": 40}
#: Degrees at which the shipped qr24 point's P/Q row prefactor products go
#: below the normal floats: subnormal at 65, zero from 66.
PREFACTOR_N = (65, 66, 70)
CHAIN_CONFIGS = ("qr24_default.json", "qr13_chain.json", "xx_uniform.json")
#: The names of ``xychain.report.TOLERANCES``, each tightened to ``TIGHT``.
TOLERANCE_NAMES = ("relation", "constraint", "spectrum", "svd", "recurrence", "angle",
                   "jw", "match", "parity", "orthogonality")
TIGHT = 1e-300
#: Explicit chains whose spectra, many-body energies or spin Hamiltonians
#: reach the top of the float range.
FLOAT_RANGE_CHAINS = {
    "z2": {"N": 9, "alpha": [1e308] * 9, "beta": [0.0] * 10, "gamma": [0.0] * 9},
    "z3": {"N": 9, "alpha": [8e307, 8e307] + [1.0] * 7, "beta": [0.0] * 10, "gamma": [0.0] * 9},
    "e1": {"N": 2, "alpha": [1e308, 1e308], "beta": [0.0] * 3, "gamma": [0.0] * 2},
    "e4": {"N": 1, "alpha": [0.0], "beta": [1e308, 0.0], "gamma": [0.0]},
    # A + B holds 1e308 + 1e308 = inf
    "xy-overflow": {"N": 2, "alpha": [1e308, 1e308], "beta": [0.0] * 3,
                    "gamma": [1e308, 1e308]},
}
#: Explicit chains whose many-body rows are tie runs across write blocks or
#: signed zeros.
MANYBODY_CHAINS = {
    "uniform-xx-14": {"N": 13, "alpha": [1.0] * 13, "beta": [0.5] * 14, "gamma": [0.0] * 13},
    "all-zero": {"N": 3, "alpha": [0.0] * 3, "beta": [0.0] * 4, "gamma": [0.0] * 3},
}
#: The 6-site explicit chain of ``tests/test_killers.py`` and the powers of
#: two its couplings and ``configs/xx_uniform.json``'s are scaled by.
KILLER_CHAIN = {"N": 5, "alpha": [0.9, -1.1, 0.7, 1.3, -0.8],
                "beta": [0.2, -0.5, 0.4, 0.1, -0.3, 0.6], "gamma": [0.3, 0.5, -0.2, 0.4, 0.1]}
SCALE_EXPONENTS = (-30, -4, 4, 30)
REPORT_LINE = re.compile(r"^(\S+): residual=(\S+) tol=(\S+) (PASS|FAIL)")


def _forms(commands):
    """Case forms of a command list: ``verify`` becomes its three forms."""
    forms = []
    for command in commands:
        forms.extend(VERIFY_FORMS if command == "verify" else (f"{command}.csv",))
    return forms


def _random_chain(rng, sites, xx):
    N = sites - 1
    gamma = [0.0] * N if xx else [float(v) for v in rng.uniform(-0.5, 0.5, N)]
    return {
        "family": "explicit",
        "N": N,
        "alpha": [float(v) for v in rng.uniform(0.5, 1.5, N)],
        "beta": [float(v) for v in rng.uniform(-1.0, 1.0, sites)],
        "gamma": gamma,
    }


def build_cases(config_dir):
    """Write every case's config into ``config_dir``; return ``[(name, config
    path, form)]`` in a fixed order."""
    cases = []

    def add(name, config, forms):
        path = config_dir / f"{len(cases):04d}.json"
        path.write_text(json.dumps(config))
        cases.extend((f"{name} {form}", str(path), form) for form in forms)

    for path in sorted(CONFIG_DIR.glob("*.json")):
        add(f"configs/{path.name}", json.loads(path.read_text()),
            _forms(COMMANDS + ("verify",)))
    pool = json.loads(POOL.read_text())
    for workload, groups in pool.items():
        if workload == "commit":
            continue
        for g, group in enumerate(groups):
            for c, candidate in enumerate(group["candidates"]):
                config = candidate["config"]
                add(f"pool/{workload}/{g}/{c}", config, _forms(group["commands"]))
                if workload != "scan-qr":
                    continue
                for level in SCAN_LEVELS:
                    if level != config["level"]:
                        add(f"pool/{workload}/{g}/{c}@{level}", dict(config, level=level),
                            ("scan.csv",))
    rng = np.random.default_rng(CHAIN_SEED)
    for sites in CHAIN_SITES:
        for xx in (False, True):
            add(f"chain/{sites}-sites/{'xx' if xx else 'xy'}", _random_chain(rng, sites, xx),
                _forms(("spectrum", "chain-coeffs", "manybody", "verify")) + ["manybody.txt"])
    for name, (alpha, beta, gamma) in UNIFORM_CHAINS.items():
        for sites in CHAIN_SITES:
            N = sites - 1
            add(f"uniform/{name}/{sites}-sites",
                {"family": "explicit", "N": N, "alpha": [alpha] * N, "beta": [beta] * sites,
                 "gamma": [gamma] * N},
                _forms(("manybody", "verify")))
    for family in ("qr13", "qr24"):
        for move, values in EDGE_MOVES.items():
            add(f"edge/{family}/{move}", dict(EDGE_BASE, family=family, **values),
                _forms(("spectrum", "verify")))
        for level in SCAN_LEVELS:
            add(f"edge/{family}/box@{level}",
                {"family": family, "N": 4, "ranges": EDGE_BOX, "samples": 300, "level": level},
                ("scan.csv",))
    add("near-zero-mode", NEAR_ZERO_MODE, _forms(("spectrum", "manybody", "verify")))
    for family in ("qr13", "qr24"):
        add(f"exact-zero/{family}", dict(EXACT_ZERO_POINT, family=family), VERIFY_FORMS)
    for level in SCAN_LEVELS:
        add(f"qr13-box@{level}",
            {"family": "qr13", "N": 3, "ranges": QR13_BOX, "samples": 200, "level": level},
            ("scan.csv",))
    for name in DEEP_CONFIGS:
        config = json.loads((CONFIG_DIR / name).read_text())
        for N in DEEP_N:
            add(f"configs/{name}@N={N}", dict(config, N=N), VERIFY_FORMS)
        add(f"configs/{name}@exact-sums", dict(config, **EXACT_SUM_MOVE), VERIFY_FORMS)
    config = json.loads((CONFIG_DIR / "qr24_default.json").read_text())
    for N in PREFACTOR_N:
        add(f"configs/qr24_default.json@N={N}", dict(config, N=N), VERIFY_FORMS)
    for name in CHAIN_CONFIGS:
        config = json.loads((CONFIG_DIR / name).read_text())
        for key in TOLERANCE_NAMES:
            add(f"configs/{name}@{key}={TIGHT}", dict(config, tolerances={key: TIGHT}),
                VERIFY_FORMS)
    scan = json.loads((CONFIG_DIR / "qr24_scan.json").read_text())
    for key in ("relation", "constraint"):
        add(f"configs/qr24_scan.json@{key}={TIGHT}", dict(scan, tolerances={key: TIGHT}),
            ("scan.csv",))
    add("configs/qr24_scan.json@q-range", dict(scan, ranges=dict(scan["ranges"], q=[0.3, 0.7])),
        ("scan.csv",))
    add("configs/qr24_scan.json@one-q", dict(scan, ranges=dict(scan["ranges"], q=[0.7]), N=7,
                                             samples=600), ("scan.csv",))
    for name, couplings in FLOAT_RANGE_CHAINS.items():
        add(f"float-range/{name}", dict(couplings, family="explicit"),
            _forms(("spectrum", "chain-coeffs", "manybody", "verify")))
    for name, couplings in MANYBODY_CHAINS.items():
        add(f"manybody/{name}", dict(couplings, family="explicit"),
            ("manybody.csv", "manybody.txt"))
    xx = json.loads((CONFIG_DIR / "xx_uniform.json").read_text())
    for name, chain in (("killer-chain", dict(KILLER_CHAIN, family="explicit")),
                        ("xx_uniform", xx)):
        for k in SCALE_EXPONENTS:
            scaled = dict(chain, **{key: [value * 2.0**k for value in chain[key]]
                                    for key in ("alpha", "beta", "gamma")})
            add(f"scaled/{name}@2^{k}", scaled, _forms(("spectrum", "verify")))
    return cases


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_tree(src, cases, keep_dir):
    """Run every case through ``cli.main`` of the tree at ``src``; return one
    record per case.  Case ``k``'s output (the ``--out`` file, or stdout for
    the ``.txt`` forms) is kept as ``keep_dir/k`` for the cell comparison."""
    sys.path.insert(0, str(Path(src).resolve()))
    from xychain import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"xychain imported from {cli.__file__}, not from {src}")
    warnings.simplefilter("always")
    records = []
    with tempfile.TemporaryDirectory() as out_dir:
        for name, config, form in cases:
            command, ext = form.split(".")
            argv = [command, "--config", config]
            out = Path(out_dir) / f"out.{ext}"
            if ext != "txt":
                argv += ["--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a traceback is an outcome to compare
                    code = "traceback"
                    stderr.write(f"{type(exc).__name__}: {exc}\n")
            texts = [stdout.getvalue(), stderr.getvalue()]
            masked = [t.replace(out_dir, "<tmp>").replace(str(Path(config).parent), "<tmp>")
                      for t in texts]
            out_sha = _sha(out.read_bytes()) if out.exists() else "-"
            kept = Path(keep_dir) / str(len(records))
            if ext == "txt":
                kept.write_text(masked[0])
            elif out.exists():
                out.replace(kept)
            records.append({
                "name": name,
                "exit": code,
                "out": out_sha,
                "stdout": _sha(masked[0].encode()),
                "stderr": _sha(masked[1].encode()),
                "last_stderr": masked[1].strip().splitlines()[-1:] or [""],
            })
    return records


def _line(record):
    return (f"exit {record['exit']}  out {record['out'][:12]}  "
            f"stdout {record['stdout'][:12]}  stderr {record['stderr'][:12]}")


def _table(path, form):
    """``(verdicts, columns)`` of a kept output: check name -> verdict, and
    column name -> list of cells.  A missing output is an empty table."""
    text = path.read_text() if path.exists() else ""
    verdicts, columns = {}, {}
    if form == "verify.json":
        checks = json.loads(text)["checks"] if text else []
        rows = [(c["name"], repr(c["residual"]), repr(c["tolerance"]), c["verdict"])
                for c in checks]
    elif form == "verify.txt":
        rows = [match.groups() for match in map(REPORT_LINE.match, text.splitlines()) if match]
    else:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        table = list(csv.reader(lines))
        header, rows = (table[0], table[1:]) if table else ([], [])
        for index, name in enumerate(header):
            columns[name] = [row[index] for row in rows]
        if "verdict" in columns:
            verdicts = dict(zip(columns["name"], columns["verdict"]))
        return verdicts, columns
    for name, residual, tolerance, verdict in rows:
        verdicts[name] = verdict
        columns.setdefault("residual", []).append(residual)
        columns.setdefault("tolerance", []).append(tolerance)
    return verdicts, columns


def _relative_change(old, new):
    """Relative change between two numeric cells; ``None`` if either is not a
    number."""
    try:
        a, b = float(old), float(new)
    except ValueError:
        return None
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def _cell_changes(old_path, new_path, form):
    """Lines describing how one case's outputs differ, and column name ->
    largest relative change of a numeric cell."""
    (old_verdicts, old_columns), (new_verdicts, new_columns) = (
        _table(old_path, form), _table(new_path, form))
    lines, largest = [], {}
    for name in sorted(set(old_verdicts) | set(new_verdicts)):
        before, after = old_verdicts.get(name, "-"), new_verdicts.get(name, "-")
        if before != after:
            lines.append(f"verdict {name}: {before} -> {after}")
    for name in sorted(set(old_columns) | set(new_columns)):
        before, after = old_columns.get(name, []), new_columns.get(name, [])
        if len(before) != len(after):
            lines.append(f"column {name}: {len(before)} -> {len(after)} cells")
            continue
        changed = [(a, b) for a, b in zip(before, after) if a != b]
        if not changed:
            continue
        changes = [_relative_change(a, b) for a, b in changed]
        numeric = [change for change in changes if change is not None]
        text = f"column {name}: {len(changed)} of {len(before)} cells changed"
        if numeric:
            largest[name] = max(numeric)
            text += f", largest relative change {largest[name]:.2e}"
        if len(numeric) < len(changes):
            text += f", {len(changes) - len(numeric)} not numeric"
        lines.append(text)
    return lines, largest


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # one tree, in its own process
        src, case_file, keep_dir = argv[1:]
        records = run_tree(src, json.loads(Path(case_file).read_text()), keep_dir)
        Path(case_file).write_text(json.dumps(records))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", help="src directory of the reference tree")
    parser.add_argument("new_src", help="src directory of the tree to compare")
    args = parser.parse_args(argv)

    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "configs").mkdir()
        cases = build_cases(work / "configs")
        workers = []
        for tag, src in (("old", args.old_src), ("new", args.new_src)):
            case_file = work / f"{tag}.json"
            case_file.write_text(json.dumps(cases))
            (work / tag).mkdir()
            workers.append((case_file, subprocess.Popen(
                [sys.executable, __file__, "--worker", src, str(case_file), str(work / tag)],
                env=env)))
        codes = [worker.wait() for _, worker in workers]
        if any(codes):
            raise SystemExit(f"a worker failed (exit codes {codes})")
        old, new = (json.loads(case_file.read_text()) for case_file, _ in workers)

        differ, verdict_changes, largest = [], [], {}
        for index, (before, after) in enumerate(zip(old, new)):
            same = all(before[key] == after[key] for key in ("exit", "out", "stdout", "stderr"))
            if same:
                print(f"same    {after['name']}  {_line(after)}")
                continue
            differ.append((before, after))
            print(f"DIFFERS {after['name']}\n  old  {_line(before)}  {before['last_stderr'][0]}"
                  f"\n  new  {_line(after)}  {after['last_stderr'][0]}")
            form = cases[index][2]
            lines, case_largest = _cell_changes(work / "old" / str(index),
                                                work / "new" / str(index), form)
            for line in lines:
                print(f"  {line}")
            verdict_changes += [f"{after['name']}: {line}" for line in lines
                                if line.startswith("verdict ")]
            for column, change in case_largest.items():
                if change > largest.get(column, (-1.0, ""))[0]:
                    largest[column] = (change, after["name"])
    print(f"{len(new)} cases, {len(new) - len(differ)} identical, {len(differ)} differ")
    for before, after in differ:
        print(f"  differs: {after['name']} (exit {before['exit']} -> {after['exit']})")
    print(f"{len(verdict_changes)} verdict changes")
    for line in verdict_changes:
        print(f"  {line}")
    for column, (change, name) in sorted(largest.items()):
        print(f"largest relative change in column {column}: {change:.2e} ({name})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
