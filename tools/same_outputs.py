"""Compare the command-line outputs of two source trees, case by case.

Usage::

    python tools/same_outputs.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are the ``src`` directories of two checkouts
(for example a ``git archive`` of the parent commit and this tree's ``src``).
Each tree runs every case through ``xychain.cli.main`` in-process, in one
subprocess per tree.  For each case the script prints the exit code and the
sha256 of the ``--out`` file, of stdout and of stderr, with temporary paths
masked.  It exits 1 and lists the cases that differ, 0 when all agree.

Cases:

* every shipped config in ``configs/`` x every command, with ``verify``
  written as CSV, as JSON and as text on stdout;
* every candidate in ``bench/data/pool.json`` x the commands of its group
  (``verify`` in the same three forms);
* every ``scan-qr`` candidate of the pool once more at each of the three
  validity levels other than its own, since a scan's CSV shows only the
  verdicts at its configured level;
* explicit XY and XX chains of 2-8 sites drawn from a fixed seed, x
  ``spectrum``, ``chain-coeffs``, ``manybody`` and the three ``verify``
  forms;
* the shipped qr24 point moved onto a degenerate or extreme value (``a = 1``,
  ``b c q = 1``, ``c = 1e308``, subnormal ``q = 1e-320``), in both families, x
  ``spectrum`` and the three ``verify`` forms, so the messages of the table
  and shift errors are compared too;
* one scan box of discrete choices on and between those values, in both
  families and at every validity level, with more samples than one screen
  block.

A case that ends in an uncaught exception reports the exit ``traceback`` and
hashes the exception's type and message as its stderr.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
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
CHAIN_SITES = range(2, 9)
EDGE_BASE = {"a": -0.3, "b": 0.3, "c": -0.8, "q": 0.7, "N": 4}
EDGE_MOVES = {
    "a=1": {"a": 1.0},
    "bcq=1": {"b": 0.5, "c": 4.0, "q": 0.5},
    "c=1e308": {"c": 1e308},
    "q=1e-320": {"q": 1e-320},
}
EDGE_BOX = {"a": [-0.3, 0.0, 1.0, 2.0], "b": [0.3, 0.5, 0.0], "c": [-0.8, 4.0, 1e308],
            "q": [0.5, 0.7, 1e-320]}


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
                _forms(("spectrum", "chain-coeffs", "manybody", "verify")))
    for family in ("qr13", "qr24"):
        for move, values in EDGE_MOVES.items():
            add(f"edge/{family}/{move}", dict(EDGE_BASE, family=family, **values),
                _forms(("spectrum", "verify")))
        for level in SCAN_LEVELS:
            add(f"edge/{family}/box@{level}",
                {"family": family, "N": 4, "ranges": EDGE_BOX, "samples": 300, "level": level},
                ("scan.csv",))
    return cases


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_tree(src, cases):
    """Run every case through ``cli.main`` of the tree at ``src``; return one
    record per case."""
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
            out.unlink(missing_ok=True)
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


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:  # one tree, in its own process
        src, case_file = argv[1:]
        records = run_tree(src, json.loads(Path(case_file).read_text()))
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
            workers.append((case_file, subprocess.Popen(
                [sys.executable, __file__, "--worker", src, str(case_file)], env=env)))
        codes = [worker.wait() for _, worker in workers]
        if any(codes):
            raise SystemExit(f"a worker failed (exit codes {codes})")
        old, new = (json.loads(case_file.read_text()) for case_file, _ in workers)

    differ = []
    for before, after in zip(old, new):
        same = all(before[key] == after[key] for key in ("exit", "out", "stdout", "stderr"))
        if same:
            print(f"same    {after['name']}  {_line(after)}")
        else:
            differ.append((before, after))
            print(f"DIFFERS {after['name']}\n  old  {_line(before)}  {before['last_stderr'][0]}"
                  f"\n  new  {_line(after)}  {after['last_stderr'][0]}")
    print(f"{len(new)} cases, {len(new) - len(differ)} identical, {len(differ)} differ")
    for before, after in differ:
        print(f"  differs: {after['name']} (exit {before['exit']} -> {after['exit']})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
