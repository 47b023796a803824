"""Mutation audit: does the test suite notice a wrong operator in a function?

Usage::

    python tools/mutants.py MODULE FUNCTION [FUNCTION ...]
    python tools/mutants.py MODULE FUNCTION [FUNCTION ...] --list

``MODULE`` is a module of ``src/xychain`` (``qseries``), and each
``FUNCTION`` a function of it, a method as ``Class.method``; nested
functions are part of the function that holds them.  One mutant swaps one
operator at one site: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
``!=``, ``+`` and ``-``, ``*`` and ``/``.  For each mutant the script copies
``src`` to a temporary directory, writes the mutated module there and runs
the module's tests (``TESTS``) against the copy with ``pytest -x``.  A
mutant is *killed* when a test fails or the run exceeds ``TIMEOUT_S``, and
*survives* when every test passes.  ``--list`` prints the sites without
running anything.

A site is named ``MODULE FUNCTION: EXPRESSION OLD -> NEW``, with ``#n``
after the ``n``-th site of one name in a function, so that the name holds
while lines move.  Each mutant prints one line: its position, its site name,
and the first failing test or ``SURVIVED``.  ``equivalent_mutants.txt``
beside this script lists the mutants accepted as equivalent (the mutated
program computes what the original does), each as ``SITE | reason``; a
listed survivor prints as known, and the script exits 1 only when an
unlisted mutant survives.  It runs on demand, one mutant at a time; it is
not part of the tier-1 suite.
"""

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xychain"

#: The tests run against each mutant of a module.
TESTS = {
    "qseries": ["tests/test_qseries.py", "tests/test_qracah.py"],
    "qracah": ["tests/test_qracah.py", "tests/test_chain.py", "tests/test_killers.py",
               "tests/test_acceptance.py"],
    "chain": ["tests/test_chain.py", "tests/test_killers.py", "tests/test_acceptance.py",
              "tests/test_cli.py"],
    "freefermion": ["tests/test_freefermion.py", "tests/test_killers.py",
                    "tests/test_acceptance.py"],
    "spinoracle": ["tests/test_spinoracle.py", "tests/test_killers.py"],
    "linalg": ["tests/test_linalg.py", "tests/test_killers.py"],
    "cli": ["tests/test_cli.py", "tests/test_cli_fuzz.py", "tests/test_killers.py"],
    "report": ["tests/test_cli.py", "tests/test_killers.py"],
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
}
TIMEOUT_S = 900
EQUIVALENT = Path(__file__).with_name("equivalent_mutants.txt")


def _functions(tree, names):
    """The nodes of the functions ``names`` (``name`` or ``Class.name``)."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    missing = [name for name in names if name not in found]
    if missing:
        raise SystemExit(f"no function {', '.join(missing)} in the module")
    return [found[name] for name in names]


def _sites(tree, names):
    """Every ``(function, node, index)`` whose operator a mutant swaps, in
    source order; ``index`` picks one operator of a chained comparison."""
    sites = []
    for name, function in zip(names, _functions(tree, names)):
        for node in ast.walk(function):
            if isinstance(node, ast.Compare):
                sites += [(name, node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
                sites.append((name, node, None))
    return sorted(sites, key=lambda site: (site[1].lineno, site[1].col_offset))


def _operator(node, index):
    return node.ops[index] if index is not None else node.op


def _position(node, index):
    """``line:column`` just after the operand left of the operator."""
    if isinstance(node, ast.Compare):
        left = ([node.left] + node.comparators)[index]
    else:
        left = node.left if isinstance(node, ast.BinOp) else node.target
    return f"{left.end_lineno}:{left.end_col_offset}"


def _names(module, sites):
    """The name of each site, ``MODULE FUNCTION: EXPRESSION OLD -> NEW``,
    with ``#n`` after the ``n``-th of one name."""
    names, seen = [], {}
    for name, node, index in sites:
        op = type(_operator(node, index))
        label = f"{module} {name}: {ast.unparse(node)} {SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]}"
        seen[label] = seen.get(label, 0) + 1
        names.append(label if seen[label] == 1 else f"{label} #{seen[label]}")
    return names


def equivalent():
    """The accepted equivalent mutants, as site name -> reason."""
    lines = EQUIVALENT.read_text().splitlines()
    return dict(tuple(part.strip() for part in line.rsplit(" | ", 1))
                for line in lines if line.strip() and not line.startswith("#"))


def _mutant(source, names, number):
    """The module source with the operator of site ``number`` swapped."""
    tree = ast.parse(source)
    _, node, index = _sites(tree, names)[number]
    swapped = SWAPS[type(_operator(node, index))]()
    if index is None:
        node.op = swapped
    else:
        node.ops[index] = swapped
    return ast.unparse(tree)


def _first_failure(output):
    match = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return match.group(1) if match else "a failing run"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module")
    parser.add_argument("functions", nargs="+")
    parser.add_argument("--list", action="store_true", help="print the sites and stop")
    args = parser.parse_args(argv)
    path = PACKAGE / f"{args.module}.py"
    source = path.read_text()
    sites = _sites(ast.parse(source), args.functions)
    known = equivalent()
    survivors = accepted = 0
    for number, ((_, node, index), site) in enumerate(zip(sites, _names(args.module, sites))):
        label = f"{path.name}:{_position(node, index)} {site}"
        if args.list:
            print(label)
            continue
        with tempfile.TemporaryDirectory() as work:
            copy = Path(work) / "src"
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            (copy / "xychain" / path.name).write_text(_mutant(source, args.functions, number))
            command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                       "-o", f"pythonpath={copy}", *TESTS[args.module]]
            try:
                run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                     timeout=TIMEOUT_S, env={**os.environ, "PYTHONPATH": str(copy)})
                verdict = "SURVIVED" if run.returncode == 0 else (
                    f"killed by {_first_failure(run.stdout)}")
            except subprocess.TimeoutExpired:
                verdict = f"killed by the {TIMEOUT_S} s timeout"
        if verdict == "SURVIVED" and site in known:
            verdict = f"SURVIVED, known equivalent: {known[site]}"
            accepted += 1
        survivors += verdict.startswith("SURVIVED")
        print(f"{label}: {verdict}", flush=True)
    if not args.list:
        print(f"{len(sites)} mutants, {len(sites) - survivors} killed, {survivors} survived "
              f"({accepted} of them known equivalent)")
    return 1 if survivors > accepted else 0


if __name__ == "__main__":
    sys.exit(main())
