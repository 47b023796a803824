"""Corrupted outputs are counted as failed ops."""

import json
from pathlib import Path

import numpy as np
import pytest

import xychain.cli
from common import POOL
from gen import qr24_lambda
from run import check_ops, op_argv

POINT = {"family": "qr24", "a": -0.3, "b": 0.3, "c": -0.8, "q": 0.7, "N": 4}
EXPECTED = {
    "family": "qr24",
    "N": 4,
    "exit": 0,
    "lambda": [float(v) for v in np.sort(qr24_lambda(-0.3, 0.3, -0.8, 4, 0.7))],
    "checks": {"relation-plus": "PASS", "analytic-vs-numeric": "PASS"},
}


@pytest.fixture
def work_dir(tmp_path):
    (tmp_path / "inputs").mkdir()
    (tmp_path / "out").mkdir()
    (tmp_path / "inputs" / "p.json").write_text(json.dumps(POINT))
    return tmp_path


def _run(work_dir, command, ext):
    item = {"command": command, "config": "p", "ext": ext}
    argv = op_argv(work_dir, item, command)
    code = xychain.cli.main(argv)
    return {"op": 0, "item": item, "argv": argv, "code": code, "stderr": ""}


def _perturb_last_line(path, field, new_value):
    path = Path(path)
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[field] = new_value(cells[field])
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_clean_outputs_pass(work_dir):
    ops = [_run(work_dir, c, "csv") for c in ("chain-coeffs", "spectrum", "manybody")]
    ops.append(_run(work_dir, "verify", "json"))
    assert check_ops(ops, {"p": EXPECTED}) == []


def test_perturbed_manybody_energy_fails(work_dir):
    ops = [_run(work_dir, "chain-coeffs", "csv"), _run(work_dir, "manybody", "csv")]
    _perturb_last_line(ops[1]["argv"][-1], 1, lambda cell: repr(float(cell) * (1 + 1e-6)))
    failures = check_ops(ops, {"p": EXPECTED})
    assert [op["item"]["command"] for op, _ in failures] == ["manybody"]


def test_flipped_verify_verdict_fails(work_dir):
    op = _run(work_dir, "verify", "json")
    path = Path(op["argv"][-1])
    report = json.loads(path.read_text())
    report["checks"][0]["verdict"] = "FAIL"
    path.write_text(json.dumps(report))
    failures = check_ops([op], {"p": EXPECTED})
    assert len(failures) == 1 and "relation-plus" in failures[0][1][0]


def test_wrong_exit_code_fails(work_dir):
    op = _run(work_dir, "verify", "json")
    op["code"] = 4
    assert len(check_ops([op], {"p": EXPECTED})) == 1


def _pool_scan(work_dir):
    """The cheapest scan of the pool, with the outcome recorded for it."""
    candidate = json.loads(POOL.read_text())["scan-qr"][0]["candidates"][0]
    (work_dir / "inputs" / "s.json").write_text(json.dumps(candidate["config"]))
    item = {"command": "scan", "config": "s", "ext": "csv"}
    argv = op_argv(work_dir, item, "scan")
    op = {"op": 0, "item": item, "argv": argv, "code": xychain.cli.main(argv), "stderr": ""}
    return op, {"s": candidate["expected"]}


def test_pool_scan_matches_the_package(work_dir):
    op, expected = _pool_scan(work_dir)
    assert expected["s"]["valid"] > 0
    assert check_ops([op], expected) == []


def test_dropped_scan_row_fails(work_dir):
    op, expected = _pool_scan(work_dir)
    path = Path(op["argv"][-1])
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    failures = check_ops([op], expected)
    assert len(failures) == 1 and any("digest" in p for p in failures[0][1])
