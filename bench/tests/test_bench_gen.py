"""The generator is deterministic in its seed and independent of the package."""

import filecmp
import subprocess
import sys

from common import ROOT, WORKLOADS

GEN = ROOT / "bench" / "gen.py"


def _generate(workload, seed, out):
    subprocess.run([sys.executable, str(GEN), "--workload", workload, "--seed", str(seed),
                    "--out", str(out)], check=True)
    return out


def _same(left, right):
    files = ["schedule.json", "expected.json"] + [
        f"inputs/{path.name}" for path in sorted((left / "inputs").iterdir())]
    match, mismatch, errors = filecmp.cmpfiles(left, right, files, shallow=False)
    return not mismatch and not errors


def test_same_seed_same_inputs(tmp_path):
    for workload in WORKLOADS:
        first = _generate(workload, 5, tmp_path / f"{workload}-a")
        second = _generate(workload, 5, tmp_path / f"{workload}-b")
        assert _same(first, second), workload


def test_other_seed_other_inputs(tmp_path):
    for workload in WORKLOADS:
        first = _generate(workload, 5, tmp_path / f"{workload}-a")
        second = _generate(workload, 6, tmp_path / f"{workload}-b")
        assert not _same(first, second), workload


def test_generator_does_not_import_the_package():
    code = (f"import sys; sys.argv = ['gen']; sys.path.insert(0, {str(GEN.parent)!r}); "
            "import gen; assert not any(m.split('.')[0] == 'xychain' for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code], check=True)
