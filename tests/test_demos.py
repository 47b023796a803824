"""The demos run clean: each exits 0 and writes nothing to stderr.

Demos 01-03 call the library entry points directly, so a signature change
that misses a demo fails here.  Demo 04 takes several seconds and exercises
only ``parameter_scan``/``validate_draw``, which the scan tests cover.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_closed_form_spectrum.py", "02_contiguity_certification.py", "03_jordan_wigner.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout
