"""Every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = {"contamination_study.py"}


@pytest.mark.parametrize("script", [
    pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in sorted((ROOT / "demos").glob("*.py"))])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
