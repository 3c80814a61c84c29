"""Every script in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Demos that take more than about five seconds on a 2-CPU machine.
SLOW = {"sinkhorn_divergence_interpolation.py"}


def test_demos_are_found():
    assert DEMOS, f"no scripts under {ROOT / 'demos'}"


@pytest.mark.parametrize("script", [
    pytest.param(path, id=path.stem,
                 marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS
])
def test_demo_exits_zero(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OT_THREADS="1")
    result = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
