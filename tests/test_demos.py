"""The quick narrative demos run to completion (03 and 04 train for tens of seconds and are left out)."""

import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent


def run_demo(name: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_gradient_engine_demo():
    # the only demo that drives the tape directly
    out = run_demo("01_gradient_engine.py")
    assert out.returncode == 0, out.stderr
    assert "all well under the 1e-5 gate" in out.stdout


def test_information_bound_oracles_demo():
    out = run_demo("02_information_bound_oracles.py")
    assert out.returncode == 0, out.stderr
