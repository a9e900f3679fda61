"""Smoke tests: the example scripts run to completion on small inputs."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    (
        ["equivalence_sweep.py", "--logic", "K3", "--conclusion-size", "1", "--solo-size", "1"],
        ["interpolation_demo.py", "--count", "1"],
    ),
)
def test_script_exits_cleanly(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
