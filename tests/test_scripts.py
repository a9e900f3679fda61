"""Smoke tests: the scripts run to completion on small inputs, and the
output fingerprint does not depend on the process."""
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
    done = _run_script(argv)
    assert done.returncode == 0, done.stdout + done.stderr


def test_fingerprint_is_reproducible():
    # two processes with different string-hash salts print the same hashes
    runs = [_run_script(["fingerprint.py", "--goals", "2"], hash_seed) for hash_seed in "12"]
    for done in runs:
        assert done.returncode == 0, done.stdout + done.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["proofs", "interpolants", "memos", "oracle"]
    assert runs[0].stdout == runs[1].stdout


def _run_script(argv, hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
