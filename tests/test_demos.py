"""Smoke test: every demo script runs to completion and prints something."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env=env, cwd=ROOT, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
