"""The golden bytes on numpy's libm tier: tests/test_golden.py, run in a subprocess whose
numpy has its AVX-512 loops switched off, as on a CPU without AVX-512."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def run_without_avx512(*args) -> subprocess.CompletedProcess:
    # numpy only warns at import about a feature it cannot disable, then keeps it on
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests"),
                            os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, "-W", "error::ImportWarning", *args],
                          env={**os.environ, **NO_AVX512, "PYTHONPATH": path}, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_golden_bytes_without_avx512():
    probe = run_without_avx512("-c", "import helpers; print(helpers.cpu_tier())")
    if probe.returncode and "NPY_DISABLE_CPU_FEATURES" in probe.stderr:
        pytest.skip(probe.stderr[probe.stderr.rindex("ImportWarning"):].strip())
    assert probe.stdout == "libm\n", probe.stderr
    result = run_without_avx512("-m", "pytest", "-q", "-p", "no:cacheprovider",
                                "tests/test_golden.py")
    assert result.returncode == 0, result.stdout[-3000:]
    assert " passed" in result.stdout.splitlines()[-1]
