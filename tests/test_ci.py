"""The CI form of the suite, python -X dev -W error -m pytest, counts a failing property
test and still runs the tests after it."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_run(tmp_path):
    (tmp_path / "test_ci_probe.py").write_text(FAILING_THEN_PASSING)
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "pytest", "-q",
                             "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
                             "--rootdir", str(tmp_path), "test_ci_probe.py"],
                            capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout.splitlines()[-1]
