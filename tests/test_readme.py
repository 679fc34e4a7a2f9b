"""The README's python examples run, and import only what steerq exports."""

import ast
import contextlib
import io
import re
from pathlib import Path

import pytest

import steerq

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(source):
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "steerq":
            assert {alias.name for alias in node.names} <= set(steerq.__all__)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {})
    assert out.getvalue()
