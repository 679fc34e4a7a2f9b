"""Static checks that a deletion leaves no dangling import or export behind."""

import ast
import tomllib
from pathlib import Path

import steerq

ROOT = Path(__file__).resolve().parents[1]
CHECKED = [path for folder in ("src/steerq", "tests", "tools", "demos")
           for path in sorted((ROOT / folder).glob("*.py"))
           if path != ROOT / "src/steerq/__init__.py"]


def imported_names(tree: ast.AST) -> set[str]:
    """The names an import statement binds, anywhere in the module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def test_every_import_is_used():
    offenders = {}
    for path in CHECKED:
        tree = ast.parse(path.read_text(), filename=str(path))
        unused = imported_names(tree) - {node.id for node in ast.walk(tree)
                                         if isinstance(node, ast.Name)}
        if unused:
            offenders[str(path.relative_to(ROOT))] = sorted(unused)
    assert not offenders


def test_all_is_sorted_and_equals_the_package_imports():
    tree = ast.parse((ROOT / "src/steerq/__init__.py").read_text())
    assert steerq.__all__ == sorted(set(steerq.__all__))
    assert set(steerq.__all__) == imported_names(tree)


def test_version_matches_pyproject():
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == steerq.__version__
