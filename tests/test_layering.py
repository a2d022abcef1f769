"""Module boundaries: no gcnsim module reaches into a sibling's privates,
and the package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import gcnsim

PACKAGE = Path(gcnsim.__file__).parent


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names imported from sibling modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level == 1 or (node.module or "").startswith("gcnsim")
        if sibling:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_detects_a_private_import():
    assert private_imports("from .solver import _x, y\n") == ["solver._x"]
    assert private_imports("from gcnsim.model import _y\n") == [
        "gcnsim.model._y"]
    assert private_imports("from dataclasses import _MISSING_TYPE\n") == []


def test_no_module_imports_a_sibling_private():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the modules a source imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_package_imports_only_the_standard_library():
    assert absolute_imports("import numpy.linalg\nfrom .model import x\n"
                            "from scipy import optimize\n") == {"numpy",
                                                                 "scipy"}
    imported = set().union(*(absolute_imports(path.read_text(encoding="utf-8"))
                             for path in sorted(PACKAGE.rglob("*.py"))))
    assert "argparse" in imported
    assert sorted(imported - set(sys.stdlib_module_names)) == []
