"""Module boundaries: no gcnsim module reaches into a sibling's privates."""

import ast
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
