"""Module boundaries: no gcnsim module reaches into a sibling's privates,
the package imports nothing outside the standard library, and it exports
nothing that only tests use."""

import ast
import re
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


# Acceptance criterion 2 checks bound admissibility against it; whether it
# stays public is ROADMAP item 6's open decision.
UNGUARDED_EXPORTS = {"aggregate_bound"}


def exported_names(source: str) -> list[str]:
    """Names a package `__init__` imports from its modules."""
    return [alias.asname or alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def code_references(source: str) -> set[str]:
    """Names a module's code reads or imports, as bare names, attributes or
    imported names; a definition alone is not a reference."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreferenced_exports(init: str, modules: list[str],
                         texts: list[str]) -> list[str]:
    """Exports of `init` that no module's code references and no text
    names as a word."""
    used = set().union(*map(code_references, modules))
    words = set(re.findall(r"\w+", "\n".join(texts)))
    return [name for name in exported_names(init)
            if name not in used and name not in words]


def test_detects_an_export_only_tests_use():
    init = "from .model import helper, used\nfrom .solver import told\n"
    modules = ["def helper():\n    pass\n\ndef used():\n    pass\n",
               "from .model import used\n"]
    assert unreferenced_exports(init, modules, ["call `told`"]) == ["helper"]


def test_every_export_is_used_outside_the_tests():
    root = Path(__file__).resolve().parents[1]
    modules = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    texts = [path.read_text(encoding="utf-8")
             for path in [*sorted((root / "perfbench").glob("*.py")),
                          root / "README.md"]]
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert sorted(set(unreferenced_exports(init, modules, texts))
                  - UNGUARDED_EXPORTS) == []
