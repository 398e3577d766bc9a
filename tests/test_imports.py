"""Every module of the package uses each name it imports, and only the
modules whose values can be non-integral import `fractions`."""

import ast
from pathlib import Path

import pytest

import bdsweyl

MODULES = sorted(p for p in Path(bdsweyl.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_guard_sees_unused_and_used_names():
    assert unused_imports("import os\nfrom typing import Mapping, Sequence\nx: Mapping\n") == [
        "Sequence", "os"]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# the symmetrizer and `inner`, the Garland coefficients, the evaluation
# parameters and their draws; everything else is integer arithmetic
FRACTION_MODULES = {"rootsys.py", "garland.py", "weylcrit.py", "verify.py"}


def imports_fractions(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            return True
    return False


def test_guard_sees_fractions_imports():
    assert imports_fractions("from fractions import Fraction\n")
    assert imports_fractions("import os, fractions as fr\n")
    assert not imports_fractions("from .rootsys import Fraction\nimport fractional\n")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fractions_only_where_values_are_rational(path):
    assert path.name in FRACTION_MODULES or not imports_fractions(path.read_text())
