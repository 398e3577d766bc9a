"""Every internal invariant of the package fails through `rootsys.require`:
no module has an `assert` statement, which `python -O` strips, and the one
`raise AssertionError` is the one inside `require`."""

import ast
from pathlib import Path

import pytest

import bdsweyl
from bdsweyl.rootsys import require

MODULES = sorted(Path(bdsweyl.__file__).parent.glob("*.py"))


def assertion_sites(source: str) -> list[tuple[str, str]]:
    """("assert" or "raise", enclosing function) for every `assert` statement
    and every `raise AssertionError` in the source, in line order."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Assert):
                sites.append((child.lineno, "assert", function))
            elif isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    sites.append((child.lineno, "raise", function))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return [(kind, function) for _, kind, function in sorted(sites)]


def test_guard_sees_asserts_and_raises():
    snippet = ("def require(ok):\n"
               "    if not ok:\n"
               "        raise AssertionError('x')\n"
               "assert True\n"
               "class C:\n"
               "    def f(self, x):\n"
               "        assert x, 'named'\n"
               "        if x:\n"
               "            raise AssertionError\n"
               "        raise ValueError('not an invariant')\n")
    assert assertion_sites(snippet) == [("raise", "require"), ("assert", "<module>"),
                                        ("assert", "f"), ("raise", "f")]
    assert assertion_sites("def g():\n    raise\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_invariants_fail_only_through_require(path):
    want = [("raise", "require")] if path.name == "rootsys.py" else []
    assert assertion_sites(path.read_text()) == want


def test_require_formats_only_on_failure():
    class Loud:
        def __format__(self, spec):
            raise RuntimeError("formatted on the passing path")

    require(True, "quiet {}", Loud())
    with pytest.raises(AssertionError) as exc:
        require(False, "theta_{}: got {}", 2, [(1, 1)])
    assert str(exc.value) == "theta_2: got [(1, 1)]"
    with pytest.raises(AssertionError) as exc:
        require(False, "literal {braces} kept without args")
    assert str(exc.value) == "literal {braces} kept without args"
