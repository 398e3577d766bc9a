"""Every module of the package uses each name it imports, every function,
method and class it defines is reached from somewhere, only the modules
whose values can be non-integral import `fractions`, none imports
`dataclasses`, the golden corpus runs without loading `argparse`, `cli`
reads no private attribute of a presentation, only `cli.main` reads the
output format, and every name the docs cite through a module of the package
resolves."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bdsweyl
from test_golden import GOLDEN

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


def defined_names(source: str) -> set[str]:
    """The functions, methods and classes defined in source, dunders aside."""
    return {n.name for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))}


def read_names(source: str) -> set[str]:
    """The names source reads: names, attributes, and the str constants that
    are identifiers (`cli.COMMANDS` names each handler by a string)."""
    named = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name):
            named.add(n.id)
        elif isinstance(n, ast.Attribute):
            named.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            named.add(n.value)
    return named


def unreached_definitions(sources: list[str], outside: set[str]) -> list[str]:
    """The names defined in sources that no source reads and `outside` lacks."""
    defined = set().union(*map(defined_names, sources))
    return sorted(defined - set().union(*map(read_names, sources)) - outside)


def test_guard_sees_unreached_definitions():
    sources = ["class A:\n    def __len__(self): ...\n    def used(self): ...\n"
               "    def spare(self): ...\ndef kept(): ...\n",
               "A().used()\nhandler = 'kept'\n# spare\n"]
    assert unreached_definitions(sources, set()) == ["spare"]
    assert unreached_definitions(sources, {"spare"}) == []


# The bench files that name probe and check targets; they are read, not edited.
BENCH_NAMERS = [Path(__file__).parents[1] / "bench" / name for name in ("probes.py", "checks.py")]


def test_every_definition_is_reached_from_src_all_or_the_bench():
    # a definition only the tests call belongs in the tests
    bench = {w for path in BENCH_NAMERS for w in re.findall(r"[A-Za-z_]\w*", path.read_text())}
    sources = [p.read_text() for p in MODULES + [Path(bdsweyl.__file__)]]
    assert unreached_definitions(sources, set(bdsweyl.__all__) | bench) == []


def presentation_private_reads(source: str) -> tuple[set[str], list[str]]:
    """The names source binds to a presentation, an argument annotated
    `SRPresentation` or a name assigned a `presentation(...)` call, and the
    `_`-prefixed attributes it reads on them."""
    tree = ast.parse(source)
    names = {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)
             and isinstance(n.annotation, ast.Name) and n.annotation.id == "SRPresentation"}
    names |= {t.id for n in ast.walk(tree) if isinstance(n, ast.Assign)
              and isinstance(n.value, ast.Call) and isinstance(n.value.func, ast.Name)
              and n.value.func.id == "presentation" for t in n.targets if isinstance(t, ast.Name)}
    reads = sorted(f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute) and n.attr.startswith("_")
                   and isinstance(n.value, ast.Name) and n.value.id in names)
    return names, reads


def test_guard_sees_private_reads_on_a_presentation():
    source = ("def f(pres: SRPresentation, other: int):\n    return pres._tops, other._x\n"
              "p = presentation(pair, lam)\np._by_node\np.variables\nq._x\n")
    assert presentation_private_reads(source) == ({"pres", "p"}, ["p._by_node", "pres._tops"])


def test_cli_reads_no_private_attribute_of_a_presentation():
    # the facet and generator encodings are srring's: cli reads their tables
    source = (Path(bdsweyl.__file__).parent / "cli.py").read_text()
    names, reads = presentation_private_reads(source)
    assert "pres" in names
    assert reads == []


def format_readers(source: str) -> list[str]:
    """The innermost function around each read of `args.format` in source:
    a def by its name, a lambda as "<lambda>", and "<module>" outside both."""
    readers = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        elif isinstance(node, ast.Lambda):
            where = "<lambda>"
        elif (isinstance(node, ast.Attribute) and node.attr == "format"
              and isinstance(node.value, ast.Name) and node.value.id == "args"):
            readers.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return readers


def test_guard_sees_format_reads():
    source = ("def main(args):\n    return args.format\n"
              "def cmd_x(args):\n    if args.format == 'json':\n        return lam.format()\n"
              "    return lambda: [args.format]\n"
              "class C:\n    def f(self, args):\n        def g():\n            return args.format\n"
              "fmt = args.format\n")
    assert format_readers(source) == ["main", "cmd_x", "<lambda>", "g", "<module>"]


def test_only_main_reads_the_format():
    # every subcommand returns one payload and a text callable; `main` picks
    source = (Path(bdsweyl.__file__).parent / "cli.py").read_text()
    assert set(format_readers(source)) == {"main"}


# the symmetrizer and `inner`, the Garland coefficients, the evaluation
# parameters and their draws; everything else is integer arithmetic
FRACTION_MODULES = {"rootsys.py", "garland.py", "weylcrit.py", "verify.py"}


def imports_module(source: str, name: str) -> bool:
    """Whether `source` imports the top-level module `name`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == name for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == name:
            return True
    return False


def test_guard_sees_fractions_imports():
    assert imports_module("from fractions import Fraction\n", "fractions")
    assert imports_module("import os, fractions as fr\n", "fractions")
    assert not imports_module("from .rootsys import Fraction\nimport fractional\n", "fractions")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fractions_only_where_values_are_rational(path):
    assert path.name in FRACTION_MODULES or not imports_module(path.read_text(), "fractions")


def test_guard_sees_dataclasses_imports():
    assert imports_module("from dataclasses import dataclass\n", "dataclasses")
    assert imports_module("import os, dataclasses as dc\n", "dataclasses")
    assert not imports_module("from .dataclasses import x\nimport dataclasses_json\n", "dataclasses")


# `dataclasses` imports `inspect`, and with it `ast`, `dis` and `tokenize`,
# into every process that imports the package
@pytest.mark.parametrize("path", MODULES + [Path(bdsweyl.__file__)], ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert not imports_module(path.read_text(), "dataclasses")


FOOTPRINT = """
import sys
import bdsweyl.cli
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
"""


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S: no site hooks, so every module loaded is one the package asked for
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", FOOTPRINT], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout) == []


CORPUS_FOOTPRINT = """
import contextlib, io, json, sys
from bdsweyl.cli import main
codes = []
for command in json.loads(sys.argv[1]):
    for tail in ([], ["--format", "json"]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(main(command.split() + tail))
print(json.dumps([codes, "argparse" in sys.modules]))
"""


def test_golden_corpus_never_loads_argparse():
    # every golden argv is in the plain form, so no query builds the parser
    env = dict(os.environ, PYTHONPATH=str(Path(bdsweyl.__file__).parents[1]), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-S", "-c", CORPUS_FOOTPRINT,
                           json.dumps([command for command, _ in GOLDEN])],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * 2 * len(GOLDEN), False]


def test_every_public_name_resolves_in_its_home_module():
    for name in bdsweyl.__all__:
        obj = getattr(bdsweyl, name)
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj
    namespace = {}
    exec("from bdsweyl import *", namespace)
    assert {n: namespace[n] for n in bdsweyl.__all__} == {n: getattr(bdsweyl, n) for n in bdsweyl.__all__}
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        bdsweyl.no_such_name
    with pytest.raises(ImportError):
        exec("from bdsweyl import no_such_name", {})


ROOT = Path(__file__).parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def doc_references(text: str) -> list[str]:
    """The backticked dotted names in `text` that start with a module or a public
    name of the package, like `srring.MAX_FACETS` or `RootSystem.form`; a file
    name like `cli.py` is none."""
    heads = {p.stem for p in MODULES} | set(bdsweyl.__all__)
    return [ref for ref in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text)
            if ref.split(".")[0] in heads and not ref.endswith(".py")]


def test_guard_sees_doc_references():
    text = ("`srring.MAX_FACETS`, `cli._write`, `RootSystem.form`, `garland.py`, `json.dumps`, "
            "`cli.main(argv)`, `rootsys`")
    assert doc_references(text) == ["srring.MAX_FACETS", "cli._write", "RootSystem.form"]


def test_every_dotted_reference_in_the_docs_resolves():
    refs = [(path.name, ref) for path in DOCS for ref in doc_references(path.read_text())]
    assert refs
    for doc, ref in refs:
        head, *attrs = ref.split(".")
        obj = getattr(bdsweyl, head) if head in bdsweyl.__all__ else importlib.import_module(f"bdsweyl.{head}")
        for attr in attrs:
            assert hasattr(obj, attr), f"{doc}: `{ref}` does not resolve"
            obj = getattr(obj, attr)
