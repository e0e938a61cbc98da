"""No module of the package or of its tests imports a name it never uses,
and none defines a name that nothing uses.

No linter ships with the project, so these are the checks:
- a name bound by ``import``/``from ... import`` must appear somewhere else
  in the module, unless its line carries ``# noqa: F401``;
- a top-level name a package or test module defines (a function, a class
  or an assigned name), and each non-dunder method, property or annotated
  field (dataclass and NamedTuple fields) of its classes, must appear
  somewhere under ``src/``, ``tests/`` or ``perfbench/`` other than its own
  definition: read as an identifier, as an attribute, or as a whole string
  constant (as ``getattr`` and the benchmark's tracing name it).  A test
  module's ``test_*`` functions are left out, since pytest collects them by
  their prefix, so a folded test cannot leave a helper, a constant or a
  class behind;
- a backticked span of ``README.md`` names no private (single-underscore)
  identifier, and a dotted name in one that starts with ``sqss`` or a
  package module resolves, so README never restates what a refactor moves.

The package's ``__init__.py`` is exempt from both, since it imports to
re-export.
"""

import ast
import pkgutil
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# Package modules by file name, test modules by their path under the root.
MODULES = {p.name: p for p in sorted((ROOT / "src" / "sqss").glob("*.py"))
           if p.name != "__init__.py"}
MODULES.update({f"tests/{p.name}": p for p in sorted((ROOT / "tests").glob("*.py"))})


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module, test_module: bool = False) -> list[tuple[str, str]]:
    """Top-level names a module defines, each with its classes' non-dunder
    methods, properties and annotated fields labelled ``Class.name`` after
    it, in order, as (label, name) pairs.  A test module's ``test_*``
    functions are left out."""
    names = []
    for node in tree.body:
        if (test_module and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("test_")):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(n.id, n.id) for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
        if isinstance(node, ast.ClassDef):
            names += [(f"{node.name}.{name}", name) for name in map(_member, node.body)
                      if name and not _is_dunder(name)]
    return names


def _member(node) -> str | None:
    """The name a class-body statement defines as a method, property or
    annotated field (a dataclass or NamedTuple field), else None."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def mentions(tree: ast.Module) -> set[str]:
    """Identifiers read, attribute names and string constants of a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def dead_names(defining: dict[str, str], sources: list[str]) -> list[str]:
    """``module.name`` for each name a ``defining`` module defines that no
    source mentions; ``sources`` include the defining modules, and a module
    named ``tests/...`` is a test module.  Each source is parsed once."""
    trees = {source: ast.parse(source) for source in sources}
    used = set().union(*map(mentions, trees.values()))
    return [f"{module}.{label}" for module, source in defining.items()
            for label, name in defined_names(trees[source], module.startswith("tests/"))
            if name not in used]


def test_the_check_sees_unused_and_noqa_imports():
    source = ("import os\nimport sys\nfrom json import dumps, loads\n"
              "from math import pi  # noqa: F401\nprint(sys.argv, loads)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports(MODULES[module].read_text()) == []


def test_the_check_sees_dead_names():
    module = ("LIVE = 1\nDEAD, (PAIR, LEFT) = 2, (3, 4)\nKEY: int = 5\n"
              "def used():\n    return LIVE + PAIR\nclass Gone:\n    pass\n")
    other = "import m\nm.used()\ngetattr(m, 'KEY')\n"
    assert dead_names({"m": module}, [module, other]) == ["m.DEAD", "m.LEFT", "m.Gone"]
    tests = "TEST_CASES = [1]\ndef _helper():\n    pass\ndef test_one():\n    pass\n"
    assert dead_names({"tests/t": tests}, [tests]) == ["tests/t.TEST_CASES", "tests/t._helper"]


def test_the_check_sees_dead_methods():
    module = ("class Party:\n    def __init__(self):\n        self.step()\n"
              "    def step(self):\n        pass\n    def left_behind(self):\n        pass\n"
              "    @property\n    def size(self):\n        return 1\n"
              "    @property\n    def unread(self):\n        return 2\n")
    other = "from m import Party\nParty().size\n"
    assert dead_names({"m": module}, [module, other]) == ["m.Party.left_behind",
                                                          "m.Party.unread"]


def test_the_check_sees_dead_fields():
    module = ("from dataclasses import dataclass\nfrom typing import NamedTuple\n"
              "@dataclass\nclass Spec:\n    kept: int\n    unread: str = ''\n"
              "class Row(NamedTuple):\n    x: int\n    y: int\n")
    other = "from m import Row, Spec\nprint(Spec(1).kept, Row(1, 2).x)\n"
    assert dead_names({"m": module}, [module, other]) == ["m.Spec.unread", "m.Row.y"]


def test_package_defines_no_dead_name():
    sources = [p.read_text() for top in ("src", "tests", "perfbench")
               for p in sorted((ROOT / top).rglob("*.py"))]
    defining = {module if p.parent.name == "tests" else p.stem: p.read_text()
                for module, p in MODULES.items()}
    assert dead_names(defining, sources) == []


# A fenced block, or an inline code span, of README.md.
_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def test_readme_cites_only_public_names_that_resolve():
    spans = [m.group().strip("`") for m in _SPAN.finditer((ROOT / "README.md").read_text())]
    private = [name for span in spans for name in re.findall(r"\b_\w*", span)
               if not _is_dunder(name)]
    assert private == []
    unresolved = []
    for span in filter(_DOTTED.fullmatch, spans):
        head = span.split(".")[0]
        if head == "sqss" or f"{head}.py" in MODULES:
            try:
                pkgutil.resolve_name(span if head == "sqss" else f"sqss.{span}")
            except (ImportError, AttributeError):
                unresolved.append(span)
    assert unresolved == []
