"""No module of the package or of its tests imports a name it never uses.

No linter ships with the project, so this is the one import check: a name
bound by ``import``/``from ... import`` must appear somewhere else in the
module, unless its line carries ``# noqa: F401``.  The package's
``__init__.py`` is exempt, since it imports to re-export.
"""

import ast
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


def test_the_check_sees_unused_and_noqa_imports():
    source = ("import os\nimport sys\nfrom json import dumps, loads\n"
              "from math import pi  # noqa: F401\nprint(sys.argv, loads)\n")
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports(MODULES[module].read_text()) == []
