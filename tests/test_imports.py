"""Every name a library module imports is used in that module.

No linter ships with the project, so this catches the imports that a
deleted function leaves behind.  ``__init__.py`` only re-exports.
"""
import ast
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parents[1] / "src" / "semicov").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    assert unused_imports("from __future__ import annotations\nimport os\nfrom a import b as c, d\n"
                          "d()\n") == ["line 2: os", "line 3: c"]
    assert unused_imports("import numpy.linalg\nx: 'int' = numpy.pi\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
