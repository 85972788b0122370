"""Every name a library module imports is used in that module, and every
error class is raised somewhere in the library.

No linter ships with the project, so this catches the imports and the
errors that a deleted function leaves behind.  ``__init__.py`` only
re-exports.
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


def unraised_errors(errors: str, sources: list[str]) -> list[str]:
    """The SemicovError subclasses defined in errors that no raise statement in sources names."""
    classes = {node.name for node in ast.walk(ast.parse(errors)) if isinstance(node, ast.ClassDef)
               and any(isinstance(b, ast.Name) and b.id == "SemicovError" for b in node.bases)}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return sorted(classes - raised)


def test_unraised_errors_are_found():
    errors = ("class SemicovError(Exception): pass\nclass A(SemicovError): pass\n"
              "class B(SemicovError): pass\nclass C(SemicovError): pass\nclass D(ValueError): pass\n")
    assert unraised_errors(errors, ["raise A('x')\n", "raise errors.B\n"]) == ["C"]


def test_every_error_is_raised():
    errors = (MODULES[0].parent / "errors.py").read_text()
    assert unraised_errors(errors, [p.read_text() for p in MODULES]) == []
