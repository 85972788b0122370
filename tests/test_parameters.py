"""Every defaulted parameter of a library function is passed by some call.

A parameter that no call in ``src/``, ``tests/`` or ``perfbench/`` sets is a
constant with extra steps; this catches the ones a refactor leaves behind.
Calls are matched by the callee's bare name, so a name shared by two
functions pools their calls.  A function that is also used as a value (a
table entry, a ``functools.partial`` or ``pytest.raises`` argument) is
skipped, because its calls cannot be read statically.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "semicov").glob("*.py"))
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, int, list[tuple[int, str]]]]:
    """(name, offset, [(position, parameter)]) per function with defaults; a
    method's offset of 1 skips self, and keyword-only parameters take position -1."""
    out = []
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        params = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
        params += [(-1, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if params:
            out.append((node.name, int(id(node) in methods), params))
    return out


def calls_and_values(trees) -> tuple[dict[str, list[ast.Call]], set[str]]:
    """Calls per bare callee name, and the names also read as values."""
    calls: dict[str, list[ast.Call]] = {}
    callees = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callees.add(id(node.func))
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name:
                    calls.setdefault(name, []).append(node)
    values = {n.id if isinstance(n, ast.Name) else n.attr for tree in trees for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
              and id(n) not in callees}
    return calls, values


def passes(call: ast.Call, offset: int, position: int, name: str) -> bool:
    if any(k.arg in (None, name) for k in call.keywords):            # by name or by **kwargs
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return 0 <= position - offset < len(call.args)


def unpassed(library, callers) -> list[str]:
    calls, values = calls_and_values(callers)
    out = []
    for path, tree in library:
        for name, offset, params in defaulted_parameters(tree):
            if name in values:
                continue
            out += [f"{path}: {name}({p})" for pos, p in params
                    if not any(passes(c, offset, pos, p) for c in calls.get(name, []))]
    return sorted(out)


def test_unpassed_parameters_are_found():
    lib = ast.parse("def f(a, b=1, *, c=2, d=3):\n    pass\n"
                    "class K:\n    def m(self, x, y=0):\n        pass\n"
                    "def g(z=0):\n    pass\n"
                    "def h(w=0):\n    pass\n")
    callers = ast.parse("f(0, c=1)\nk.m(0, 1)\ntable = [g]\nh(*args)\n")
    assert unpassed([("lib", lib)], [lib, callers]) == ["lib: f(b)", "lib: f(d)"]
    assert unpassed([("lib", lib)], [ast.parse("f(0, 1, **kw)\nK().m(0)\ng(); h()\n")]) == [
        "lib: g(z)", "lib: h(w)", "lib: m(y)"]


def test_every_defaulted_parameter_has_a_caller():
    callers = [ast.parse(p.read_text()) for p in CALLERS]
    library = [(p.name, ast.parse(p.read_text())) for p in LIBRARY]
    assert unpassed(library, callers) == []
