"""Every defaulted parameter of a library function is passed by the program.

A parameter that no call in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py`` sets is a constant with extra steps, even when
a unit test varies it; this catches the ones a refactor leaves behind.
``EXEMPT`` names the few kept for a unit test, each with its reason.  Calls
are matched by the callee's bare name, so a name shared by two functions
pools their calls.  A function that the program also uses as a value (a
table entry or a ``functools.partial`` argument) is skipped, because its
calls cannot be read statically; a unit test that reads one as a value, say
to check that a patch was undone, calls nothing through it.
"""
import ast
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
LIBRARY = sorted((ROOT / "src" / "semicov").glob("*.py"))
CALLERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
                  ROOT / "tests" / "test_acceptance.py"])
READERS = [p for p in CALLERS if p.parent.name == "tests" or not p.name.startswith("test_")]

_REPELLER_GRID = ("test_coded_residual_reads_the_stored_node_values needs 37 x 100 nodes to "
                  "show rounding at non-dyadic nodes; at 65 x 128 its node gap reads 0")
EXEMPT = {
    "connectors.py: repelling_connectors(n_samples)":
        "the d=+-4 depth-7 codings of test_coded_field_residual_bound run about three "
        "times slower at the default 1024 samples",
    "connectors.py: semiconjugacy_from_repellers(nx)": _REPELLER_GRID,
    "connectors.py: semiconjugacy_from_repellers(ny)": _REPELLER_GRID,
    "semiconj2d.py: solve_band_semiconjugacy(orientation)":
        "it mirrors the 1D --orientation that the CLI sets and selects no code path of its own",
}
# parameters that only unit tests set, or that the function's inputs determine, since gone
REMOVED = [("classify.py", "plateau_set", "plateau_tol"),
           ("classify.py", "classify_circle_point", "max_depth"),
           ("classify.py", "snap_structured_angle", "max_depth"),
           ("classify.py", "_orbit_corroborated", "horizon"),
           ("circle.py", "find_periodic_points", "scan"),
           ("obstruction.py", "lift_loop_winding", "path_samples"),
           ("semiconj2d.py", "check_fiber_connector", "x_levels"),
           ("connectors.py", "_nest", "first_only")]


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


def unpassed(library, callers, readers=None) -> list[str]:
    """The defaulted parameters no call in callers passes, skipping functions readers use
    as values (all of callers' value reads by default)."""
    calls, values = calls_and_values(callers)
    if readers is not None:
        values = calls_and_values(readers)[1]
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
    # a value read outside the readers skips nothing
    assert unpassed([("lib", lib)], [callers], [ast.parse("")]) == [
        "lib: f(b)", "lib: f(d)", "lib: g(z)"]


def _library():
    return [(p.name, ast.parse(p.read_text())) for p in LIBRARY]


@functools.cache
def _callers_and_readers():
    trees = {p: ast.parse(p.read_text()) for p in CALLERS}
    return list(trees.values()), [trees[p] for p in READERS]


def test_every_defaulted_parameter_has_a_caller():
    assert unpassed(_library(), *_callers_and_readers()) == sorted(EXEMPT)


@pytest.mark.parametrize("module, function, parameter", REMOVED)
def test_a_removed_parameter_put_back_is_found(module, function, parameter):
    library = _library()
    node = next(n for n in ast.walk(dict(library)[module])
                if isinstance(n, ast.FunctionDef) and n.name == function)
    node.args.kwonlyargs.append(ast.arg(parameter))
    node.args.kw_defaults.append(ast.Constant(None))
    assert f"{module}: {function}({parameter})" in unpassed(library, *_callers_and_readers())
