"""Every defaulted parameter of a library function is passed by the program,
at some call with another value, and every public function or class, and every
public method or property of a public class, is named by the program.

A parameter that no call in ``src/``, ``perfbench/`` or
``tests/test_acceptance.py`` sets, or that every such call sets to a literal
equal to its default, is a constant with extra steps, even when a unit test
varies it; a public name that none of them reads (for a method or property,
as an attribute outside its own class) is surface only unit tests reach.  This catches the ones a refactor leaves behind.
``EXEMPT``, ``DEFAULT_EXEMPT`` and ``UNNAMED_EXEMPT`` name the few kept, each
with its reason.  Calls are matched by the callee's bare name, so a name
shared by two functions pools their calls.  A function that the program also
uses as a value (a table entry or a ``functools.partial`` argument) is
skipped, because its calls cannot be read statically; a unit test that reads
one as a value, say to check that a patch was undone, calls nothing through
it.  An import or a string does not name a function: the re-exports of
``__init__.py`` and the tracer's ``"module:function"`` targets do not count.
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
    "connectors.py: semiconjugacy_from_repellers(nx)": _REPELLER_GRID,
    "connectors.py: semiconjugacy_from_repellers(ny)": _REPELLER_GRID,
}
DEFAULT_EXEMPT = {
    "circle.py: find_periodic_points(tol)":
        "perfbench/workloads.py passes tol=1e-9 by keyword, so dropping it changes the benchmark",
}
UNNAMED_EXEMPT: dict[str, str] = {}
# parameters that only unit tests set, that the program passed only at their default, or that
# the function's inputs determine, since gone
REMOVED = [("classify.py", "plateau_set", "plateau_tol"),
           ("classify.py", "classify_circle_point", "max_depth"),
           ("classify.py", "snap_structured_angle", "max_depth"),
           ("classify.py", "_orbit_corroborated", "horizon"),
           ("circle.py", "find_periodic_points", "scan"),
           ("obstruction.py", "lift_loop_winding", "path_samples"),
           ("semiconj2d.py", "check_fiber_connector", "x_levels"),
           ("connectors.py", "_nest", "first_only"),
           ("semiconj2d.py", "check_fiber_surjectivity", "max_gap"),
           ("semiconj2d.py", "check_fiber_connector", "tol"),
           ("stability.py", "verify_perturbation", "r_samples"),
           ("stability.py", "verify_perturbation", "disc_width"),
           ("connectors.py", "repelling_connectors", "n_samples"),
           ("semiconj2d.py", "solve_band_semiconjugacy", "orientation")]


def defaulted_parameters(tree: ast.Module) -> list[tuple[str, int, list[tuple]]]:
    """(name, offset, [(position, parameter, default)]) per function with defaults; a
    method's offset of 1 skips self, and keyword-only parameters take position -1."""
    out = []
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        params = [(i, positional[i].arg, d) for i, d in enumerate(a.defaults, first)]
        params += [(-1, p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
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


def argument(call: ast.Call, offset: int, position: int, name: str) -> ast.expr | None:
    """What call passes for the parameter: its argument, the call itself when a * or **
    argument may pass it, or None."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if any(k.arg is None for k in call.keywords) or any(isinstance(a, ast.Starred)
                                                        for a in call.args):
        return call
    i = position - offset
    return call.args[i] if 0 <= i < len(call.args) else None


def same_literal(a: ast.expr, b: ast.expr) -> bool:
    try:
        return ast.literal_eval(a) == ast.literal_eval(b)
    except (ValueError, TypeError, SyntaxError):
        return False


def arguments(library, callers, readers=None):
    """(label, default, [what each call in callers passes]) per defaulted parameter,
    skipping functions readers use as values (all of callers' value reads by default)."""
    calls, values = calls_and_values(callers)
    if readers is not None:
        values = calls_and_values(readers)[1]
    for path, tree in library:
        for name, offset, params in defaulted_parameters(tree):
            if name in values:
                continue
            for pos, p, default in params:
                passed = (argument(c, offset, pos, p) for c in calls.get(name, []))
                yield f"{path}: {name}({p})", default, [a for a in passed if a is not None]


def unpassed(library, callers, readers=None) -> list[str]:
    """The defaulted parameters no call in callers passes."""
    return sorted(label for label, _, args in arguments(library, callers, readers) if not args)


def default_only(library, callers, readers=None) -> list[str]:
    """The defaulted parameters every call in callers that passes them passes a literal
    equal to the default."""
    return sorted(label for label, default, args in arguments(library, callers, readers)
                  if args and all(same_literal(a, default) for a in args))


def unnamed(library, callers) -> list[str]:
    """The public module-level functions and classes of library that no name or
    attribute in callers reads, and the public methods and properties of its public
    classes that no attribute in callers reads, outside the function's or class's
    own body."""
    reads: dict[str, set] = {}          # name, or .attribute, -> the top-level bodies reading it
    for tree in callers:
        owner = {id(n): top.name for top in tree.body
                 if isinstance(top, (ast.FunctionDef, ast.ClassDef)) for n in ast.walk(top)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)):
                key = n.id if isinstance(n, ast.Name) else "." + n.attr
                reads.setdefault(key, set()).add(owner.get(id(n)))
    found = []
    for path, tree in library:
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
                continue
            outside = lambda key: reads.get(key, set()) - {top.name}
            if not outside(top.name) and not outside("." + top.name):
                found.append(f"{path}: {top.name}")
            members = top.body if isinstance(top, ast.ClassDef) else []
            found += [f"{path}: {top.name}.{f.name}" for f in members
                      if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                      and not outside("." + f.name)]
    return sorted(found)


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


def test_parameters_passed_only_their_default_are_found():
    lib = ast.parse("def f(a, b=1, *, c=0.5, d=None, e=(1, 2)):\n    pass\n"
                    "class K:\n    def m(self, x, y=0):\n        pass\n"
                    "def g(z=0):\n    pass\n")
    callers = ast.parse("f(0, 1, c=0.5, d=None, e=(1, 2))\nf(0, b=1)\nK().m(0, 0)\ng(-0)\n")
    assert default_only([("lib", lib)], [callers]) == [
        "lib: f(b)", "lib: f(c)", "lib: f(d)", "lib: f(e)", "lib: g(z)", "lib: m(y)"]
    # another literal, a name, an expression or a * or ** argument at one call is enough
    callers = ast.parse("f(0, 2, c=0.5)\nf(0, c=0.25, d=x, e=(1, 3))\nf(0, 1)\n"
                        "K().m(0, 10 ** 6)\ng(*args)\nf(0, 1, **kw)\n")
    assert default_only([("lib", lib)], [callers]) == []


def test_unnamed_functions_and_classes_are_found():
    lib = ast.parse("def used():\n    pass\ndef unused():\n    return unused()\n"
                    "def exported():\n    pass\ndef traced():\n    pass\n"
                    "def _private():\n    pass\nclass K:\n    def m(self) -> K:\n        pass\n"
                    "class Annotated:\n    pass\nclass Method:\n    pass\n"
                    "class Curve:\n    @property\n    def ends(self):\n        return self.span()\n"
                    "    def span(self):\n        return self.ends\n"
                    "    def _own(self):\n        pass\n"
                    "    def shared(self):\n        pass\n"
                    "class _Hidden:\n    def hidden(self):\n        pass\n")
    # a method or property read only inside its own class is unnamed, as is one of an
    # unnamed class; an attribute read elsewhere names it, a bare name of its spelling does not
    callers = [lib, ast.parse("from lib import used, unused\nused()\nx: Annotated = k.Method\n"),
               ast.parse("from .lib import exported\n__all__ = ['exported']\n"),
               ast.parse("TARGETS = ('lib:traced',)\n"),
               ast.parse("def f(c: Curve):\n    span = 1\n    return c.ends\nc.shared()\n")]
    assert unnamed([("lib.py", lib)], callers) == [
        "lib.py: Curve.span", "lib.py: K", "lib.py: K.m", "lib.py: exported", "lib.py: traced",
        "lib.py: unused"]


def _library():
    return [(p.name, ast.parse(p.read_text())) for p in LIBRARY]


@functools.cache
def _callers_and_readers():
    trees = {p: ast.parse(p.read_text()) for p in CALLERS}
    return list(trees.values()), [trees[p] for p in READERS]


def test_every_defaulted_parameter_has_a_caller():
    assert unpassed(_library(), *_callers_and_readers()) == sorted(EXEMPT)


def test_no_parameter_is_passed_only_its_default():
    assert default_only(_library(), *_callers_and_readers()) == sorted(DEFAULT_EXEMPT)


def test_every_public_function_and_class_is_named():
    assert unnamed(_library(), _callers_and_readers()[0]) == sorted(UNNAMED_EXEMPT)


@pytest.mark.parametrize("module, function, parameter", REMOVED)
def test_a_removed_parameter_put_back_is_found(module, function, parameter):
    library = _library()
    node = next(n for n in ast.walk(dict(library)[module])
                if isinstance(n, ast.FunctionDef) and n.name == function)
    node.args.kwonlyargs.append(ast.arg(parameter))
    node.args.kw_defaults.append(ast.Constant(None))
    assert f"{module}: {function}({parameter})" in unpassed(library, *_callers_and_readers())


def test_a_removed_function_put_back_is_found():
    library = _library()
    dict(library)["stability.py"].body.append(
        ast.parse("def bump_phi(rho, rho_p, t):\n    return t\n").body[0])
    assert "stability.py: bump_phi" in unnamed(library, _callers_and_readers()[0])
