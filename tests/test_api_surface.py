"""Every definition in the package has a caller inside the package, and
every default of a parameter is used by one.

An AST scan of src/quadalg: each module-level function or class, and each
method whose name is not a dunder, must be referenced somewhere in the
package outside its own body.  A reference is a name or an attribute with
the same identifier; imports, including the re-exports of __init__.py, do
not count.  Matching is by name only, so a dead method that shares its name
with a live one is not caught.

Each parameter of a def that has a default must be left out by at least
one call in the package, or the default is an option that only tests use.
Calls are matched by name in the same way, and an __init__ by the name of
its class.  Defaults of dataclass fields are not def parameters and are not
scanned.

No def only hands its parameters on: a computation has one definition,
under its public name, and a cached one carries its cache itself.  Each
cache takes positional-only parameters, so that one object has one cache
key: lru_cache keys f(a, 5) and f(a, bound=5) apart.
"""

import ast
import inspect
from pathlib import Path

from helpers import package_caches

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadalg"

# definitions kept without a caller in the package, each with its reason
EXEMPT = {
    "frobenius.GradedFDAlgebra.total_dim": "perfbench's tracer reads it",
    "skew.verify_extended_presentation": "the paper's presentation of "
                                         "A[z; xi] by the symmetrized "
                                         "superpotential; to be reported by "
                                         "the symmetrize command",
}


def _definitions(tree):
    """(qualified name, name, first line, last line) of every module-level
    def and class and of every method that is not a dunder."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield (f"{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def unreferenced():
    """module.qualified name of every definition without a reference."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    refs = {}
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append((path, node.lineno))
    dead = []
    for path, tree in trees.items():
        for qual, name, first, last in _definitions(tree):
            if all(p == path and first <= line <= last
                   for p, line in refs.get(name, ())):
                dead.append(f"{path.stem}.{qual}")
    return dead


def test_every_definition_has_a_caller_in_the_package():
    # an exempt name that gains a caller, or goes, also leaves the list
    assert sorted(unreferenced()) == sorted(EXEMPT)


def _defaulted(tree):
    """(qualified name, call name, the parameters a call fills
    positionally, the names of the defaulted parameters) of every def with
    a default, nested ones included."""
    def scan(node, cls):
        for item in node.body:
            if isinstance(item, ast.ClassDef):
                yield from scan(item, item.name)
            elif isinstance(item, ast.FunctionDef):
                yield from scan(item, None)
                a = item.args
                params = [p.arg for p in a.posonlyargs + a.args]
                opt = params[len(params) - len(a.defaults):] + [
                    p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                    if d is not None]
                if opt:
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    bound = int(cls is not None and not static)
                    name = cls if item.name == "__init__" else item.name
                    qual = f"{cls}.{item.name}" if cls else item.name
                    yield qual, name, params[bound:], opt
    yield from scan(tree, None)


def _omits(call, params, name):
    """Whether a call leaves out the parameter name: no keyword passes it
    and no positional argument reaches it.  A call with * or ** arguments
    leaves out nothing for certain."""
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (None, name) for kw in call.keywords)):
        return False
    return name not in params or len(call.args) <= params.index(name)


def defaults_never_left_out():
    """module.qualified name:parameter of every default that no call in
    the package relies on."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unused = []
    for path, tree in trees.items():
        for qual, name, params, opt in _defaulted(tree):
            unused += [f"{path.stem}.{qual}:{p}" for p in opt
                       if not any(_omits(c, params, p)
                                  for c in calls.get(name, ()))]
    return unused


def test_every_default_is_left_out_by_a_caller_in_the_package():
    assert defaults_never_left_out() == []


def _hands_on(call, params):
    """Whether a call passes exactly the given parameter names, in order,
    as plain names, positionally or by keyword."""
    passed = call.args + [kw.value for kw in call.keywords]
    return (all(kw.arg is not None for kw in call.keywords)
            and [getattr(a, "id", None) for a in passed] == params)


def pass_throughs(package=PACKAGE):
    """module.name of every undecorated def whose body, after its
    docstring, is one return of a call, or of its negation, that passes
    exactly the def's own parameters in order."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.FunctionDef) or node.decorator_list:
                continue
            body = node.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            if len(body) != 1 or not isinstance(body[0], ast.Return):
                continue
            value = body[0].value
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.Not, ast.USub)):
                value = value.operand
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            if isinstance(value, ast.Call) and _hands_on(value, params):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_no_def_only_hands_its_parameters_on():
    assert pass_throughs() == []


def test_every_package_cache_takes_positional_only_parameters():
    caches = package_caches()
    assert caches
    for name, cache in caches.items():
        kinds = {p.kind for p in inspect.signature(cache).parameters.values()}
        assert kinds == {inspect.Parameter.POSITIONAL_ONLY}, name
