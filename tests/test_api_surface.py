"""Every definition in the package has a caller inside the package.

An AST scan of src/quadalg: each module-level function or class, and each
method whose name is not a dunder, must be referenced somewhere in the
package outside its own body.  A reference is a name or an attribute with
the same identifier; imports, including the re-exports of __init__.py, do
not count.  Matching is by name only, so a dead method that shares its name
with a live one is not caught.
"""

import ast
from pathlib import Path

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
