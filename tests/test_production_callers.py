"""Every public function, class, method and property of the package has
a production caller.

A public top-level name of src/mildflow, or a public method or property
of one of its classes, counts as called when a module of the package
refers to it outside its own definition, or when the acceptance
criteria or the benchmark workloads do. A method counts by its
attribute name, whatever object it is reached through. Imports and
__all__ are not references. Oracles and readers that only tests need
live in tests/oracles.py instead.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mildflow"
CALLERS_OUTSIDE = (ROOT / "tests" / "test_acceptance.py",
                   ROOT / "perfbench" / "workloads.py")


def _references(node) -> Counter:
    """Names and attribute names that node uses, imports and __all__
    assignments left out."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return Counter()
    if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
        return Counter()
    found = Counter()
    if isinstance(node, ast.Name):
        found[node.id] += 1
    elif isinstance(node, ast.Attribute):
        found[node.attr] += 1
    for child in ast.iter_child_nodes(node):
        found += _references(child)
    return found


def uncalled_names() -> list:
    """module.name of each public definition nothing else refers to."""
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    outside = sum((_references(ast.parse(path.read_text()))
                   for path in CALLERS_OUTSIDE), Counter())
    missing = []
    for path, tree in trees.items():
        for node, owner in _definitions(tree):
            own = _references(node)[node.name]
            if used[node.name] <= own and not outside[node.name]:
                missing.append(f"{path.stem}.{owner}{node.name}")
    return missing


def _definitions(tree):
    """(node, owner prefix) of each public top-level function and class
    and of each public method or property of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node, ""
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) \
                        and not member.name.startswith("_"):
                    yield member, f"{node.name}."


def test_every_public_definition_has_a_production_caller():
    assert uncalled_names() == []
