"""No function, class or method of the package is left unreferenced."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bandwalk"


def _definitions(tree):
    """Top-level functions and classes, and the methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body
                        if isinstance(sub, ast.FunctionDef))


def _references(node):
    """Names read as a variable, an attribute or an import, not words in
    strings or comments."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]


def test_every_definition_is_named_outside_its_definition():
    # a definition that only its own body names is called by nothing in
    # the package or the benchmark, or only by the tests.  The count is
    # by name, so a method that shares its name with some other
    # reference still passes: `DistributiveLattice.boolean` went unseen
    # this way, since the CLI reads `args.boolean`
    sources = sorted(PACKAGE.glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources}
    refs = Counter(name for tree in trees.values()
                   for name in _references(tree))
    dead = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if refs[name] == Counter(_references(node))[name]:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert dead == []
