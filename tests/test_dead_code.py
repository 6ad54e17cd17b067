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


def _trees():
    """The parsed sources of the package and the benchmark, by path."""
    sources = sorted(PACKAGE.glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sources}


def test_every_definition_is_named_outside_its_definition():
    # a definition that only its own body names is called by nothing in
    # the package or the benchmark, or only by the tests.  The count is
    # by name, so a method that shares its name with some other
    # reference still passes: `DistributiveLattice.boolean` went unseen
    # this way, since the CLI reads `args.boolean`
    trees = _trees()
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


def _is_dataclass(node):
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # a field that no package or benchmark code reads as an attribute is
    # carried for nothing: filling it in a constructor is not a read.
    # As above the count is by name, so a field that shares its name
    # with an attribute read elsewhere still passes
    trees = _trees()
    reads = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
             if isinstance(sub, ast.Attribute)
             and isinstance(sub.ctx, ast.Load)}
    unread = [f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for cls in tree.body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for node in cls.body
              if isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)
              and node.target.id not in reads]
    assert unread == []
