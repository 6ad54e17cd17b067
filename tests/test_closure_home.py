"""A closure system (a `Matroid` or a `fields.VectorSpace`) hands the
bands of `constructions` its flats, and no closure: the least listed
flat holding a set is its closure, and the join table of the flats
gives every other."""

import ast
from pathlib import Path

from bandwalk import fields, matroid

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bandwalk"

# what a closure system is read through: its ground labels, its point
# count, its flats listed by rank with their labels, and the rank of a
# flat
INTERFACE = {"ground", "n", "flats", "flat_label", "rank"}


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))


def _readers(tree):
    """The functions taking a closure system, the parameter `system`."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and "system" in {a.arg for a in node.args.args}]


def test_constructions_reads_a_closure_system_through_its_flats():
    readers = _readers(_tree("constructions")) + _readers(_tree("posets"))
    assert {f.name for f in readers} == {"_closure_tuples",
                                         "_closure_chains", "flat_lattice"}
    for node in readers:
        # `system` is read by attribute, or handed to posets.flat_lattice
        handed = {id(arg) for sub in ast.walk(node)
                  if isinstance(sub, ast.Call)
                  and ast.unparse(sub.func) == "posets.flat_lattice"
                  for arg in sub.args}
        attrs = {sub.value: sub.attr for sub in ast.walk(node)
                 if isinstance(sub, ast.Attribute)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id == "system":
                assert sub in attrs or id(sub) in handed, \
                    f"{node.name} passes the closure system on"
                assert sub not in attrs or attrs[sub] in INTERFACE, \
                    f"{node.name} reads system.{attrs[sub]}"


def test_no_closure_is_defined_or_called_in_the_package():
    assert not hasattr(matroid.Matroid, "closure")
    assert not hasattr(fields.VectorSpace, "closure")
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(sub, "name", None) for sub in ast.walk(tree)} \
            | {getattr(sub, "attr", None) for sub in ast.walk(tree)}
        assert "closure" not in names, path.name
