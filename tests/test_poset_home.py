"""Only `posets` derives structure from an order, so each bounded poset
derives its packed up-sets, covers, ranks, tables and Moebius rows
once, as a `posets.Poset`, and other modules read its lists."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bandwalk"

DERIVATIONS = {"bottom_of", "top_of", "UpSets", "covers_of",
               "linear_extension", "rank_function", "moebius_row",
               "join_table"}

ID_LISTERS = {"flatnonzero", "nonzero"}


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield func.attr
            elif isinstance(func, ast.Name):
                yield func.id


def _order_reads(tree):
    """The lines that list ids with flatnonzero or nonzero, as a function
    or a method, out of a subscript of some `.leq`: a per-element read of
    an order that the up and down lists of `Poset.packed` answer."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in ID_LISTERS:
            continue
        read = list(node.args)
        if isinstance(func, ast.Attribute):
            read.append(func.value)
        if any(isinstance(sub, ast.Subscript)
               and isinstance(sub.value, ast.Attribute)
               and sub.value.attr == "leq"
               for arg in read for sub in ast.walk(arg)):
            yield node.lineno


def test_only_posets_derives_from_an_order():
    callers = sorted(
        f"{path.name}: {name}" for path in PACKAGE.glob("*.py")
        if path.name != "posets.py"
        for name in _called_names(ast.parse(path.read_text(encoding="utf-8")))
        if name in DERIVATIONS)
    assert callers == []


def test_the_derivations_are_defined_in_posets():
    # a renamed helper must be renamed here too, or the test above
    # watches a name that no longer exists
    tree = ast.parse((PACKAGE / "posets.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert DERIVATIONS <= defined


def test_the_order_read_detector_sees_each_form():
    snippets = ["np.flatnonzero(p.leq[a])",
                "numpy.nonzero(p.leq[:, b])",
                "np.flatnonzero(p.leq[lo] & p.leq[:, hi])",
                "p.leq[a].nonzero()",
                "flatnonzero(self.leq[a] | up)"]
    for code in snippets:
        assert list(_order_reads(ast.parse(code))) == [1], code
    for code in ["np.flatnonzero(up[a])", "np.flatnonzero(p.leq)",
                 "np.argwhere(p.leq[a])", "p.leq[a].sum()"]:
        assert list(_order_reads(ast.parse(code))) == [], code


def test_no_module_but_posets_lists_ids_off_an_order_row():
    reads = sorted(
        f"{path.name}:{line}" for path in PACKAGE.glob("*.py")
        if path.name != "posets.py"
        for line in _order_reads(ast.parse(path.read_text(encoding="utf-8"))))
    assert reads == []
