"""Only `posets` derives structure from an order, so each bounded poset
derives its covers, ranks, tables and Moebius rows once, as a
`posets.Poset`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bandwalk"

DERIVATIONS = {"bottom_of", "top_of", "covers_of", "linear_extension",
               "rank_function", "moebius_row", "join_table"}


def _called_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                yield func.attr
            elif isinstance(func, ast.Name):
                yield func.id


def test_only_posets_derives_from_an_order():
    callers = sorted(
        f"{path.name}: {name}" for path in PACKAGE.glob("*.py")
        if path.name != "posets.py"
        for name in _called_names(ast.parse(path.read_text(encoding="utf-8")))
        if name in DERIVATIONS)
    assert callers == []
