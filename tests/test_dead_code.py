"""No function, class or method of the package is left unreferenced."""

import ast
import re
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


def test_every_definition_is_named_outside_its_definition():
    # a name that occurs once in the package and the benchmark is only
    # its own definition: nothing calls it, or only the tests do
    sources = sorted(PACKAGE.glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    words = Counter(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8") for path in sources)))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if words[name] < 2:
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert dead == []
