"""Only `serialize` imports json, so every artifact goes through its
byte-identical writer."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bandwalk"


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_serialize_imports_json():
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name != "serialize.py"
        and any(name == "json" or name.startswith("json.")
                for name in _imported_modules(
                    ast.parse(path.read_text(encoding="utf-8")))))
    assert importers == []
