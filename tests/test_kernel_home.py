"""Every construction serves its product rows from `coded_products`,
through the braid or the closure kernel, so no Python product loop
serves a band."""

import ast
from pathlib import Path

import pytest

from bandwalk import constructions

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bandwalk"

MATROID = {"kind": "uniform", "k": 2, "m": 3}

SPECS = [
    {"type": "free_lrb", "n": 3},
    {"type": "free_lrb_bar", "n": 3},
    {"type": "ordered_partitions", "n": 3},
    {"type": "q_free", "n": 2, "q": 2},
    {"type": "q_free_bar", "n": 2, "q": 2},
    {"type": "matroid", "matroid": MATROID},
    {"type": "matroid_flags", "matroid": MATROID},
    {"type": "dist_chain", "grid": [1, 2]},
]


@pytest.mark.parametrize("spec", SPECS, ids=[s["type"] for s in SPECS])
def test_every_construction_reads_its_rows_from_coded_products(spec):
    sg = constructions.construction_from_spec(spec)
    assert sg._source.__qualname__ == "coded_products.<locals>.rows"


def test_every_band_is_wrapped_around_a_kernel_call():
    # the rows argument of each from_objects call in the package, a new
    # family's included, is a call of one of the two kernels
    sources = []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) \
                    and getattr(node.func, "attr", None) == "from_objects":
                rows = node.args[3]
                sources.append(getattr(rows, "func", rows))
    assert sources
    assert {ast.unparse(s) for s in sources} == {"braid_rows",
                                                 "closure_rows"}
