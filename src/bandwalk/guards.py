"""Size guards.

Each cap can be overridden per call, via ``--guard NAME=VALUE``, or
through an ``LRB_GUARD_*`` environment variable (e.g.
``LRB_GUARD_TABLE_CAP=4096``).  Bounds on the work itself are module
constants beside it: `core.LIGHT_CELLS_CAP`, `matroid.RANK_TABLE_CAP`.
"""

import os
from dataclasses import dataclass, fields, replace

from .errors import MalformedInputError


@dataclass(frozen=True)
class Guards:
    # largest |S| for which `tabulate` reads the product rows of every id
    # into the dense Cayley table, which caps the work of the axioms and
    # the support lattice; the rows of a few ids are served past it
    table_cap: int = 2048
    # hard ceiling on element counts of any construction
    elements_cap: int = 50_000
    # largest n for ordered partitions, descents and graph contractions
    partitions_n_cap: int = 7
    # per-sample draw cap before declaring stagnation
    sample_step_cap: int = 100_000


DEFAULT_GUARDS = Guards()

_ENV_PREFIX = "LRB_GUARD_"


def load_guards(env=None, **overrides):
    """Guards from the environment, with keyword overrides on top.

    Each ``LRB_GUARD_*`` variable and keyword must name a `Guards` field
    and hold a non-negative integer; anything else is malformed input,
    reported with the variable or guard it came from.
    """
    env = os.environ if env is None else env
    known = [f.name for f in fields(Guards)]
    given = [(var, var[len(_ENV_PREFIX):].lower(), raw)
             for var, raw in env.items() if var.startswith(_ENV_PREFIX)]
    given += [(f"guard {name}", name, v)
              for name, v in overrides.items() if v is not None]
    values = {}
    for source, name, raw in given:
        if name not in known:
            raise MalformedInputError(
                f"unknown {source}; known caps: " + ", ".join(known))
        values[name] = _count(source, raw)
    return replace(DEFAULT_GUARDS, **values)


def _count(name, raw):
    try:
        value = int(raw)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise MalformedInputError(
        f"{name}={raw!r} is not a non-negative integer")
