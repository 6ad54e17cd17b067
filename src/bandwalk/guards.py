"""Size guards.

Each cap can be overridden per call, via ``--guard NAME=VALUE``, or
through an ``LRB_GUARD_*`` environment variable (e.g.
``LRB_GUARD_TABLE_CAP=4096``).  Bounds on the work itself are module
constants beside it: `core.LIGHT_CELLS_CAP`, `matroid.RANK_TABLE_CAP`,
`posets.LATTICE_CAP`.  Every construction counts its elements
before it lists them (`check_counts`), so elements_cap refuses a band
before any work grows with it.
"""

import os
from dataclasses import dataclass, fields, replace

from .errors import MalformedInputError, SizeGuardError


@dataclass(frozen=True)
class Guards:
    # largest |S| for which `tabulate` reads the product rows of every id
    # into the dense Cayley table, which caps the work of the axioms and
    # the support lattice; the rows of a few ids are served past it
    table_cap: int = 2048
    # most elements of a construction, counted before any is listed
    elements_cap: int = 50_000
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


def check_counts(label, counts, cap, n=1, noun="elements"):
    """The count of `label`, the n-th of the ascending `counts` a(1),
    a(2), ..., refused over `cap` before anything is listed.  The counts
    are read only up to the first one past the cap, so any n is cheap;
    n below 1 is malformed input."""
    if n < 1:
        raise MalformedInputError(f"{label} needs n >= 1")
    for k, count in enumerate(counts, 1):
        if count > cap:
            more = "more than " if k < n else ""
            raise SizeGuardError(
                f"{label} has {more}{count} {noun}, above the cap {cap}")
        if k == n:
            return count
