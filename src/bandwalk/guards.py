"""Size guards.

Every cap can be overridden per call, via a CLI flag, or through an
``LRB_GUARD_*`` environment variable (e.g. ``LRB_GUARD_TABLE_CAP=4096``).
"""

import os
from dataclasses import dataclass, fields, replace

from .errors import MalformedInputError


@dataclass(frozen=True)
class Guards:
    # largest |S| for which a dense Cayley table may be materialized;
    # the axioms and the support lattice read it, so it caps their work
    table_cap: int = 2048
    # exhaustive associativity check while |S|^3 is at most this many
    # triples (|S| <= 584), sampled beyond
    assoc_triples_cap: int = 200_000_000
    assoc_samples: int = 100_000
    # hard ceiling on element counts of any construction
    elements_cap: int = 50_000
    free_n_cap: int = 8
    partitions_n_cap: int = 7
    matroid_ground_cap: int = 12
    # reduced-word DFS node budget
    word_cap: int = 2_000_000
    # per-sample draw cap before declaring stagnation
    sample_step_cap: int = 100_000


DEFAULT_GUARDS = Guards()

_ENV_PREFIX = "LRB_GUARD_"


def load_guards(env=None, **overrides):
    """Guards from the environment, with keyword overrides on top.

    Every value must be a non-negative integer; anything else is
    malformed input, reported with the variable or guard it came from.
    """
    env = os.environ if env is None else env
    values = {}
    for f in fields(Guards):
        var = _ENV_PREFIX + f.name.upper()
        if var in env:
            values[f.name] = _count(var, env[var])
    for name, v in overrides.items():
        if v is not None:
            values[name] = _count(f"guard {name}", v)
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
