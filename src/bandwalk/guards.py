"""Size guards.

Every cap can be overridden per call, via a CLI flag, or through an
``LRB_GUARD_*`` environment variable (e.g. ``LRB_GUARD_TABLE_CAP=4096``).
"""

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Guards:
    # largest |S| for which a dense Cayley table may be materialized
    table_cap: int = 2048
    # exhaustive associativity check up to this |S|, sampled beyond
    assoc_exhaustive_cap: int = 300
    assoc_samples: int = 100_000
    # hard ceiling on element counts of any construction
    elements_cap: int = 50_000
    # support derivation scans |S|^2 pairs; refuse beyond this |S|
    derive_cap: int = 4096
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
    """Guards from the environment, with keyword overrides on top."""
    env = os.environ if env is None else env
    values = {}
    for f in fields(Guards):
        raw = env.get(_ENV_PREFIX + f.name.upper())
        if raw is not None:
            values[f.name] = int(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    return replace(DEFAULT_GUARDS, **values)
