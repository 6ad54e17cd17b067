"""Exact-arithmetic random walks on finite left-regular bands.

The package builds finite left-regular bands (free bands with and
without deletion, q-analogues, ordered partitions, matroid flag and
basis bands, distributive-lattice chain bands), derives their support
lattices, and analyzes the driven chamber walk entirely over rational
arithmetic: transition matrices, eigenvalues with lattice-indexed
multiplicities, diagonalizability certificates, primitive idempotents,
exact and sampled stationary distributions, and total-variation
convergence bounds.  Companion modules cover generalized derangement
counts on lattices and the descent-algebra side of walks on the
symmetric group.

Everything user-facing speaks Fraction; inside, the weights are scaled
once to integers over their common denominator, and floats appear only
in sampled quantities.  The ``bandwalk`` console script exposes the
same pipeline as subcommands.
"""

from .errors import (
    BandwalkError,
    MalformedInputError,
    PreconditionError,
    SizeGuardError,
    FalsificationError,
    AxiomViolationError,
    NonUniqueStationaryError,
    StagnationError,
)
from .guards import Guards, DEFAULT_GUARDS, load_guards
from .core import (
    Semigroup,
    SupportStructure,
    verify_lrb,
    derive_support,
    check_expected_lattice,
)
from .constructions import (
    free_lrb,
    free_lrb_bar,
    ordered_partitions,
    q_free_lrb,
    matroid_lrb,
    distributive_chain_lrb,
    DistributiveLattice,
    construction_from_spec,
)
from .spectral import (
    WeightVector,
    uniform_on_generators,
    transition_matrix,
    spectrum,
    verify_diagonalizable,
)
from .algebra import primitive_idempotents, stationary_from_idempotents
from .walks import (
    simulate,
    stationary_exact,
    sample_stationary,
    total_variation,
    convergence_report,
)

__version__ = "0.1.0"

__all__ = [
    "BandwalkError",
    "MalformedInputError",
    "PreconditionError",
    "SizeGuardError",
    "FalsificationError",
    "AxiomViolationError",
    "NonUniqueStationaryError",
    "StagnationError",
    "Guards",
    "DEFAULT_GUARDS",
    "load_guards",
    "Semigroup",
    "SupportStructure",
    "verify_lrb",
    "derive_support",
    "check_expected_lattice",
    "free_lrb",
    "free_lrb_bar",
    "ordered_partitions",
    "q_free_lrb",
    "matroid_lrb",
    "distributive_chain_lrb",
    "DistributiveLattice",
    "construction_from_spec",
    "WeightVector",
    "uniform_on_generators",
    "transition_matrix",
    "spectrum",
    "verify_diagonalizable",
    "primitive_idempotents",
    "stationary_from_idempotents",
    "simulate",
    "stationary_exact",
    "sample_stationary",
    "total_variation",
    "convergence_report",
    "__version__",
]
