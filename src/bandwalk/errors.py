"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: malformed input and violated
preconditions are usage errors (2), a failed mathematical certificate or
broken axiom is a falsification (3), and refusing oversized work is a
guard stop (4).
"""


class BandwalkError(Exception):
    """Base class for all package errors; carries a witness when one
    exists."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class MalformedInputError(BandwalkError):
    """Input file or dict does not match the documented format."""


class PreconditionError(BandwalkError):
    """An operation was called outside its stated domain."""


class AxiomViolationError(BandwalkError):
    """A semigroup failed idempotence, deletion, associativity or the
    support axioms."""


class FalsificationError(BandwalkError):
    """An identity that the library certifies failed exactly."""


class StagnationError(BandwalkError):
    """A sampled walk failed to reach a chamber within the step cap,
    usually because the weight support does not generate the top flat."""


class NonUniqueStationaryError(BandwalkError):
    """The fixed-point equation pi P = pi has more than one solution."""


class SizeGuardError(BandwalkError):
    """Requested construction or computation exceeds a size guard."""
