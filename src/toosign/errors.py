"""Exception hierarchy shared by all modules."""


class ToosignError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ToosignError):
    """Malformed binary encoding."""


class RegistryError(ToosignError):
    """Unknown or duplicate scheme id."""


class CapacityError(ToosignError):
    """Stateful scheme ran out of signing capacity."""


class DomainError(ToosignError):
    """Input outside the declared message/randomness space."""


class DimensionError(ToosignError):
    """Inconsistent lattice dimension parameters."""


class SamplerError(ToosignError):
    """A bounded-retry sampler exceeded its retry budget."""


class TrivialCollisionError(ToosignError):
    """Collision pair with identical inputs; carries no information."""


class UnsupportedOperationError(ToosignError):
    """Operation only available on the programmable oracle."""


class ExtractionError(ToosignError):
    """Reduction extractor produced an inconsistent output (harness bug)."""


class GameError(ToosignError):
    """Security-game precondition violated."""
