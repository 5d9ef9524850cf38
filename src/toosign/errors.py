"""Exception hierarchy shared by all modules."""


class ToosignError(Exception):
    """Base class for all toolkit errors."""


class FormatError(ToosignError):
    """Malformed binary encoding."""


class CapacityError(ToosignError):
    """Stateful scheme ran out of signing capacity."""


class DomainError(ToosignError):
    """An input or a request the callee does not take."""


class SamplerError(ToosignError):
    """A bounded-retry sampler exceeded its retry budget."""


class ExtractionError(ToosignError):
    """Reduction extractor produced an inconsistent output (harness bug)."""


class GameError(ToosignError):
    """Security-game precondition violated."""
