"""Exception types shared across the package, and how their messages show a value."""


class DomainError(ValueError):
    """Argument lies outside the mathematical domain of an operation."""


class InvalidParameterError(ValueError):
    """Structurally invalid parameter (wrong sign, empty list, odd panel count, ...)."""


class HistoryDomainError(ValueError):
    """A history function was evaluated outside its domain."""


class HistoryCoverageError(HistoryDomainError):
    """The initial history does not cover the interval a simulation needs."""


class StepSizeError(InvalidParameterError):
    """Integration step too large for the smallest delay lag."""


class ExpressionError(ValueError):
    """A coefficient or bound expression failed to parse or uses a forbidden name."""


class SpecFormatError(ValueError):
    """An equation-spec document is malformed."""


class CrossValidationError(RuntimeError):
    """Two independent computation routes disagreed; indicates a bug, not bad input."""


def clipped(value) -> str:
    """``repr(value)`` for a message: in full up to 200 characters, else its first 100, ``...`` and its length."""
    text = repr(value)
    return text if len(text) <= 200 else f"{text[:100]}... ({len(text)} characters)"
