"""Exception types shared across the library."""


class OneCenterError(Exception):
    """Base class for all library errors."""


class ArgumentError(OneCenterError, ValueError):
    """An argument is malformed or out of its documented range."""


class UnsupportedFractionError(ArgumentError):
    """The requested weight fraction is outside what the solver supports."""


class DegenerateInputError(OneCenterError):
    """The input admits no meaningful answer (e.g. an empty membership set)."""


class ParseError(OneCenterError, ValueError):
    """An input file is malformed; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def require_int(name: str, value, minimum: int) -> int:
    """``value`` as an int; ArgumentError unless it is a finite integer (an
    integral float counts) of at least ``minimum``."""
    try:
        ok = int(value) == value >= minimum
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ArgumentError(f"{name} must be an integer >= {minimum}, got {value}")
    return int(value)
