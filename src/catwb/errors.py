"""Exception hierarchy shared across the package."""


class CatwbError(Exception):
    """Base class for all package-specific errors."""


class TypeParseError(CatwbError, ValueError):
    """A root-system type string could not be parsed."""


class UnsupportedType(CatwbError, ValueError):
    """A type label outside the supported catalog was requested."""


class DegreeError(CatwbError, ValueError):
    """A polynomial exceeded the degree bound required by a transform."""


class InvalidArgument(CatwbError, ValueError):
    """An argument is malformed or outside the domain of a computation."""


class ClassificationError(CatwbError, ValueError):
    """A root subset did not match any catalog diagram."""


class BudgetExceeded(CatwbError, RuntimeError):
    """A group or poset computation exceeded the configured size cap."""

    def __init__(self, message: str, estimate: int | None = None):
        super().__init__(message)
        self.estimate = estimate


class SingularPoint(CatwbError, ZeroDivisionError):
    """A kernel denominator form vanished at an evaluation point."""


class InvariantError(CatwbError, RuntimeError):
    """An internal consistency check failed: a defect, not a bad input."""
