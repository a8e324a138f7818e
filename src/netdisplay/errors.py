"""Exception types shared across the package."""

from __future__ import annotations


class NetworkError(Exception):
    """Base class for all errors raised by this package."""


class InvalidNetworkError(NetworkError):
    """A network failed structural validation.

    Carries the list of Violation records produced by core.validate.
    """

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class NewickParseError(NetworkError):
    """Input text could not be parsed; carries ParseDiagnostic records."""

    def __init__(self, message, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class LeafSetMismatchError(NetworkError):
    """Two structures that must share a leaf label set do not."""


class ClassPreconditionError(NetworkError):
    """An operation was called on a network outside its required class."""


class OracleCapExceededError(ClassPreconditionError):
    """The exhaustive oracle refused to enumerate past its reticulation cap."""


class PatternMismatchError(NetworkError):
    """A local rewrite was requested at a site not matching its pattern."""


class InternalConsistencyError(NetworkError):
    """An invariant the theory guarantees was observed to fail.

    Raised when the case analysis finds no matching pattern, when a
    guaranteed matching does not exist, and similar self-check failures.
    The message carries a dump of the offending local structure.
    """


class GenerationExhaustedError(NetworkError):
    """Rejection sampling hit its rejection budget without succeeding.

    Carries the rejections counted and the reticulations placed when the
    generator gave up.
    """

    def __init__(self, message, rejections=0, placed=0):
        super().__init__(message)
        self.rejections = rejections
        self.placed = placed
