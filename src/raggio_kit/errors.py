"""Exception hierarchy for raggio-kit.

Every error raised by the library derives from :class:`RaggioKitError`, so
callers (and the CLI) can distinguish domain errors from programming bugs.
"""


class RaggioKitError(Exception):
    """Base class for all raggio-kit domain errors."""


class AlgebraMismatchError(RaggioKitError):
    """Two values that must share an owner algebra do not."""


class UnsupportedShapeError(RaggioKitError):
    """The operation is defined only for a different block structure."""


class MissingFactorizationError(UnsupportedShapeError):
    """The algebra does not record the tensor factorization the operation needs."""


class InvalidStateError(RaggioKitError):
    """A density matrix violates Hermiticity, positivity, or normalization."""


class InvalidArgumentError(RaggioKitError):
    """A numeric argument (budget, restarts, weights, ...) is out of range."""


class InvalidDimensionError(InvalidArgumentError):
    """A block or algebra dimension is zero, negative, or inconsistent."""


class PreconditionError(RaggioKitError):
    """A mathematical precondition of the operation does not hold."""


class ResourceLimitError(RaggioKitError):
    """The requested computation exceeds a configured size cap."""
