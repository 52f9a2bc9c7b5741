"""Exception hierarchy shared across the package."""


class SupertowerError(Exception):
    """Base class for all errors raised by this package."""


class ModeError(SupertowerError):
    """Mixing full-ring and collapsed-ring elements in one operation."""


class ExactDivisionError(SupertowerError):
    """A division that was required to be exact left a remainder."""


class InternalInconsistencyError(SupertowerError):
    """A condition the underlying algebra guarantees failed anyway.

    These errors must never fire on valid inputs; any occurrence means a
    construction produced self-contradictory data (and the batch driver
    exits with code 2).
    """


class CocycleError(InternalInconsistencyError):
    """A tower level's sign table fails the certificate that its product is associative."""


class ValidationError(SupertowerError):
    """An object failed its structural validation."""


class TruncationError(SupertowerError):
    """An operation produced classes beyond the registered level bound."""
