"""Exception hierarchy shared across the package."""


class FinslerError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(FinslerError):
    """Operands have incompatible sizes."""


class NotPositiveDefinite(FinslerError):
    """A matrix required to be SPD has a non-positive pivot."""


class NotUnit(FinslerError):
    """A vector required to be unit length is not."""


class DomainViolation(FinslerError):
    """A point (or a stencil around it) left a field's guarded domain."""


class VanishingGradient(FinslerError):
    """The defining function has (numerically) zero gradient."""


class OffSurface(FinslerError):
    """A point asserted to lie on the level set does not."""


class InvalidParams(FinslerError):
    """Rejected parameters at construction time."""


class RejectionOverflow(FinslerError):
    """A sampling guard leaves no direction to draw at the given dimension."""


class UsageError(FinslerError):
    """Malformed command line or metric-spec input (exit code 2)."""
