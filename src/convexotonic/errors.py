"""Exception types shared across the package."""


class PencilError(Exception):
    """Base class for all errors raised by this package."""


class TupleLengthMismatch(PencilError):
    """Two matrix tuples that must have equal length do not."""


class NotSquare(PencilError):
    """An operation requiring square matrices received a rectangular tuple."""


class ShapeMismatch(PencilError):
    """Array dimensions are inconsistent with the operation's contract."""


class DependentInput(PencilError):
    """A tuple required to be linearly independent is numerically dependent."""


class SpanViolation(PencilError):
    """A product falls outside the span of the supplied basis."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DomainBreach(PencilError):
    """A value left the float range (a pencil at a point, or the products of a
    tuple), or a pencil to be inverted is numerically singular."""


class ZeroDirection(PencilError):
    """A direction vector required to be nonzero is zero."""
