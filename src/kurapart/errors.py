"""Exception types shared across the package."""

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class KurapartError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGraphError(KurapartError):
    pass


class SelfLoopError(KurapartError):
    pass


class VertexOutOfRangeError(KurapartError):
    pass


class DisconnectedError(KurapartError):
    pass


class PartitionMismatchError(KurapartError):
    pass


class NotBipartitionError(KurapartError):
    pass


class TooLargeError(KurapartError):
    pass


class BadParameterError(KurapartError):
    pass


class DimensionMismatchError(KurapartError):
    pass


class StepUnderflowError(KurapartError):
    pass


class NonFiniteStateError(KurapartError):
    pass


class EmptyTrajectoryError(KurapartError):
    pass


class TooShortError(KurapartError):
    pass


class InfeasibleMuError(KurapartError):
    pass


class NoCertificateError(KurapartError):
    pass


class FormatError(KurapartError):
    """Malformed content in an input file."""
