"""Exception types shared across the package."""


class SadnetError(Exception):
    """Base class for all package errors."""


class ShapeError(SadnetError, ValueError):
    """Array extents incompatible with the requested operation."""


class ValidationError(SadnetError, ValueError):
    """Caller-supplied value outside the documented domain."""


class StateError(SadnetError, RuntimeError):
    """Operation invoked out of order (e.g. backward before forward)."""


class FormatError(SadnetError, ValueError):
    """On-disk container violates its binary format or integrity check."""


class ConsistencyError(SadnetError, ValueError):
    """Two datasets or files that must agree (counts, shapes, classes) do not."""


class CheckpointError(SadnetError, ValueError):
    """Checkpoint incompatible with the requested architecture."""


class DivergenceError(SadnetError, RuntimeError):
    """Training produced a non-finite loss or metric; carries the record so far."""

    def __init__(self, message, record=None):
        super().__init__(message)
        self.record = record
