"""Exception types shared across the package."""


class VolterraError(Exception):
    """Base class for all package-specific errors."""


class QuadratureError(VolterraError):
    """Raised when a numerical integral fails to meet its tolerance.

    The offending partial value and error estimate are attached so the
    caller can decide whether to retry with looser settings.
    """

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


class FactorizationError(VolterraError):
    """A covariance's circulant embedding is not positive semidefinite."""


class AlignmentError(VolterraError):
    """A breakpoint or evaluation time is too far from the sample grid."""


class ConsistencyError(VolterraError):
    """Two independent computations of the same quantity disagree."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values


class ConfigError(VolterraError):
    """Invalid run configuration or scheme parameters."""
