"""Exception types shared across the package, and the checks that raise them:
every refusal of a caller's value is a ConfigError, also a ValueError."""

import numpy as np


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


class ConsistencyError(VolterraError):
    """Two independent computations of the same quantity disagree."""

    def __init__(self, message, values=None):
        super().__init__(message)
        self.values = values


class ConfigError(VolterraError, ValueError):
    """Invalid run configuration or scheme parameters; also a ValueError."""


def check_hurst(H) -> None:
    """ConfigError unless H lies in (1/2, 1), where alpha = H - 1/2 is regular."""
    if not 0.5 < H < 1.0:
        raise ConfigError(f"H must lie in (1/2, 1), got {H}")


def check_finite(what: str, *values) -> None:
    """ConfigError unless every value, scalar or array, is finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ConfigError(f"{what} must be finite")


def _check_count(what: str, n, least: int = 1) -> int:
    """n as an int; ConfigError unless it is an integer >= least."""
    if not isinstance(n, (int, np.integer)) or n < least:
        kind = "a non-negative integer" if least == 0 else f"an integer >= {least}"
        raise ConfigError(f"{what} must be {kind}, got {n!r}")
    return int(n)


def check_estimate(what: str, value, estimate, rtol: float,
                   atol: float = 0.0) -> None:
    """QuadratureError when estimate > max(rtol max|value|, atol), or when
    the value or the estimate holds a NaN.
    """
    tol = max(rtol * np.max(np.abs(value)), atol)
    if not estimate <= tol:
        raise QuadratureError(f"{what}: error estimate {estimate:.3g} above "
                              f"tolerance {tol:.3g}",
                              value=value, estimate=estimate)
