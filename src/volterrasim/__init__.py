"""Simulation and analysis of Volterra-driven processes and equations.

Submodules:

- kernels: alpha-regular Volterra kernels, two-point function phi,
  increment covariances.
- processes: fBm and Rosenblatt ensembles, grids, cumulants.
- integration: step-function stochastic integrals and the D-norm.
- evolution: mild solutions of linear evolution equations, covariance
  operators, stationarity criteria.
- diagnostics: energy two-sample tests and related statistics.
- criteria: the worked examples (shift-semigroup threshold, heat
  equation admissibility).
- cli: the `volterrasim` command-line tool.
"""

__version__ = "0.1.0"

from .errors import (
    AlignmentError,
    ConfigError,
    ConsistencyError,
    FactorizationError,
    QuadratureError,
    VolterraError,
)
from .kernels import FbmKernel, VolterraKernel, cov_R, phi
from .processes import (
    Ensemble,
    GridSpec,
    RosenblattScheme,
    simulate_fbm,
    simulate_rosenblatt,
)

__all__ = [
    "__version__",
    "AlignmentError",
    "ConfigError",
    "ConsistencyError",
    "FactorizationError",
    "QuadratureError",
    "VolterraError",
    "FbmKernel",
    "VolterraKernel",
    "cov_R",
    "phi",
    "Ensemble",
    "GridSpec",
    "RosenblattScheme",
    "simulate_fbm",
    "simulate_rosenblatt",
]
