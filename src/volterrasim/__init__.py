"""Simulation and analysis of Volterra-driven processes and equations.

Submodules:

- kernels: alpha-regular Volterra kernels, two-point function phi,
  increment covariances.
- processes: fBm and Rosenblatt ensembles, grids, cumulants.
- rng: per-path Philox streams keyed by (seed, stream, path index).
- csvtext: ensemble CSV text, each value the bytes repr gives.
- integration: step-function stochastic integrals and the D-norm.
- evolution: mild solutions of linear evolution equations, covariance
  operators, stationarity criteria.
- diagnostics: the energy two-sample test.
- criteria: the worked examples (shift-semigroup threshold, heat
  equation admissibility).
- suites: the named verification suites behind `volterrasim verify`.
- blas: one_blas_thread, which holds every OpenBLAS in the process at
  one thread, so that no value depends on the thread count.
- errors: the package's exception types and its shared checks (the
  Hurst range, finiteness, counts, quadrature error estimates).
- cli: the `volterrasim` command-line tool.
"""

__version__ = "0.1.0"
