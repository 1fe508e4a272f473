"""Mild solutions of linear evolution equations with Volterra noise.

The state space is truncated to spectral coordinates: the semigroup
acts as S(t) x = (exp(-lambda_n t) x_n)_n, so the convolution integral
decouples into scalar integrals against independent noise components.
All covariance objects (q_t, the kernel g(r, s) of the path covariance)
are entrywise double integrals of the shared two-point function phi,
computed by quadrature independently of the Monte-Carlo solver.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy import integrate

from .errors import ConfigError
from .kernels import FbmKernel, phi, phi_double_integral
from .processes import Ensemble, GridSpec, simulate

FAMILIES = ("fbm", "rosenblatt")


@dataclass(frozen=True)
class NoiseSpec:
    """Cylindrical noise: independent scalar components with a common kernel."""

    families: tuple
    H: float

    def __post_init__(self):
        fams = tuple(self.families)
        if not fams:
            raise ConfigError("need at least one noise component")
        for fam in fams:
            if fam not in FAMILIES:
                raise ConfigError(f"unknown noise family {fam!r}")
        if not 0.5 < self.H < 1.0:
            raise ConfigError(f"H must lie in (1/2, 1), got {self.H}")
        object.__setattr__(self, "families", fams)

    @property
    def n_components(self) -> int:
        return len(self.families)

    @property
    def alpha(self) -> float:
        return self.H - 0.5

    def kernel(self) -> FbmKernel:
        return FbmKernel(self.H)


@dataclass(frozen=True)
class EquationSpec:
    """dX = A X dt + Phi dB with diagonal A = -diag(lambdas)."""

    lambdas: np.ndarray
    phi_matrix: np.ndarray
    noise: NoiseSpec
    x0: object = None  # None (zero) | vector | "x-infinity"
    allow_unstable: bool = False

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, float))
        Phi = np.atleast_2d(np.asarray(self.phi_matrix, float))
        if Phi.shape != (len(lam), self.noise.n_components):
            raise ConfigError(
                f"Phi must be {len(lam)}x{self.noise.n_components}, got {Phi.shape}")
        if not np.all(np.isfinite(Phi)):
            raise ConfigError("Phi must be finite")
        if np.any(lam < 0) or (np.any(lam == 0) and not self.allow_unstable):
            raise ConfigError(
                "lambdas must be positive (set allow_unstable for zero modes)")
        lam.setflags(write=False)
        Phi.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "phi_matrix", Phi)

    @property
    def n_modes(self) -> int:
        return len(self.lambdas)


def _exp_cell_averages(lam: float, times: np.ndarray,
                       edges: np.ndarray) -> np.ndarray:
    """A[i, j] = average of exp(-lam (t_i - r)) over cell j, zero unless hi_j <= t_i.

    The exponent is clipped at zero, which only touches masked cells, so
    large lam * t cannot overflow.
    """
    lo = edges[:-1][None, :]
    hi = edges[1:][None, :]
    t = times[:, None]
    width = (hi - lo)
    inside = hi <= t + 1e-12
    if lam == 0.0:
        avg = np.ones_like(inside, dtype=float)
    else:
        with np.errstate(under="ignore"):
            avg = np.exp(-lam * np.maximum(t - hi, 0.0)) \
                * -np.expm1(-lam * width) / (lam * width)
    return np.where(inside, avg, 0.0)


def _noise_increments(spec: EquationSpec, grid: GridSpec, n_paths: int,
                      seed: int, tail_tol: float, substeps: int) -> list:
    """Per-component cell increments, each of shape (n_cells, n_paths)."""
    out = []
    for k, fam in enumerate(spec.noise.families):
        b = simulate(fam, grid, spec.noise.H, n_paths, seed, k, 0, tail_tol,
                     substeps).values
        out.append(b[1:] - b[:-1])
    return out


def solve_mild(spec: EquationSpec, grid: GridSpec, n_paths: int, seed: int,
               t_trunc: float = 20.0, tail_tol: float = 1e-2,
               substeps: int = 2) -> Ensemble:
    """Monte-Carlo mild solution X_t = S(t) x0 + int_0^t S(t-r) Phi dB_r.

    values[i, n, p] is mode n of path p at times[i].

    For x0 = "x-infinity" the noise is simulated jointly on
    [-t_trunc, t_max] and x_infinity = int_{-t_trunc}^0 S(-u) Phi dB_u is
    built from the same paths, so the solution's dependence on the past
    is preserved.
    """
    if grid.t_min != 0.0:
        raise ConfigError("solution grid must start at t = 0")
    value, ok = check_H(spec, T0=1.0)
    if not ok:
        raise ConfigError(f"Hypothesis-(H) integral not finite (value {value})")
    use_past = isinstance(spec.x0, str) and spec.x0 == "x-infinity"
    if use_past:
        n_past = int(round(t_trunc / grid.dt))
        sim_grid = GridSpec(-n_past * grid.dt, grid.t_max,
                            n_past + grid.n_points)
    else:
        sim_grid = grid
    deltas = _noise_increments(spec, sim_grid, n_paths, seed, tail_tol,
                               substeps)
    times = grid.times

    out = np.zeros((grid.n_points, spec.n_modes, n_paths))
    for n, lam in enumerate(spec.lambdas):
        A = _exp_cell_averages(lam, times, sim_grid.times)
        for k in range(spec.noise.n_components):
            coef = spec.phi_matrix[n, k]
            if coef != 0.0:
                out[:, n, :] += coef * (A @ deltas[k])
    if spec.x0 is not None and not use_past:
        x0 = np.atleast_1d(np.asarray(spec.x0, float))
        if x0.shape != (spec.n_modes,):
            raise ConfigError("x0 vector must match the number of modes")
        decay = np.exp(-np.outer(times, spec.lambdas))  # (n_t, n_modes)
        out += (decay * x0[None, :])[:, :, None]
    return Ensemble(grid, out, tag="mild")


def sample_x_infinity(spec: EquationSpec, t_trunc: float, n_paths: int,
                      seed: int, dt: float = 0.01, tail_tol: float = 1e-2,
                      substeps: int = 2) -> np.ndarray:
    """Samples of Z''_T = int_{-T}^0 S(-u) Phi dB_u, shape (n_modes, n_paths)."""
    value, ok = check_limit_condition(spec)
    if not ok:
        raise ConfigError("limiting-measure condition fails; x_infinity undefined")
    n = max(2, int(round(t_trunc / dt)) + 1)
    grid = GridSpec(-t_trunc, 0.0, n)
    deltas = _noise_increments(spec, grid, n_paths, seed, tail_tol, substeps)
    out = np.zeros((spec.n_modes, n_paths))
    for m, lam in enumerate(spec.lambdas):
        w = _exp_cell_averages(lam, np.zeros(1), grid.times)[0]
        for k in range(spec.noise.n_components):
            coef = spec.phi_matrix[m, k]
            if coef != 0.0:
                out[m] += coef * (w @ deltas[k])
    return out


def x_infinity_truncation_error(spec: EquationSpec, t_trunc: float) -> float:
    """Exact L2 truncation error of the x_infinity sampler.

    E |Z''_inf - Z''_T|^2 = sum_n |Phi row|^2 H(2H-1) Gamma(2H-1)
    lambda_n^(-2H) exp(-2 lambda_n T), from the closed form of the
    double exponential integral of |u - v|^(2H-2) over (T, inf)^2.
    """
    H = spec.noise.H
    c = H * (2.0 * H - 1.0) * math.gamma(2.0 * H - 1.0)
    rows = np.sum(spec.phi_matrix ** 2, axis=1)
    lam = spec.lambdas
    if np.any((lam <= 0) & (rows > 0)):
        return math.inf
    live = rows > 0
    return float(np.sum(
        rows[live] * c * lam[live] ** (-2.0 * H)
        * np.exp(-2.0 * lam[live] * t_trunc)))


def covariance_qt(spec: EquationSpec, t: float) -> np.ndarray:
    """q_t by entrywise quadrature (equals g(t, t))."""
    return covariance_g(spec, t, t)


def covariance_g(spec: EquationSpec, r: float, s: float) -> np.ndarray:
    """g(r, s)[i, j] = E <Z_r, e_i> <Z_s, e_j> by quadrature."""
    if r < 0 or s < 0:
        raise ValueError("need r, s >= 0")
    kernel = spec.noise.kernel()
    gram = spec.phi_matrix @ spec.phi_matrix.T
    n = spec.n_modes
    out = np.zeros((n, n))
    cache = {}

    def weighted(lam_i, lam_j, u, v):
        return math.exp(-lam_i * (r - u) - lam_j * (s - v)) \
            * phi(kernel, u, v)

    for i in range(n):
        for j in range(n):
            if gram[i, j] == 0.0:
                continue
            key = (spec.lambdas[i], spec.lambdas[j])
            if key not in cache:
                cache[key], _ = phi_double_integral(
                    partial(weighted, *key), 0.0, r, 0.0, s)
            out[i, j] = gram[i, j] * cache[key]
    return out


def mean_square_increment(spec: EquationSpec, s: float, t: float) -> float:
    """E |Z_t - Z_s|^2 = Tr q_t + Tr q_s - 2 Tr g(t, s), all by quadrature."""
    return float(
        np.trace(covariance_qt(spec, t)) + np.trace(covariance_qt(spec, s))
        - 2.0 * np.trace(covariance_g(spec, t, s)))


def hs_norm_sq(spec: EquationSpec, r: float) -> float:
    """|S(r) Phi|_HS^2 = sum_{n,k} e^{-2 lambda_n r} Phi_nk^2."""
    rows = np.sum(spec.phi_matrix ** 2, axis=1)
    return float(np.sum(rows * np.exp(-2.0 * spec.lambdas * r)))


def check_H(spec: EquationSpec, T0: float = 1.0) -> tuple:
    """(value, finite?) of int_0^T0 |S(r) Phi|_HS^(2/(1+2 alpha)) dr."""
    if T0 <= 0:
        raise ValueError("need T0 > 0")
    p = 1.0 / (1.0 + 2.0 * spec.noise.alpha)

    def f(r):
        return hs_norm_sq(spec, r) ** p

    val, _ = integrate.quad(f, 0.0, T0, limit=200)
    return float(val), bool(np.isfinite(val))


def load_equation_config(path) -> EquationSpec:
    """EquationSpec from a plain-text INI file.

    Schema version 1::

        [equation]
        schema = 1
        lambdas = 0.5 1.0 2.0 4.0
        phi = 1 0; 0 1; 0.5 0.5; 1 1
        x0 = zero            ; or "x-infinity", or a vector "0.1 0 0 0"

        [noise]
        H = 0.7
        families = fbm fbm
    """
    import configparser

    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read equation config {path}")
    try:
        eq = cp["equation"]
        if eq.get("schema", "1").strip() != "1":
            raise ConfigError(f"unsupported schema {eq['schema']!r}")
        lambdas = np.array([float(x) for x in eq["lambdas"].split()])
        phi_rows = [row.split() for row in eq["phi"].split(";")]
        phi_matrix = np.array([[float(x) for x in row] for row in phi_rows])
        x0_raw = eq.get("x0", "zero").strip()
        if x0_raw == "zero":
            x0 = None
        elif x0_raw == "x-infinity":
            x0 = "x-infinity"
        else:
            x0 = np.array([float(x) for x in x0_raw.split()])
        nz = cp["noise"]
        noise = NoiseSpec(tuple(nz["families"].split()), float(nz["H"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad equation config {path}: {exc}") from exc
    return EquationSpec(lambdas, phi_matrix, noise, x0=x0)


def check_limit_condition(spec: EquationSpec) -> tuple:
    """(value, finite?) of int_0^inf |S(r) Phi|_HS^(2/(1+2 alpha)) dr.

    Head by quadrature, tail by the exponential bound
    psi(r) <= psi(T*) exp(-2 lambda_min (r - T*)).
    """
    p = 1.0 / (1.0 + 2.0 * spec.noise.alpha)
    rows = np.sum(spec.phi_matrix ** 2, axis=1)
    live = rows > 0
    if not np.any(live):
        return 0.0, True
    lam_min = float(np.min(spec.lambdas[live]))
    if lam_min <= 0.0:
        return math.inf, False
    t_star = max(1.0, 5.0 / lam_min)
    head, _ = integrate.quad(lambda r: hs_norm_sq(spec, r) ** p, 0.0, t_star,
                             limit=200)
    tail = hs_norm_sq(spec, t_star) ** p / (2.0 * lam_min * p)
    return float(head + tail), True
