"""Mild solutions of linear evolution equations with Volterra noise.

The state space is truncated to spectral coordinates: the semigroup
acts as S(t) x = (exp(-lambda_n t) x_n)_n, so the convolution integral
decouples into scalar integrals against independent noise components.
The covariance objects (q_t, the kernel g(r, s) of the path covariance)
are double integrals of the fBm two-point function phi against
exponential weights; one inner integral is done in closed form, the
other by quadrature, independently of the Monte-Carlo solver.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import ConfigError, check_estimate, check_hurst
from .processes import PROCESSES, Ensemble, GridSpec, simulate

# RosenblattScheme.for_grid settings of the solvers' Rosenblatt noise
TAIL_TOL = 1e-2
SUBSTEPS = 2


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
            if fam not in PROCESSES:
                raise ConfigError(f"unknown noise family {fam!r}")
        check_hurst(self.H)
        object.__setattr__(self, "families", fams)

    @property
    def n_components(self) -> int:
        return len(self.families)

    @property
    def alpha(self) -> float:
        return self.H - 0.5


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


def _convolve_noise(spec: EquationSpec, times: np.ndarray, grid: GridSpec,
                    n_paths: int, seed: int) -> np.ndarray:
    """Cell sum of int_grid S(t - r) Phi dB_r, shape (n_t, n_modes, n_paths).

    Noise component k is simulated on grid with stream k.
    """
    deltas = [np.diff(simulate(fam, grid, spec.noise.H, n_paths, seed, k, 0,
                               TAIL_TOL, SUBSTEPS).values, axis=0)
              for k, fam in enumerate(spec.noise.families)]
    out = np.zeros((len(times), spec.n_modes, n_paths))
    for n, lam in enumerate(spec.lambdas):
        A = _exp_cell_averages(lam, times, grid.times)
        for k, db in enumerate(deltas):
            coef = spec.phi_matrix[n, k]
            if coef != 0.0:
                out[:, n, :] += coef * (A @ db)
    return out


def solve_mild(spec: EquationSpec, grid: GridSpec, n_paths: int, seed: int,
               t_trunc: float = 20.0) -> Ensemble:
    """Monte-Carlo mild solution X_t = S(t) x0 + int_0^t S(t-r) Phi dB_r.

    values[i, n, p] is mode n of path p at times[i].

    For x0 = "x-infinity" the noise is simulated jointly on
    [-t_trunc, t_max] and x_infinity = int_{-t_trunc}^0 S(-u) Phi dB_u is
    built from the same paths, so the solution's dependence on the past
    is preserved.
    """
    if grid.t_min != 0.0:
        raise ConfigError("solution grid must start at t = 0")
    value, ok = check_H(spec)
    if not ok:
        raise ConfigError(f"Hypothesis-(H) integral not finite (value {value})")
    use_past = isinstance(spec.x0, str) and spec.x0 == "x-infinity"
    if use_past:
        n_past = int(round(t_trunc / grid.dt))
        sim_grid = GridSpec(-n_past * grid.dt, grid.t_max,
                            n_past + grid.n_points)
    else:
        sim_grid = grid
    times = grid.times
    out = _convolve_noise(spec, times, sim_grid, n_paths, seed)
    if spec.x0 is not None and not use_past:
        x0 = np.atleast_1d(np.asarray(spec.x0, float))
        if x0.shape != (spec.n_modes,):
            raise ConfigError("x0 vector must match the number of modes")
        decay = np.exp(-np.outer(times, spec.lambdas))  # (n_t, n_modes)
        out += (decay * x0[None, :])[:, :, None]
    return Ensemble(grid, out)


def sample_x_infinity(spec: EquationSpec, t_trunc: float, n_paths: int,
                      seed: int, dt: float = 0.01) -> np.ndarray:
    """Samples of Z''_T = int_{-T}^0 S(-u) Phi dB_u, shape (n_modes, n_paths)."""
    value, ok = check_limit_condition(spec)
    if not ok:
        raise ConfigError("limiting-measure condition fails; x_infinity undefined")
    grid = GridSpec(-t_trunc, 0.0, max(2, int(round(t_trunc / dt)) + 1))
    return _convolve_noise(spec, np.zeros(1), grid, n_paths, seed)[0]


def covariance_qt(spec: EquationSpec, t: float) -> np.ndarray:
    """q_t = g(t, t)."""
    return covariance_g(spec, t, t)


def covariance_q_infinity(spec: EquationSpec) -> np.ndarray:
    """q_inf = lim q_t, the covariance of x_infinity, in closed form.

    q_inf[i, j] = (Phi Phi^T)_ij H (2H-1) Gamma(2H-1)
    (lam_i^(1-2H) + lam_j^(1-2H)) / (lam_i + lam_j), from
    int_0^inf exp(-a w) w^(2H-2) dw = Gamma(2H-1) a^(1-2H).
    """
    if np.any(spec.lambdas <= 0.0):
        raise ConfigError("q_inf needs every lambda positive")
    H = spec.noise.H
    lam_i, lam_j = spec.lambdas[:, None], spec.lambdas[None, :]
    return (spec.phi_matrix @ spec.phi_matrix.T) \
        * H * (2.0 * H - 1.0) * math.gamma(2.0 * H - 1.0) \
        * (lam_i ** (1.0 - 2.0 * H) + lam_j ** (1.0 - 2.0 * H)) \
        / (lam_i + lam_j)


def covariance_g(spec: EquationSpec, r: float, s: float) -> np.ndarray:
    """g(r, s)[i, j] = E <Z_r, e_i> <Z_s, e_j> as one integral over w = u - v.

    At fixed w the integral over u in [max(0, w), min(r, s + w)] is
    elementary, and sigma = sign(w) |w|^(2H-1) turns phi dw into H dsigma.
    One quad_vec call, split at w = 0 and w = r - s, takes the whole
    array, each entry divided by its exponential mass so that the error
    test holds entrywise.
    """
    if r < 0 or s < 0:
        raise ValueError("need r, s >= 0")
    if r == 0.0 or s == 0.0:
        return np.zeros((spec.n_modes, spec.n_modes))
    H = spec.noise.H
    p = 2.0 * H - 1.0
    lam_i, lam_j = spec.lambdas[:, None], spec.lambdas[None, :]
    mass = _exp_mass(lam_i, r) * _exp_mass(lam_j, s)

    def f(sigma):
        w = math.copysign(abs(sigma) ** (1.0 / p), sigma)
        a, b = max(0.0, w), min(r, s + w)  # both exponents are <= 0
        return np.exp(-lam_i * (r - b) - lam_j * (s + w - b)) \
            * _exp_mass(lam_i + lam_j, b - a) / mass

    kink = math.copysign(abs(r - s) ** p, r - s)
    val, err = integrate.quad_vec(f, -s ** p, r ** p, epsabs=0.0, epsrel=1e-10,
                                  norm="max", points=[0.0, kink])
    check_estimate("covariance_g quadrature", val, err, 1e-8)
    return (spec.phi_matrix @ spec.phi_matrix.T) * H * mass * val


def _exp_mass(c: np.ndarray, length: float) -> np.ndarray:
    """int_0^length exp(-c u) du entrywise; length where c = 0."""
    pos = c > 0
    return np.where(pos, -np.expm1(-c * length) / np.where(pos, c, 1.0), length)


def hs_norm_sq(spec: EquationSpec, r: float) -> float:
    """|S(r) Phi|_HS^2 = sum_{n,k} e^{-2 lambda_n r} Phi_nk^2."""
    rows = np.sum(spec.phi_matrix ** 2, axis=1)
    return float(np.sum(rows * np.exp(-2.0 * spec.lambdas * r)))


def check_H(spec: EquationSpec) -> tuple:
    """(value, finite?) of int_0^1 |S(r) Phi|_HS^(2/(1+2 alpha)) dr."""
    p = 1.0 / (1.0 + 2.0 * spec.noise.alpha)

    def f(r):
        return hs_norm_sq(spec, r) ** p

    val, err = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-10,
                              limit=200)
    check_estimate("check_H quadrature", val, err, 1e-8)
    return float(val), bool(np.isfinite(val))


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
    head, err = integrate.quad(lambda r: hs_norm_sq(spec, r) ** p, 0.0,
                               t_star, epsabs=0.0, epsrel=1e-10, limit=200)
    check_estimate("check_limit_condition quadrature", head, err, 1e-8)
    tail = hs_norm_sq(spec, t_star) ** p / (2.0 * lam_min * p)
    return float(head + tail), True
