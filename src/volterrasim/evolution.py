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

from .blas import one_blas_thread
from .errors import ConfigError, _check_count, check_estimate, check_finite, \
    check_hurst
from .kernels import tanhsinh_sum
from .processes import PROCESSES, Ensemble, GridSpec, _blocks

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
    """dX = A X dt + Phi dB with diagonal A = -diag(lambdas), lambdas >= 0.

    A zero mode has a mild solution but no limiting measure: only
    x_infinity, with it x0 = "x-infinity", and q_infinity need lambda > 0.
    """

    lambdas: np.ndarray
    phi_matrix: np.ndarray
    noise: NoiseSpec
    x0: object = None  # None (zero) | "x-infinity" | one value per mode

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, float))
        Phi = np.atleast_2d(np.asarray(self.phi_matrix, float))
        if Phi.shape != (len(lam), self.noise.n_components):
            raise ConfigError(
                f"Phi must be {len(lam)}x{self.noise.n_components}, got {Phi.shape}")
        check_finite("lambdas and Phi", lam, Phi)
        if np.any(lam < 0):
            raise ConfigError("lambdas must be >= 0")
        lam.setflags(write=False)
        Phi.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "phi_matrix", Phi)
        if self.x0 is None or (isinstance(self.x0, str)
                               and self.x0 == "x-infinity"):
            return
        try:
            x0 = np.atleast_1d(np.array(self.x0, float))
            check_finite("x0", x0)
        except (TypeError, ValueError):  # ConfigError is a ValueError
            x0 = None
        if isinstance(self.x0, str) or x0 is None or x0.shape != (len(lam),):
            raise ConfigError(f"x0 must be None, 'x-infinity' or {len(lam)} "
                              f"finite values, got {self.x0!r}")
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

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


@one_blas_thread()
def _convolve_noise(spec: EquationSpec, times: np.ndarray, grid: GridSpec,
                    n_paths: int, seed: int) -> np.ndarray:
    """Cell sum of int_grid S(t - r) Phi dB_r, shape (n_t, n_modes, n_paths).

    Noise component k, simulated on grid with stream k, is read one block
    of PATH_BLOCK paths at a time: a block's increments are added into its
    columns of every mode k drives, and dropped.  Each mode sums its terms
    in ascending k; the exponential weights of the modes k drives are
    built before its first block and dropped after its last.  It runs at
    one BLAS thread, so that no value depends on the thread count.
    """
    Phi = spec.phi_matrix
    out = np.zeros((len(times), spec.n_modes, n_paths))
    for k, fam in enumerate(spec.noise.families):
        driven = Phi[:, k].nonzero()[0]
        weights = {n: _exp_cell_averages(spec.lambdas[n], times, grid.times)
                   for n in driven}
        for p0, block in _blocks(fam, grid, spec.noise.H, n_paths, seed, k,
                                 0, TAIL_TOL, SUBSTEPS):
            d = np.diff(block, axis=0)
            for n in driven:
                out[:, n, p0:p0 + d.shape[1]] += Phi[n, k] * (weights[n] @ d)
        del weights  # before the next component's are built
    return out


def _past_steps(spec: EquationSpec, t_trunc: float, dt: float) -> int:
    """Whole steps of dt in the truncated past [-t_trunc, 0] of x_infinity,
    which must exist (check_limit_condition)."""
    if not 0.0 < dt <= t_trunc < math.inf:  # nan fails
        raise ConfigError(f"need a finite t_trunc and 0 < dt <= t_trunc, "
                          f"got t_trunc={t_trunc}, dt={dt}")
    if not check_limit_condition(spec)[1]:
        raise ConfigError("limiting-measure condition fails; x_infinity undefined")
    return int(round(t_trunc / dt))


def solve_mild(spec: EquationSpec, grid: GridSpec, n_paths: int, seed: int,
               t_trunc: float = 20.0) -> Ensemble:
    """Monte-Carlo mild solution X_t = S(t) x0 + int_0^t S(t-r) Phi dB_r.

    values[i, n, p] is mode n of path p at times[i].

    For x0 = "x-infinity" the noise is simulated jointly on
    [-t_trunc, t_max] and x_infinity = int_{-t_trunc}^0 S(-u) Phi dB_u is
    built from the same paths, so the solution's dependence on the past
    is preserved; t_trunc must then be finite and at least one grid step,
    and x_infinity must exist.
    The noise is streamed in blocks of paths (_convolve_noise), so a
    solve holds no other array of every path than its result.
    """
    return Ensemble(grid, _mild_values(spec, grid, grid.times, n_paths,
                                       seed, t_trunc))


def _mild_values(spec: EquationSpec, grid: GridSpec, times: np.ndarray,
                 n_paths: int, seed: int, t_trunc: float = 20.0) -> np.ndarray:
    """solve_mild's values at the grid times `times` only, shape
    (len(times), n_modes, n_paths)."""
    if grid.t_min != 0.0:
        raise ConfigError("solution grid must start at t = 0")
    n_paths = _check_count("n_paths", n_paths)
    _check_count("seed", seed, 0)
    sim_grid = grid
    if isinstance(spec.x0, str):
        n_past = _past_steps(spec, t_trunc, grid.dt)
        sim_grid = GridSpec(-n_past * grid.dt, grid.t_max,
                            n_past + grid.n_points)
    check_H(spec)  # raises unless the Hypothesis-(H) integral converges
    out = _convolve_noise(spec, times, sim_grid, n_paths, seed)
    if isinstance(spec.x0, np.ndarray):
        decay = np.exp(-np.outer(times, spec.lambdas))  # (n_t, n_modes)
        out += (decay * spec.x0[None, :])[:, :, None]
    return out


def sample_x_infinity(spec: EquationSpec, t_trunc: float, n_paths: int,
                      seed: int, dt: float = 0.01) -> np.ndarray:
    """Samples of Z''_T = int_{-T}^0 S(-u) Phi dB_u, shape (n_modes, n_paths).

    T = t_trunc, finite, is cut into round(T / dt) equal steps, 0 < dt <= T.
    The noise is streamed in blocks of paths (_convolve_noise): beyond
    the result, memory grows with T / dt by one block, not with n_paths.
    """
    n_paths = _check_count("n_paths", n_paths)
    _check_count("seed", seed, 0)
    grid = GridSpec(-t_trunc, 0.0, _past_steps(spec, t_trunc, dt) + 1)
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
    One tanh-sinh call takes every entry of the array on each of the three
    pieces between -s^(2H-1), 0, the kink at w = r - s and r^(2H-1), each
    entry divided by its exponential mass so that the error test holds
    entrywise.  An r or s that is negative or not finite raises
    ConfigError.
    """
    if not (0.0 <= r < math.inf and 0.0 <= s < math.inf):
        raise ConfigError(f"need finite r, s >= 0, got r = {r}, s = {s}")
    if r == 0.0 or s == 0.0:
        return np.zeros((spec.n_modes, spec.n_modes))
    H = spec.noise.H
    p = 2.0 * H - 1.0
    lam_i, lam_j = spec.lambdas[:, None], spec.lambdas[None, :]
    mass = _exp_mass(lam_i, r) * _exp_mass(lam_j, s)

    def f(sigma, lam_i, lam_j, mass):
        w = np.sign(sigma) * np.abs(sigma) ** (1.0 / p)
        a, b = np.maximum(0.0, w), np.minimum(r, s + w)  # exponents <= 0
        return np.exp(-lam_i * (r - b) - lam_j * (s + w - b)) \
            * _exp_mass(lam_i + lam_j, b - a) / mass

    kink = math.copysign(abs(r - s) ** p, r - s)
    ends = np.sort([-s ** p, 0.0, kink, r ** p])[:, None, None]
    val, err = tanhsinh_sum("covariance_g quadrature", f, ends[:-1], ends[1:],
                            args=(lam_i, lam_j, mass), rtol=1e-10)
    check_estimate("covariance_g quadrature", val, np.max(err), 1e-8)
    return (spec.phi_matrix @ spec.phi_matrix.T) * H * mass * val


def _exp_mass(c: np.ndarray, length: float) -> np.ndarray:
    """int_0^length exp(-c u) du entrywise; length where c = 0."""
    pos = c > 0
    return np.where(pos, -np.expm1(-c * length) / np.where(pos, c, 1.0), length)


def hs_norm_sq(spec: EquationSpec, r):
    """|S(r) Phi|_HS^2 = sum_{n,k} e^{-2 lambda_n r} Phi_nk^2, entrywise in r."""
    rows = np.sum(spec.phi_matrix ** 2, axis=1)
    return np.sum(rows * np.exp(-2.0 * spec.lambdas
                                * np.asarray(r, float)[..., None]), axis=-1)


def _hs_power_integral(spec: EquationSpec, upper: float, what: str) -> float:
    """int_0^upper |S(r) Phi|_HS^(2/(1+2 alpha)) dr by tanh-sinh, checked."""
    p = 1.0 / (1.0 + 2.0 * spec.noise.alpha)
    val, err = tanhsinh_sum(what, lambda r: hs_norm_sq(spec, r) ** p, 0.0,
                            [upper], rtol=1e-10)
    check_estimate(what, val, err, 1e-8)
    return float(val)


def check_H(spec: EquationSpec) -> tuple:
    """(value, finite?) of int_0^1 |S(r) Phi|_HS^(2/(1+2 alpha)) dr."""
    val = _hs_power_integral(spec, 1.0, "check_H quadrature")
    return val, bool(np.isfinite(val))


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
    head = _hs_power_integral(spec, t_star, "check_limit_condition quadrature")
    tail = hs_norm_sq(spec, t_star) ** p / (2.0 * lam_min * p)
    return float(head + tail), True
