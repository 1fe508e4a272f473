"""Sample-path ensembles of two-sided fBm and Rosenblatt processes.

fBm paths come from a dense factorization of the exact two-sided
covariance on the grid.  Rosenblatt paths discretize the second-order
Wiener-Ito integral: the time integral of the product kernel is reduced
to an off-diagonal quadratic form in independent Gaussian cell
increments, with exact per-cell integrals of the singular weight
(u - y)^(H/2 - 1) and a geometrically stretched grid for the far past.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import AlignmentError, ConfigError, FactorizationError, QuadratureError
from .kernels import fbm_cov
from .rng import normal_matrix

MAX_DENSE_GRID = 8192
PROCESSES = ("fbm", "rosenblatt")


@dataclass(frozen=True)
class GridSpec:
    """Uniform time grid. Must contain t = 0 when the span covers it."""

    t_min: float
    t_max: float
    n_points: int

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError("need t_min < t_max")
        if self.n_points < 2:
            raise ValueError("need at least two grid points")
        if self.t_min <= 0.0 <= self.t_max:
            if not np.isclose(self.times, 0.0, atol=1e-12).any():
                raise ValueError("grid spanning 0 must contain t = 0 exactly")

    @property
    def dt(self) -> float:
        return (self.t_max - self.t_min) / (self.n_points - 1)

    @property
    def times(self) -> np.ndarray:
        t = self.t_min + self.dt * np.arange(self.n_points)
        # kill the rounding residue at zero so b_0 == 0 is representable
        t[np.abs(t) < 1e-12] = 0.0
        return t

    def index_of(self, t: float) -> int:
        """Nearest grid index; error if farther than dt/2 (plus slack)."""
        i = int(round((t - self.t_min) / self.dt))
        i = min(max(i, 0), self.n_points - 1)
        if abs(self.times[i] - t) > 0.5 * self.dt * (1.0 + 1e-9):
            raise AlignmentError(f"time {t} is off-grid (dt={self.dt})")
        return i


@dataclass
class Ensemble:
    """Immutable bundle of sample paths, path p in the last axis.

    values[i, p] is path p at times[i]; a vector-valued ensemble has
    values[i, n, p], component n.  One-dimensional values are one path.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        if self.values.ndim == 1:
            self.values = self.values[:, None]
        if self.values.shape[0] != self.grid.n_points:
            raise ValueError("values rows must match grid points")
        # a read-only view: the caller's array stays writable
        self.values = self.values.view()
        self.values.setflags(write=False)

    @property
    def n_paths(self) -> int:
        return self.values.shape[-1]

    def at(self, t: float) -> np.ndarray:
        """Values of all paths at (snapped) time t."""
        return self.values[self.grid.index_of(t)]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t," + ",".join(f"path_{p}" for p in range(self.n_paths)))
            fh.write("\n")
            for t, row in zip(self.grid.times.tolist(), self.values.tolist()):
                fh.write(f"{t!r},{','.join(map(repr, row))}\n")


def ensemble_from_csv(path) -> Ensemble:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    times = data[:, 0]
    grid = GridSpec(float(times[0]), float(times[-1]), len(times))
    return Ensemble(grid, data[:, 1:])


def fbm_covariance_matrix(times: np.ndarray, H: float) -> np.ndarray:
    """E b_s b_t = (|s|^2H + |t|^2H - |t-s|^2H) / 2 on the grid."""
    t = np.asarray(times, float)
    return fbm_cov(0, t[:, None], 0, t[None, :], H)


def _factor_psd(C: np.ndarray) -> np.ndarray:
    """Cholesky factor, retrying with relative jitter before giving up."""
    jitter = 1e-12 * np.trace(C)
    for shift in (0.0, jitter, 10.0 * jitter, 100.0 * jitter):
        try:
            return np.linalg.cholesky(
                C + shift * np.eye(len(C)) if shift else C)
        except np.linalg.LinAlgError:
            continue
    raise FactorizationError(
        "covariance matrix not positive semidefinite after jitter")


def simulate_fbm(grid: GridSpec, H: float, n_paths: int, seed: int,
                 stream: int = 0, path_offset: int = 0) -> Ensemble:
    """Gaussian ensemble with the exact two-sided fBm covariance on the grid.

    Path p is a deterministic function of (seed, stream, p), so results do
    not depend on how paths are scheduled across workers.
    """
    if not 0.5 < H < 1.0:
        raise ValueError(f"H must lie in (1/2, 1), got {H}")
    if grid.n_points > MAX_DENSE_GRID:
        raise ConfigError(
            f"grid too large for dense factorization ({grid.n_points} > {MAX_DENSE_GRID})")
    times = grid.times
    live = np.abs(times) > 0.0  # b_0 = 0 exactly; factor the rest
    C = fbm_covariance_matrix(times[live], H)
    L = _factor_psd(C)
    Z = normal_matrix(seed, stream, int(live.sum()), n_paths, path_offset)
    values = np.zeros((grid.n_points, n_paths))
    # one mat-vec per path: a blocked GEMM reorders its reduction with the
    # batch width, so a path would depend on the batch it is simulated in
    values[live] = np.matvec(L, Z.T).T
    return Ensemble(grid, values)


# ---------------------------------------------------------------------------
# Rosenblatt process
# ---------------------------------------------------------------------------

def rosenblatt_sigma(H: float) -> float:
    return math.sqrt(0.5 * H * (2.0 * H - 1.0))


def rosenblatt_normalizer(H: float) -> float:
    """A_H = sigma / B(H/2, 1 - H)."""
    return rosenblatt_sigma(H) / special.beta(0.5 * H, 1.0 - H)


def rosenblatt_tail_bound(H: float, span: float, depth: float) -> float:
    """Upper bound on the variance lost by truncating the Wiener plane.

    `depth` is the distance from the earliest simulated time down to the
    truncation edge.  The bound integrates the kernel product over
    {y1 < cut}, using (u - y)^(H/2-1)(v - y)^(H/2-1) <= (min(u,v)-y)^(H-2).
    """
    A = rosenblatt_normalizer(H)
    B = special.beta(0.5 * H, 1.0 - H)
    return (
        4.0 * A * A * B
        * depth ** (H - 1.0) / (1.0 - H)
        * span ** (H + 1.0) / (H * (H + 1.0))
    )


@dataclass(frozen=True)
class RosenblattScheme:
    """Discretization of the second-chaos double integral.

    y_edges are the Wiener-axis cell edges (fine and uniform near the
    simulated window, geometric down to y_min); substeps refines each
    grid step of the time integral.
    """

    H: float
    y_edges: np.ndarray = field(repr=False)
    substeps: int
    tail_tol: float

    def __post_init__(self):
        if not 0.5 < self.H < 1.0:
            raise ValueError(f"H must lie in (1/2, 1), got {self.H}")
        e = np.asarray(self.y_edges, float)
        if e.ndim != 1 or len(e) < 33 or np.any(np.diff(e) <= 0):
            raise ConfigError("chaos grid must be increasing with >= 32 cells")
        object.__setattr__(self, "y_edges", e)
        e.setflags(write=False)

    @property
    def A_H(self) -> float:
        return rosenblatt_normalizer(self.H)

    @property
    def y_min(self) -> float:
        return float(self.y_edges[0])

    @classmethod
    def for_grid(cls, grid: GridSpec, H: float, tail_tol: float = 1e-3,
                 substeps: int = 4) -> "RosenblattScheme":
        """Build a scheme whose truncated-tail variance bound is < tail_tol.

        The far cells grow geometrically by a factor 1.3.
        """
        if not 0.5 < H < 1.0:
            raise ConfigError(f"H must lie in (1/2, 1), got {H}")
        if substeps < 1:
            raise ConfigError(f"substeps must be at least 1, got {substeps}")
        if not tail_tol > 0.0:
            raise ConfigError(f"tail_tol must be positive, got {tail_tol}")
        span = grid.t_max - grid.t_min
        dy = grid.dt / substeps
        near_lo = grid.t_min - 1.0
        near = np.arange(near_lo, grid.t_max + 0.5 * dy, dy)
        # depth below near_lo needed so the analytic tail bound meets tail_tol
        base = rosenblatt_tail_bound(H, span, 1.0)
        depth = (tail_tol / base) ** (1.0 / (H - 1.0))
        if not np.isfinite(depth) or depth > 1e30:
            raise ConfigError(
                f"tail tolerance {tail_tol} unreachable "
                f"(bound at unit depth {base:.3g})")
        far = [near_lo]
        step = dy
        while far[-1] > near_lo - depth:
            step *= 1.3
            far.append(far[-1] - step)
            if len(far) > 4000:
                raise ConfigError("chaos grid construction did not terminate")
        edges = np.concatenate([np.array(far[:0:-1]), near])
        return cls(H=H, y_edges=edges, substeps=substeps, tail_tol=tail_tol)

    def tail_bound(self, grid: GridSpec) -> float:
        span = grid.t_max - grid.t_min
        return rosenblatt_tail_bound(self.H, span, grid.t_min - self.y_min)


def _chaos_weights(scheme: RosenblattScheme, u: np.ndarray):
    """Exact cell projections a[k, i] of (u_k - y)_+^(H/2 - 1).

    a[k, i] = integral of the weight over cell i, divided by sqrt(cell
    width), so that sum_i a[k, i] xi_i is the L2 projection of the
    first-order Wiener integral onto the cell increments.
    """
    g = 0.5 * scheme.H
    e = scheme.y_edges
    widths = np.diff(e)
    lo = np.clip(u[:, None] - e[None, :-1], 0.0, None)
    hi = np.clip(u[:, None] - e[None, 1:], 0.0, None)
    prim = (lo ** g - hi ** g) / g
    return prim / np.sqrt(widths)[None, :]


def _time_refinement(grid: GridSpec, substeps: int):
    """Midpoints, cell width and signs of the refined time integral.

    sgn is the sign of the midpoint, which on cells between 0 and t
    equals the sign of t; the covariance routine uses it to orient the
    projected step kernel of R_t = I2(K(t) - K(0)).
    """
    du = grid.dt / substeps
    n_u = (grid.n_points - 1) * substeps
    u = grid.t_min + du * (np.arange(n_u) + 0.5)
    sgn = np.where(u > 0.0, 1.0, -1.0)
    return u, du, sgn


def simulate_rosenblatt(grid: GridSpec, scheme: RosenblattScheme,
                        n_paths: int, seed: int, stream: int = 0,
                        path_offset: int = 0) -> Ensemble:
    """Second-chaos ensemble via the off-diagonal quadratic form.

    R_t = A_H * sum over refined time cells of (M_k^2 - |a_k|^2) du,
    where M_k projects the singular weight onto Gaussian cell increments.
    Subtracting the deterministic |a_k|^2 is the Wiener-Ito convention
    for step kernels (I2(1_A x 1_A) = W(A)^2 - |A|); it keeps the
    estimator centred while retaining the kernel mass of the diagonal
    band, which plain i = j zeroing would lose at rate O(dy^(2H-1)).
    """
    if scheme.y_edges[-1] < grid.t_max - 1e-12:
        raise ConfigError("chaos grid must reach t_max")
    tail = scheme.tail_bound(grid)
    if tail > scheme.tail_tol:
        raise ConfigError(
            f"truncated-tail variance bound {tail:.3g} exceeds "
            f"tail_tol {scheme.tail_tol:.3g}")
    u, du, _ = _time_refinement(grid, scheme.substeps)
    a = _chaos_weights(scheme, u)
    W = normal_matrix(seed, stream, a.shape[1], n_paths, path_offset)
    # per-path mat-vecs as in simulate_fbm; out=M.T keeps M C-ordered
    M = np.empty((len(u), n_paths))
    np.matvec(a, W.T, out=M.T)
    mass = np.sum(a * a, axis=1)
    # increments R_t - R_s integrate the (positive) product kernel over
    # (s, t); anchoring at 0 happens through the prefix difference below,
    # which automatically carries the right sign for t < 0
    contrib = du * (M * M - mass[:, None])
    prefix = np.vstack([np.zeros(n_paths), np.cumsum(contrib, axis=0)])
    at_edges = prefix[::scheme.substeps]
    i0 = grid.index_of(0.0) if grid.t_min <= 0.0 <= grid.t_max else 0
    values = scheme.A_H * (at_edges - at_edges[i0])
    values[i0] = 0.0
    return Ensemble(grid, values)


def rosenblatt_grid_covariance(grid: GridSpec, scheme: RosenblattScheme) -> np.ndarray:
    """Exact covariance of the discretized Rosenblatt ensemble.

    Cov(R_s, R_t) = 2 <F_s, F_t> for the projected step kernels F_t;
    quantifies discretization + truncation error against the target
    (|s|^2H + |t|^2H - |t-s|^2H)/2.
    """
    u, du, sgn = _time_refinement(grid, scheme.substeps)
    a = _chaos_weights(scheme, u)
    g2 = (a @ a.T) ** 2
    # signed selection of refined steps inside (0, t_j]
    t = grid.times[:, None]
    inside = (u > np.minimum(0.0, t)) & (u < np.maximum(0.0, t))
    sel = np.where(inside, sgn * du, 0.0)
    A = scheme.A_H
    return 2.0 * A * A * sel @ g2 @ sel.T


def rosenblatt_discretization_tolerance(grid: GridSpec,
                                        scheme: RosenblattScheme) -> float:
    """Max absolute deviation of grid covariance from the exact fBm-type law."""
    exact = fbm_covariance_matrix(grid.times, scheme.H)
    return float(np.max(np.abs(rosenblatt_grid_covariance(grid, scheme) - exact)))


def simulate(process: str, grid: GridSpec, H: float, n_paths: int, seed: int,
             stream: int, path_offset: int, tail_tol: float,
             substeps: int) -> Ensemble:
    """Ensemble of one of PROCESSES.

    tail_tol and substeps build the Rosenblatt scheme; fbm ignores them.
    """
    if process not in PROCESSES:
        raise ConfigError(f"unknown process {process!r}")
    if process == "fbm":
        return simulate_fbm(grid, H, n_paths, seed, stream, path_offset)
    scheme = RosenblattScheme.for_grid(grid, H, tail_tol=tail_tol,
                                       substeps=substeps)
    return simulate_rosenblatt(grid, scheme, n_paths, seed, stream,
                               path_offset)


# ---------------------------------------------------------------------------
# Rosenblatt cumulants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CumulantSpec:
    """kappa_k of sum_i theta_i (R_{t_i} - R_{s_i})."""

    intervals: tuple
    thetas: tuple
    order: int

    def __post_init__(self):
        if self.order < 2 or self.order > 4:
            raise ValueError("cumulant order must be 2, 3 or 4")
        if len(self.intervals) != len(self.thetas):
            raise ValueError("need one theta per interval")
        for s, t in self.intervals:
            if not s < t:
                raise ValueError(f"interval endpoints must satisfy s < t, got {(s, t)}")


def _cell_averaged_link(x_edges: np.ndarray, H: float) -> np.ndarray:
    """Cell-pair averages of |x - y|^(H-1) from the exact double primitive."""
    e = x_edges
    p = H + 1.0
    w = np.diff(e)
    # d2/dxdy of -|x - y|^(H+1) / (H (H+1)) is |x - y|^(H-1)
    prim = -np.abs(e[:, None] - e[None, :]) ** p / (H * p)
    cell = prim[1:, 1:] - prim[1:, :-1] - prim[:-1, 1:] + prim[:-1, :-1]
    del prim  # at most two n x n arrays are alive at a time
    cell /= w[:, None] * w[None, :]
    return cell


def _cyclic_sum(spec: CumulantSpec, H: float, edges: np.ndarray) -> float:
    """sum over index tuples of theta products times the cyclic S integral.

    Collapses to Tr((P_theta A)^k) where A is the cell-averaged link
    matrix and P_theta weights each cell by width times the sum of
    thetas of intervals containing it.
    """
    mids = 0.5 * (edges[:-1] + edges[1:])
    w = np.diff(edges)
    A = _cell_averaged_link(edges, H)
    weight = np.zeros(len(w))
    for (s, t), th in zip(spec.intervals, spec.thetas):
        weight += th * ((mids > s) & (mids < t))
    A *= (w * weight)[:, None]  # P_theta A, in place
    Bk = np.linalg.matrix_power(A, spec.order)
    return float(np.trace(Bk))


def rosenblatt_cumulant(spec: CumulantSpec, H: float, n_nodes: int = 512,
                        rtol: float = 5e-3) -> float:
    """kappa_k = 2^(k-1) (k-1)! sigma^k * (cyclic multiple integral sum).

    The cyclic integral is computed on a cell-averaged link matrix and
    extrapolated in the known O(w^(2H-1)) near-diagonal rate from a mesh
    and its bisection; the coarse/fine discrepancy after extrapolation is
    the error estimate.
    """
    if not 0.5 < H < 1.0:
        raise ValueError(f"H must lie in (1/2, 1), got {H}")
    if all(th == 0.0 for th in spec.thetas):
        return 0.0
    # an even number of fine cells between endpoints: all are coarse edges
    ends = np.unique(np.ravel(spec.intervals))
    span = ends[-1] - ends[0]
    fine = np.unique(np.concatenate([
        np.linspace(a, b, 2 * max(1, round(n_nodes * (b - a) / span)) + 1)
        for a, b in zip(ends[:-1], ends[1:])]))
    s_coarse = _cyclic_sum(spec, H, fine[::2])
    s_fine = _cyclic_sum(spec, H, fine)
    p = 2.0 * H - 1.0
    r = 2.0 ** (-p)
    s_extrap = (s_fine - r * s_coarse) / (1.0 - r)
    err = abs(s_extrap - s_fine)
    if err > rtol * max(abs(s_extrap), 1e-12):
        raise QuadratureError("cyclic integral did not converge",
                              value=s_extrap, estimate=err)
    k = spec.order
    sig = rosenblatt_sigma(H)
    return 2.0 ** (k - 1) * math.factorial(k - 1) * sig ** k * s_extrap

