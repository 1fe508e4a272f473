"""Sample-path ensembles of two-sided fBm and Rosenblatt processes.

fBm paths are cumulative sums of fractional Gaussian noise drawn by
circulant embedding, exact in law on the grid.  Rosenblatt paths
discretize the second-order Wiener-Ito integral: the time integral of
the product kernel is reduced to an off-diagonal quadratic form in
independent Gaussian cell increments, with exact per-cell integrals of
the singular weight (u - y)^(H/2 - 1) and a geometrically stretched grid
for the far past.  On the fine cells near the grid the weights are
Toeplitz, and act on a path as an FFT convolution.  Ensembles are
written as CSV, each value as its shortest round-trip decimal, the
bytes repr gives (csvtext).
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import fft, special

from . import csvtext
from .errors import AlignmentError, ConfigError, FactorizationError, \
    check_estimate, check_hurst
from .kernels import fbm_cov
from .rng import normal_matrix

PROCESSES = ("fbm", "rosenblatt")
PATH_BLOCK = 64  # path columns drawn and transformed together
LINK_BLOCK = 1 << 16  # link-matrix elements built at a time for order 2


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
        t_i = self.t_min + self.dt * i  # times[i], without building times
        if abs(t_i) < 1e-12:
            t_i = 0.0
        if abs(t_i - t) > 0.5 * self.dt * (1.0 + 1e-9):
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
        write_csv(path, self.grid, self.n_paths,
                  [csvtext.format_rows(self.values)])


def write_csv(path, grid: GridSpec, n_paths: int, blocks) -> None:
    """Write an ensemble CSV: header, then per time its blocks' cells.

    blocks are csvtext.format_rows of consecutive path columns, in path
    order.  A value's text is the same in every process, so blocks may be
    formatted anywhere.
    """
    with open(path, "wb") as fh:
        fh.write(f"t,{','.join(f'path_{p}' for p in range(n_paths))}\n".encode())
        for t, *cells in zip(grid.times.tolist(), *blocks):
            fh.write(f"{t!r},".encode())
            fh.write(b",".join(cells))
            fh.write(b"\n")


def ensemble_from_csv(path) -> Ensemble:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    times = data[:, 0]
    grid = GridSpec(float(times[0]), float(times[-1]), len(times))
    return Ensemble(grid, data[:, 1:])


def _origin_index(grid: GridSpec) -> int:
    """Index of t = 0, where both processes are anchored."""
    if not grid.t_min <= 0.0 <= grid.t_max:
        raise ConfigError(f"grid [{grid.t_min}, {grid.t_max}] must hold "
                          f"t = 0; simulate() extends such grids")
    return grid.index_of(0.0)


def fbm_covariance_matrix(times: np.ndarray, H: float) -> np.ndarray:
    """E b_s b_t = (|s|^2H + |t|^2H - |t-s|^2H) / 2 on the grid."""
    t = np.asarray(times, float)
    return fbm_cov(0, t[:, None], 0, t[None, :], H)


def _fgn_spectrum(n_steps: int, dt: float, H: float) -> np.ndarray:
    """sqrt(eigenvalue / m) of the circulant embedding of fGn, rfft half.

    The autocovariance of fractional Gaussian noise with step dt is
    embedded in a symmetric circulant of size m = 2 n_steps (Davies and
    Harte 1987).  Its eigenvalues are non-negative for H in (1/2, 1);
    those below zero by rounding are set to zero, and a more negative
    one raises instead of being clipped.
    """
    k = np.arange(n_steps + 1, dtype=float)
    gamma = 0.5 * dt ** (2.0 * H) * ((k + 1.0) ** (2.0 * H)
                                     - 2.0 * k ** (2.0 * H)
                                     + np.abs(k - 1.0) ** (2.0 * H))
    return _circulant_sqrt(np.concatenate([gamma, gamma[-2:0:-1]]))


def _circulant_sqrt(row: np.ndarray) -> np.ndarray:
    """sqrt(lambda / m) for the rfft half of a symmetric circulant's row."""
    eig = np.fft.rfft(row).real
    if eig.min() < -1e-10 * eig.max():
        raise FactorizationError(
            f"circulant embedding not positive semidefinite "
            f"(eigenvalue {eig.min():.3g}, largest {eig.max():.3g})")
    return np.sqrt(np.maximum(eig, 0.0) / len(row))


def simulate_fbm(grid: GridSpec, H: float, n_paths: int, seed: int,
                 stream: int = 0, path_offset: int = 0) -> Ensemble:
    """Gaussian ensemble with the exact two-sided fBm covariance on the grid.

    Fractional Gaussian noise on the grid's steps comes from circulant
    embedding: m = 2 (n_points - 1) normals per path fill a Hermitian
    spectrum, scaled by the embedding's eigenvalues, whose inverse real
    FFT is a stationary sequence with the fGn autocovariance.  The path
    is its cumulative sum, anchored at t = 0, which the grid must hold.

    Path p is a deterministic function of (seed, stream, p): the FFTs act
    on each column alone (contiguous, as normal_matrix lays paths out) and
    paths are drawn in blocks of PATH_BLOCK, so results depend neither on
    how paths are scheduled across workers nor on the BLAS thread count.
    """
    check_hurst(H)
    i0 = _origin_index(grid)
    n_steps = grid.n_points - 1
    m = 2 * n_steps
    scale = _fgn_spectrum(n_steps, grid.dt, H)
    values = np.zeros((grid.n_points, n_paths))
    for p0 in range(0, n_paths, PATH_BLOCK):
        nb = min(PATH_BLOCK, n_paths - p0)
        Z = normal_matrix(seed, stream, m, nb, path_offset + p0)
        # Z[k] and Z[n_steps + k] are the real and imaginary parts of
        # frequency k; frequencies 0 and n_steps are real
        spec = Z[:n_steps + 1].astype(complex)
        spec[1:n_steps] = (Z[1:n_steps] + 1j * Z[n_steps + 1:]) * np.sqrt(0.5)
        spec *= scale[:, None]
        fgn = np.fft.irfft(spec, m, axis=0, norm="forward")[:n_steps]
        np.cumsum(fgn, axis=0, out=values[1:, p0:p0 + nb])
    values -= values[i0]
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
        check_hurst(self.H)
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
        check_hurst(H)
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
        # checked in log space: the power itself overflows for tiny tail_tol
        if (math.log(tail_tol) - math.log(base)) / (H - 1.0) > math.log(1e30):
            raise ConfigError(
                f"tail tolerance {tail_tol} unreachable "
                f"(bound at unit depth {base:.3g})")
        depth = (tail_tol / base) ** (1.0 / (H - 1.0))
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


def _cell_weights(top, bottom, width, g):
    """Integral of (u - y)_+^(g - 1) over cells, divided by sqrt(width).

    top and bottom are u minus the lower and the upper cell edge.
    """
    lo = np.clip(top, 0.0, None)
    hi = np.clip(bottom, 0.0, None)
    return (lo ** g - hi ** g) / g / np.sqrt(width)


def _chaos_weights(scheme: RosenblattScheme, u: np.ndarray):
    """Exact cell projections a[k, i] of (u_k - y)_+^(H/2 - 1).

    a[k, i] = integral of the weight over cell i, divided by sqrt(cell
    width), so that sum_i a[k, i] xi_i is the L2 projection of the
    first-order Wiener integral onto the cell increments.
    """
    e = scheme.y_edges
    return _cell_weights(u[:, None] - e[None, :-1], u[:, None] - e[None, 1:],
                         np.diff(e)[None, :], 0.5 * scheme.H)


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


class _ChaosProjection:
    """The map xi -> M = a xi of _chaos_weights, without forming a.

    The cells of width du at the top of the chaos grid (the near block)
    are aligned with the refined times u_k, so u_k minus the lower edge
    of near cell i is c + du (k - i) and a is Toeplitz there.  Its
    generator, h[q] = a[k, i] for k - i = q - D with D + 1 near cells, is
    all the block needs: it acts on a path as a linear convolution, done
    by real FFTs of a length that cannot wrap onto the kept outputs.
    The remaining (far) cells are few and act by one mat-vec per path.
    A chaos grid with no cells of width du is all far.
    """

    def __init__(self, scheme: RosenblattScheme, u: np.ndarray, du: float):
        e = scheme.y_edges
        widths = np.diff(e)
        g = 0.5 * scheme.H
        # the near block is the longest run of width-du cells at the top
        other = np.flatnonzero(np.abs(widths - du) > 1e-9 * du)
        n_far = other[-1] + 1 if len(other) else 0
        n_near = len(widths) - n_far
        self.n_cells, self.n_far, self.n_u = len(widths), n_far, len(u)
        self.far = _cell_weights(u[:, None] - e[None, :n_far],
                                 u[:, None] - e[None, 1:n_far + 1],
                                 widths[None, :n_far], g)
        self.mass = np.sum(self.far * self.far, axis=1)  # sum_i a[k, i]^2
        self.D = n_near - 1
        if n_near:
            top = (u[0] - e[n_far]) + du * np.arange(-self.D, len(u))
            h = _cell_weights(top, top - du, du, g)
            self.L = fft.next_fast_len(len(h), real=True)
            self.h_hat = np.fft.rfft(h, self.L)
            # row k of the block holds h[k + D], ..., h[k]; h[q < k]
            # would be cells above the grid's top edge >= t_max > u_k,
            # and are zero
            self.mass += np.cumsum(h * h)[self.D:]

    def apply(self, W: np.ndarray) -> np.ndarray:
        """M[k, p] = sum_i a[k, i] W[i, p] for a block of path columns."""
        M = np.empty((self.n_u, W.shape[1]))
        # per-path mat-vecs: a blocked GEMM reorders its reduction with
        # the batch width, so a path would depend on its batch
        np.matvec(self.far, W[:self.n_far].T, out=M.T)
        if self.D >= 0:
            near = np.fft.rfft(W[self.n_far:], self.L, axis=0)
            near *= self.h_hat[:, None]
            M += np.fft.irfft(near, self.L, axis=0)[self.D:self.D + self.n_u]
        return M


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
    The grid must hold t = 0, where R is anchored.

    Paths are drawn and projected in blocks of PATH_BLOCK columns; each
    column is transformed alone, so a path does not depend on its block.
    """
    if scheme.y_edges[-1] < grid.t_max - 1e-12:
        raise ConfigError("chaos grid must reach t_max")
    tail = scheme.tail_bound(grid)
    if tail > scheme.tail_tol:
        raise ConfigError(
            f"truncated-tail variance bound {tail:.3g} exceeds "
            f"tail_tol {scheme.tail_tol:.3g}")
    i0 = _origin_index(grid)
    u, du, _ = _time_refinement(grid, scheme.substeps)
    proj = _ChaosProjection(scheme, u, du)
    values = np.zeros((grid.n_points, n_paths))
    for p0 in range(0, n_paths, PATH_BLOCK):
        nb = min(PATH_BLOCK, n_paths - p0)
        W = normal_matrix(seed, stream, proj.n_cells, nb, path_offset + p0)
        M = proj.apply(W)
        # increments R_t - R_s integrate the (positive) product kernel
        # over (s, t); anchoring at 0 happens through the prefix
        # difference below, which carries the right sign for t < 0
        contrib = du * (M * M - proj.mass[:, None])
        s = scheme.substeps
        values[1:, p0:p0 + nb] = np.cumsum(contrib, axis=0)[s - 1::s]
    values -= values[i0]
    values *= scheme.A_H
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
    Both processes are anchored at t = 0.  A grid on one side of it is
    simulated on its lattice continued to t = 0 and then cut back, which
    needs t = 0 to lie a whole number of steps (to 1e-9) from the grid.
    """
    if process not in PROCESSES:
        raise ConfigError(f"unknown process {process!r}")
    sim_grid, rows = _through_origin(grid)
    if process == "fbm":
        ens = simulate_fbm(sim_grid, H, n_paths, seed, stream, path_offset)
    else:
        scheme = RosenblattScheme.for_grid(sim_grid, H, tail_tol=tail_tol,
                                           substeps=substeps)
        ens = simulate_rosenblatt(sim_grid, scheme, n_paths, seed, stream,
                                  path_offset)
    return ens if sim_grid is grid else Ensemble(grid, ens.values[rows])


def _through_origin(grid: GridSpec):
    """The grid's lattice continued to t = 0, and the rows that are grid."""
    if grid.t_min <= 0.0 <= grid.t_max:
        return grid, slice(None)
    steps = min(abs(grid.t_min), abs(grid.t_max)) / grid.dt
    k = round(steps)
    if abs(steps - k) > 1e-9:
        raise ConfigError(
            f"grid [{grid.t_min}, {grid.t_max}] is {steps:.6g} steps from "
            f"t = 0, not a whole number, so the processes cannot be "
            f"anchored there")
    if grid.t_min > 0.0:
        return GridSpec(0.0, grid.t_max, grid.n_points + k), slice(k, None)
    return GridSpec(grid.t_min, 0.0, grid.n_points + k), \
        slice(0, grid.n_points)


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


def _cell_averaged_link(x_edges: np.ndarray, H: float, lo: int,
                        hi: int) -> np.ndarray:
    """Rows lo:hi of the cell-pair averages of |x - y|^(H-1).

    Each average comes from the exact double primitive at the four
    corners of its cell pair.
    """
    e = x_edges
    p = H + 1.0
    w = np.diff(e)
    # d2/dxdy of -|x - y|^(H+1) / (H (H+1)) is |x - y|^(H-1)
    prim = -np.abs(e[lo:hi + 1, None] - e[None, :]) ** p / (H * p)
    cell = prim[1:, 1:] - prim[1:, :-1] - prim[:-1, 1:] + prim[:-1, :-1]
    cell /= w[lo:hi, None] * w[None, :]
    return cell


def _cyclic_sum(spec: CumulantSpec, H: float, edges: np.ndarray) -> float:
    """sum over index tuples of theta products times the cyclic S integral.

    Collapses to Tr((P_theta A)^k) where A is the cell-averaged link
    matrix and P_theta weights each cell by width times the sum of
    thetas of intervals containing it.  A is symmetric, so order 2 is
    pw' (A o A) pw, with pw the diagonal of P_theta, summed over row
    blocks of LINK_BLOCK elements with no n x n array; orders 3 and 4
    take the one product B^2 of B = P_theta A.
    """
    mids = 0.5 * (edges[:-1] + edges[1:])
    w = np.diff(edges)
    n = len(w)
    weight = np.zeros(n)
    for (s, t), th in zip(spec.intervals, spec.thetas):
        weight += th * ((mids > s) & (mids < t))
    pw = w * weight
    if spec.order == 2:
        rows = max(1, LINK_BLOCK // (n + 1))
        total = 0.0
        for lo in range(0, n, rows):
            A = _cell_averaged_link(edges, H, lo, lo + rows)
            A *= A
            total += pw[lo:lo + rows] @ (A @ pw)
        return float(total)
    B = _cell_averaged_link(edges, H, 0, n)
    B *= pw[:, None]  # P_theta A, in place
    B2 = B @ B
    return float(np.einsum("ij,ji->", B2, B2 if spec.order == 4 else B))


def rosenblatt_cumulant(spec: CumulantSpec, H: float, n_nodes: int = 512,
                        rtol: float = 5e-3) -> float:
    """kappa_k = 2^(k-1) (k-1)! sigma^k * (cyclic multiple integral sum).

    The cyclic integral is computed on a cell-averaged link matrix and
    extrapolated in the known O(w^(2H-1)) near-diagonal rate from a mesh
    and its bisection; the coarse/fine discrepancy after extrapolation is
    the error estimate.
    """
    check_hurst(H)
    if not isinstance(n_nodes, numbers.Integral) or n_nodes < 1:
        raise ValueError(f"n_nodes must be a positive integer, got {n_nodes!r}")
    if not 0.0 < rtol < math.inf:
        raise ValueError(f"rtol must be a positive finite number, got {rtol!r}")
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
    check_estimate("cyclic integral", s_extrap, abs(s_extrap - s_fine), rtol,
                   rtol * 1e-12)
    k = spec.order
    sig = rosenblatt_sigma(H)
    return 2.0 ** (k - 1) * math.factorial(k - 1) * sig ** k * s_extrap

