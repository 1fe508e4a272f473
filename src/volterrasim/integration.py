"""Scalar-noise stochastic integration for step and L^p integrands.

The integral of a step function f = sum f_j 1_[t_{j-1}, t_j) against a
Volterra path b is the Riemann-Stieltjes sum i(f) = sum f_j (b_{t_j} -
b_{t_{j-1}}).  Its second moment can be computed two independent ways:
as the L2 norm of (K* f)(r) = int_r^inf f(u) dK(u, r) du, or as the
double integral of <f(u), f(v)> phi(u, v); d_norm_sq computes both and
insists they agree.
"""

import numpy as np
from scipy import integrate

from .errors import AlignmentError, ConsistencyError, QuadratureError
from .kernels import VolterraKernel, cov_R

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


class StepFunction:
    """Vector-valued step function: values[j] on [breakpoints[j], breakpoints[j+1])."""

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, float)
        vals = np.atleast_2d(np.asarray(values, float))
        if vals.shape[0] == 1 and len(bp) - 1 != 1:
            vals = vals.reshape(len(bp) - 1, -1)
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if vals.shape[0] != len(bp) - 1:
            raise ValueError("need one value per interval")
        if not np.all(np.isfinite(vals)):
            raise ValueError("step values must be finite")
        self.breakpoints = bp
        self.values = vals

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def __call__(self, r):
        j = np.searchsorted(self.breakpoints, r, side="right") - 1
        out = np.zeros(self.dim)
        if 0 <= j < len(self.values):
            out = self.values[j]
        return out


def kstar(kernel: VolterraKernel, f: StepFunction, r: float) -> np.ndarray:
    """(K* f)(r); telescopes through the kernel antiderivative for steps.

    One eval over the breakpoints, whose differences are the pieces'
    kernel increments (eval vanishes for t <= r, so a piece is cut at r),
    then one product with the values.
    """
    return np.diff(kernel.eval(f.breakpoints, r)) @ f.values


def d_norm_sq(kernel: VolterraKernel, f: StepFunction,
              check: bool = True) -> float:
    """Squared D-norm of a step function.

    Primary route: the phi double integral, which for steps is the
    bilinear sum of increment covariances.  When check is set the L2
    norm of K* f is also computed by quadrature and a relative
    discrepancy above 1e-3 raises ConsistencyError.
    """
    bp = f.breakpoints
    vals = f.values
    n = len(vals)
    total = 0.0
    for j in range(n):
        for k in range(n):
            inner = float(vals[j] @ vals[k])
            if inner != 0.0:
                total += inner * cov_R(kernel, bp[j], bp[j + 1], bp[k], bp[k + 1])
    if check:
        other = _kstar_l2_sq(kernel, f)
        scale = max(abs(total), abs(other), 1e-12)
        if abs(total - other) > 1e-3 * scale:
            raise ConsistencyError(
                "phi-form and K*-form of the D-norm disagree",
                values=(total, other))
    return total


def _kstar_l2_sq(kernel: VolterraKernel, f: StepFunction) -> float:
    """int |K* f(r)|^2 dr: one quad over the support, one over the tail.

    The tail r = bp[0] - w is mapped by sigma = (1 + w)^(2 alpha - 1) as
    in cov_R_quadrature, and held beyond w_far, where its bias (about
    span / w) meets the rounding of the eval differences in K* f (about
    eps w / shortest piece).  The estimate adds the quad errors and twice
    the held value's change from w_far to 2 w_far over (0, sigma_far).
    """
    bp = f.breakpoints

    def g(r):
        w = kstar(kernel, f, r)
        return float(w @ w)

    p = 2.0 * kernel.alpha - 1.0

    def mapped(w):
        return g(bp[0] - w) * (1.0 + w) ** (1.0 - p) / -p

    w_far = np.sqrt((bp[-1] - bp[0]) * np.diff(bp).min()
                    / np.finfo(float).eps)
    sigma_far = (1.0 + w_far) ** p
    head, err = integrate.quad(g, bp[0], bp[-1], epsabs=0.0, epsrel=1e-8,
                               points=bp[1:-1] if len(bp) > 2 else None,
                               limit=200)
    tail, e = integrate.quad(
        lambda sigma: mapped(max(sigma, sigma_far) ** (1.0 / p) - 1.0),
        0.0, 1.0, epsabs=0.0, epsrel=1e-8, limit=200)
    total = head + tail
    err += e + 2.0 * sigma_far * abs(mapped(w_far) - mapped(2.0 * w_far))
    if err > 1e-6 * abs(total):
        raise QuadratureError("K* L2 norm above tolerance",
                              value=total, estimate=err)
    return total


def integrate_step(f: StepFunction, paths) -> np.ndarray:
    """Pathwise Riemann-Stieltjes sum; shape (dim, n_paths).

    Breakpoints must sit on the path grid up to the dt/2 snapping
    tolerance, else AlignmentError.
    """
    vals = paths.values
    idx = [paths.grid.index_of(t) for t in f.breakpoints]
    out = np.zeros((f.dim, paths.n_paths))
    for j in range(len(f.values)):
        db = vals[idx[j + 1]] - vals[idx[j]]
        out += f.values[j][:, None] * db[None, :]
    return out


def _cell_averages(fn, edges: np.ndarray) -> np.ndarray:
    """Gauss-Legendre averages of fn over each cell; shape (n_cells, dim)."""
    rows = []
    for a, b in zip(edges[:-1], edges[1:]):
        x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
        fx = np.array([np.atleast_1d(fn(xi)) for xi in x], float)
        if not np.all(np.isfinite(fx)):
            raise ValueError(f"integrand not finite on [{a}, {b}]")
        rows.append(0.5 * _GL_WEIGHTS @ fx)
    return np.array(rows)


def definite_integral(fn, s: float, t: float, paths, n_sub: int = 64) -> np.ndarray:
    """int_s^t fn(r) db_r via an n_sub-cell step approximation."""
    if not s < t:
        raise ValueError("need s < t")
    grid = paths.grid
    n_cells = max(1, int(round((t - s) / grid.dt)))
    n_sub = min(n_sub, n_cells)
    # align sub-cell edges with the path grid so increments are exact
    per = max(1, n_cells // n_sub)
    edges = [s + grid.dt * per * j for j in range(n_cells // per)] + [t]
    edges = np.array(edges)
    if len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise AlignmentError("integration window too small for the path grid")
    return integrate_step(StepFunction(edges, _cell_averages(fn, edges)),
                          paths)


def check_law_symmetries(fn, t: float, ensemble, n_sub: int = 64,
                         seed: int = 0):
    """Two-sample reports for the three equal-in-law integrals.

    int_0^t f(t-r) db_r, int_0^t f(r) db_r and int_{-t}^0 f(-u) db_u are
    evaluated on disjoint thirds of the ensemble so the pairwise energy
    tests compare independent samples.  The level 0.01 is
    Bonferroni-corrected across the three pairs.
    """
    from .diagnostics import energy_two_sample
    from .processes import Ensemble

    grid = ensemble.grid
    if grid.t_min > -t or grid.t_max < t:
        raise ValueError("ensemble grid must cover [-t, t]")
    n = ensemble.n_paths
    thirds = [slice(0, n // 3), slice(n // 3, 2 * n // 3), slice(2 * n // 3, n)]

    def sub(sl):
        return Ensemble(grid, ensemble.values[:, sl])

    conv = definite_integral(lambda r: fn(t - r), 0.0, t, sub(thirds[0]), n_sub)
    plain = definite_integral(fn, 0.0, t, sub(thirds[1]), n_sub)
    refl = definite_integral(lambda u: fn(-u), -t, 0.0, sub(thirds[2]), n_sub)
    samples = {"convolution": conv.T, "plain": plain.T, "reflected": refl.T}
    names = list(samples)
    reports = {}
    adj = 0.01 / 3.0
    for i in range(3):
        for j in range(i + 1, 3):
            key = f"{names[i]}|{names[j]}"
            reports[key] = energy_two_sample(
                samples[names[i]], samples[names[j]],
                level=adj, seed=seed + 7 * i + j)
    return reports
