"""Scalar-noise stochastic integration for step and L^p integrands.

The integral of a step function f = sum f_j 1_[t_{j-1}, t_j) against a
Volterra path b is the Riemann-Stieltjes sum i(f) = sum f_j (b_{t_j} -
b_{t_{j-1}}).  Its second moment can be computed two independent ways:
as the L2 norm of (K* f)(r) = int_r^inf f(u) dK(u, r) du, or as the
double integral of <f(u), f(v)> phi(u, v); d_norm_sq computes both and
insists they agree.
"""

import numpy as np

from .diagnostics import energy_two_sample
from .errors import ConfigError, ConsistencyError, _check_count, \
    check_estimate, check_finite
from .kernels import VolterraKernel, cov_R, gauss_legendre, tanhsinh_sum
from .processes import Ensemble

_GL_NODES, _GL_WEIGHTS = gauss_legendre(8)
N_SUB = 64  # the most step cells definite_integral approximates fn with
_EPS = np.finfo(float).eps


class StepFunction:
    """Vector-valued step function: values[j] on [breakpoints[j], breakpoints[j+1])."""

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, float)
        vals = np.atleast_2d(np.asarray(values, float))
        if vals.shape[0] == 1 and len(bp) - 1 != 1:
            vals = vals.reshape(len(bp) - 1, -1)
        check_finite("breakpoints and step values", bp, vals)
        if np.any(np.diff(bp) <= 0):
            raise ConfigError("breakpoints must be strictly increasing")
        if vals.shape[0] != len(bp) - 1:
            raise ConfigError("need one value per interval")
        self.breakpoints = bp
        self.values = vals

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def kstar(kernel: VolterraKernel, f: StepFunction, r) -> np.ndarray:
    """(K* f)(r), shape r.shape + (dim,); telescopes through the kernel
    antiderivative for steps.

    One eval over the breakpoints, broadcast against r, whose differences
    are the pieces' kernel increments (eval vanishes for t <= r, so a
    piece is cut at r), then one product with the values.
    """
    r = np.asarray(r, float)[..., None]
    return np.diff(kernel.eval(f.breakpoints, r), axis=-1) @ f.values


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
    """int |K* f(r)|^2 dr: one tanh-sinh call over the pieces and the tail,
    and the tail's far end in closed form.

    The tail r = bp[0] - w up to w_far is mapped onto (0, tau_far) by
    tau = 1 - (1 + w / span)^(2 alpha - 1), as in cov_R_quadrature.
    Beyond w_far the mapped integrand is taken as m_inf + c / w, as it is
    for fBm up to O(w^-2), with m_inf and c read off m at w_far and
    2 w_far.  w_far balances the next term, about (span / w)^2, against
    the rounding of the eval differences in K* f, about eps w / shortest
    piece.  The estimate adds to tanh-sinh's the size of the next term,
    from m at 4 w_far as well, and a bound on the rounding: each eval
    term, rounded by up to 4 eps, enters K* f times the jump of the
    values at its breakpoint.  That bound grows like w^(2 alpha - 1) in r,
    so up to w_far it integrates to w_far / (2 alpha) times its value
    there.
    """
    bp = f.breakpoints
    span = bp[-1] - bp[0]
    p = 2.0 * kernel.alpha - 1.0
    w_far = 2.0 * np.cbrt(span * span * np.diff(bp).min() / _EPS)
    tau_far = -np.expm1(p * np.log1p(w_far / span))

    def integrand(x, is_tail):
        w = span * np.expm1(np.log1p(-x) / p)
        g = kstar(kernel, f, np.where(is_tail, bp[0] - w, x))
        return np.sum(g * g, axis=-1) * np.where(
            is_tail, span / -p * (1.0 + w / span) ** (1.0 - p), 1.0)

    a = np.concatenate([[0.0], bp[:-1]])
    b = np.concatenate([[tau_far], bp[1:]])
    total, err = tanhsinh_sum("K* L2 norm", integrand, a, b,
                              args=(np.arange(len(a)) == 0,), rtol=1e-8)
    w = w_far * np.array([1.0, 2.0, 4.0])
    terms = kernel.eval(bp, (bp[0] - w)[:, None])
    g = np.linalg.norm(np.diff(terms, axis=-1) @ f.values, axis=-1)
    jumps = np.abs(np.diff(f.values, axis=0, prepend=0.0, append=0.0))
    slop = 4.0 * _EPS * np.linalg.norm(np.abs(terms) @ jumps, axis=-1)
    bound = (2.0 * g + slop) * slop
    jac = span / -p * (1.0 + w / span) ** (1.0 - p)
    m = g * g * jac
    d1, d2 = m[0] - m[1], m[1] - m[2]  # c / w_far = 2 d1 + O(w_far^-2)
    held = 1.0 - tau_far
    # the mass of 1 / w beyond w_far is held |p| / ((1 - p) w_far)
    total += held * (m[0] - 2.0 * d1 + 2.0 * d1 * -p / (1.0 - p))
    err += held * (4.0 * abs(d1 - 2.0 * d2) + 2.0 * abs(d1) * span / w_far
                   + 3.0 * (bound[0] * jac[0] + 2.0 * bound[1] * jac[1])) \
        + w_far * bound[0] / (2.0 * kernel.alpha)
    check_estimate("K* L2 norm", total, err, 1e-6)
    return float(total)


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
    """Gauss-Legendre averages of fn over each cell; shape (n_cells, dim).

    fn is called once, on the (n_cells, 8) array of nodes.  It returns
    values of shape (dim, n_cells, 8), or of the nodes' shape for dim 1,
    or a constant of shape (dim,) or ().
    """
    a, b = edges[:-1, None], edges[1:, None]
    x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
    fx = np.asarray(fn(x), float)
    if fx.ndim < x.ndim:  # a constant
        fx = np.broadcast_to(fx.reshape(-1, 1, 1), (fx.size,) + x.shape)
    fx = fx.reshape((-1,) + x.shape)
    bad = ~np.all(np.isfinite(fx), axis=(0, 2))
    if np.any(bad):
        j = np.argmax(bad)
        raise ConfigError(f"integrand not finite on [{a[j, 0]}, {b[j, 0]}]")
    # one (8,) @ (8, dim) product per cell, as a loop over the cells makes
    return np.matmul(0.5 * _GL_WEIGHTS, np.ascontiguousarray(
        np.moveaxis(fx, 0, -1)))


def definite_integral(fn, s: float, t: float, paths) -> np.ndarray:
    """int_s^t fn(r) db_r via a step approximation of at most N_SUB cells.

    fn is called once, on an array of nodes (see _cell_averages).
    """
    if not -np.inf < s < t < np.inf:
        raise ConfigError("need finite s < t")
    grid = paths.grid
    n_cells = max(1, int(round((t - s) / grid.dt)))
    # align sub-cell edges with the path grid so increments are exact
    per = max(1, n_cells // N_SUB)
    edges = [s + grid.dt * per * j for j in range(n_cells // per)] + [t]
    edges = np.array(edges)
    return integrate_step(StepFunction(edges, _cell_averages(fn, edges)),
                          paths)


def check_law_symmetries(fn, t: float, ensemble, seed: int = 0):
    """Two-sample reports for the three equal-in-law integrals.

    int_0^t f(t-r) db_r, int_0^t f(r) db_r and int_{-t}^0 f(-u) db_u are
    evaluated on disjoint thirds of the ensemble so the pairwise energy
    tests compare independent samples.  The level 0.01 is
    Bonferroni-corrected across the three pairs.
    """
    _check_count("seed", seed, 0)
    grid = ensemble.grid
    if grid.t_min > -t or grid.t_max < t:
        raise ConfigError("ensemble grid must cover [-t, t]")
    n = ensemble.n_paths
    thirds = [slice(0, n // 3), slice(n // 3, 2 * n // 3), slice(2 * n // 3, n)]

    def sub(sl):
        return Ensemble(grid, ensemble.values[:, sl])

    conv = definite_integral(lambda r: fn(t - r), 0.0, t, sub(thirds[0]))
    plain = definite_integral(fn, 0.0, t, sub(thirds[1]))
    refl = definite_integral(lambda u: fn(-u), -t, 0.0, sub(thirds[2]))
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
