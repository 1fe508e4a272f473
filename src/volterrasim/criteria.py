"""Worked examples: the shift-semigroup threshold and the heat equation.

For the left-shift semigroup with symbol phi(xi) = (1 + xi)^(-beta) the
trace of the solution covariance stays bounded iff the triple integral
J(beta, H) is finite, which happens exactly for beta > H + 1/2.  J is
evaluated two independent ways: a closed form through Gauss's sum of
2F1 at z = 1 (scipy.special.hyp2f1), and direct quadrature over a
truncated box, extrapolated in the truncation, whose Gauss-Jacobi and
log-mapped rules fit each axis's singular weight and scales.  The
stochastic heat equation on the unit box is admissible iff d < 4H; the
Hilbert-Schmidt decay exponent -d/2 of the heat semigroup is checked
against the explicit eigenvalue sums.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ConfigError, _check_count, check_estimate, check_finite, \
    check_hurst
from .kernels import gauss_legendre

DIVERGENT = math.inf


def j_closed_form(beta: float, H: float) -> float:
    """J(beta, H); returns inf when beta <= H + 1/2 (divergent).

    J factors as 2 B(2H, 2b-2H) times int_1^inf xi^(2H-2b) times
    int_0^1 z^(2H-2) 2F1(b, 2H; 2b; z) dz.  The xi factor is
    1/(2b - 2H - 1), finite iff beta > H + 1/2.  The 2F1 series has
    positive terms, so it integrates term by term; with
    (2H)_k / (2H - 1 + k) = (2H - 1)_k / (2H - 1) the z integral is
    2F1(b, 2H - 1; 2b; 1) / (2H - 1), a Gauss sum since
    c - a - b = b - 2H + 1 > 1/2.  A beta that is not finite or not
    above H, and an H outside (1/2, 1), raise ConfigError.
    """
    check_finite("beta", beta)
    check_hurst(H)
    if beta <= H:
        raise ConfigError(
            "closed form requires beta > H; use j_quadrature below that")
    if beta <= H + 0.5:
        return DIVERGENT
    pref = 2.0 * special.beta(2.0 * H, 2.0 * beta - 2.0 * H)
    xi_factor = 1.0 / (2.0 * beta - 2.0 * H - 1.0)
    z_integral = special.hyp2f1(beta, 2.0 * H - 1.0, 2.0 * beta, 1.0) \
        / (2.0 * H - 1.0)
    return float(pref * xi_factor * z_integral)


@dataclass(frozen=True)
class JQuadResult:
    value: float
    error_estimate: float
    converged: bool


# the value's rule order, and the coarser order its rule term compares with
J_ORDERS = (10, 8)


def _jacobi01(order: int, a: float):
    """Gauss-Jacobi (nodes, weights) on (0, 1) for the weight y^a, a > -1.

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the
    eigenvalues of the Jacobi matrix of the weight, the recurrence of
    the Jacobi polynomials P_n^(0, a)(2y - 1), and each weight is the
    weight's total 1/(a + 1) times the square of the first component of
    the node's unit eigenvector.  Unlike special.roots_jacobi, numpy's
    eigh loads no scipy.linalg.
    """
    n = np.arange(1.0, order)
    s = 2.0 * n + a
    diag = np.concatenate([[a / (a + 2.0)], a * a / (s * (s + 2.0))])
    off = n * (n + a) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    y, v = np.linalg.eigh(np.diag(0.5 * (1.0 + diag)) + np.diag(off, -1))
    return y, v[0] ** 2 / (a + 1.0)


def _aitken(seq):
    """One sweep of Aitken's delta-squared over consecutive triples."""
    out = []
    for a, b, c in zip(seq, seq[1:], seq[2:]):
        denom = c - 2.0 * b + a
        out.append(c if denom == 0.0 else c - (c - b) ** 2 / denom)
    return out


def _j_levels(beta: float, H: float, truncation: float,
              order: int) -> np.ndarray:
    """J over [0, T 2^k]^2, k = 0..5, T = truncation, by one tensor rule.

    By symmetry J(T) = 2 int_0^T du int_0^u dv D(u, v) (u - v)^(2H-2),
    D(u, v) = int_0^inf (u+xi+1)^(-beta) (v+xi+1)^(-beta) dxi.  Each axis
    is split where its integrand changes scale, and each piece gets an
    order-`order` rule that absorbs its singular or decaying factor.
    u: Gauss-Jacobi with weight u^(2H-1) on [0, 1], where the inner
    integral behaves so, then Gauss-Legendre in log u on the panels
    1, 4, 16, ..., T, 2T, ..., 32T that the six levels share.  v:
    Gauss-Jacobi in w = u - v with weight w^(2H-2) on [u/2, u]; below
    u/2, where D varies on the scale v + 1, v = (1 + u/2)^s - 1.  xi:
    below u + 1 the log map xi + v + 1 = (v + 1) r^s with
    r = (u + v + 2)/(v + 1) covers the scales v + 1 and u + 1; above it
    xi = (u + 1)/t leaves Gauss-Jacobi with weight t^(2 beta - 2).
    """
    p = 2.0 * H - 1.0
    x, w = gauss_legendre(order)
    s, ws = 0.5 * (x + 1.0), 0.5 * w  # Gauss-Legendre on (0, 1)
    edges = [1.0]
    while edges[-1] < truncation:
        edges.append(min(4.0 * edges[-1], truncation))
    edges += [truncation * 2.0 ** k for k in range(1, 6)]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    log_ratio = np.log(hi / lo)[:, None]
    u_log = lo[:, None] * np.exp(log_ratio * s)
    u0, w0 = _jacobi01(order, p)
    u = np.concatenate([u0, u_log.ravel()])
    wu = np.concatenate([w0 / u0 ** p, (ws * u_log * log_ratio).ravel()])
    uc = u[:, None]
    # v: columns below u/2, then the near-diagonal ones
    L = np.log1p(0.5 * uc)
    v_far = np.expm1(L * s)
    xw, ww = _jacobi01(order, p - 1.0)  # w = (u/2) xw
    v = np.hstack([v_far, uc * (1.0 - 0.5 * xw)])
    wv = np.hstack([ws * (v_far + 1.0) * L * (uc - v_far) ** (p - 1.0),
                    ww * (0.5 * uc) ** p])
    # xi below u + 1, with y = xi + v + 1; above it xi = (u + 1)/t
    b = (v + 1.0)[:, :, None]
    lr = np.log1p((uc + 1.0) / (v + 1.0))
    y = b * np.exp(lr[:, :, None] * s)
    D = lr * (((y * (y + (uc - v)[:, :, None])) ** -beta * y) @ ws)
    t, wt = _jacobi01(order, 2.0 * beta - 2.0)
    f = ((t + 1.0) * (b * t + (uc + 1.0)[:, :, None])) ** -beta
    D += (uc + 1.0) ** (1.0 - beta) * (f @ wt)
    inner = np.sum(D * wv, axis=1)
    return 2.0 * np.cumsum((wu * inner).reshape(-1, order).sum(axis=1))[-6:]


def j_quadrature(beta: float, H: float,
                 truncation: float = 100.0) -> JQuadResult:
    """J(beta, H) by direct quadrature on [0, T]^2, without hypergeometrics.

    The truncation error decays like T^(-q) with q = 2 beta - 2H - 1
    (the exponent of the divergent factor at the threshold).  Partial
    values at T, 2T, ..., 32T (`_j_levels`) are accelerated by two sweeps
    of Aitken's delta-squared, which estimates the decay rate (and its
    first correction) from the data itself.  The error estimate adds the
    spread of the last sweeps to a rule term: twice the distance to the
    same extrapolation on the coarser rule of `J_ORDERS`.  Below the
    threshold q <= 0 the partial values keep growing and the result is
    reported as non-converged; above it an error estimate over 1e-3 of
    the value raises QuadratureError.  beta <= 1/2, H outside (1/2, 1),
    a non-finite beta and a truncation that is not finite or below 1
    raise ConfigError.
    """
    if not 0.5 < beta < math.inf:
        raise ConfigError(f"beta must be finite and exceed 1/2, got {beta}")
    check_hurst(H)
    if not 1.0 <= truncation < math.inf:
        raise ConfigError(
            f"truncation must be finite and at least 1, got {truncation}")
    fine, coarse = J_ORDERS
    v = _j_levels(beta, H, truncation, fine)
    q = 2.0 * beta - 2.0 * H - 1.0
    if q <= 0.05:
        return JQuadResult(float(v[-1]), float(abs(v[-1] - v[-2])), False)
    a1 = _aitken(v)
    acc = _aitken(a1)
    e1, e2 = acc[-2], acc[-1]
    # the factor 2 covers what the coarser rule itself cannot see
    rule_err = 2.0 * abs(
        _aitken(_aitken(_j_levels(beta, H, truncation, coarse)))[-1] - e2)
    err = abs(e2 - e1) + 0.5 * abs(e2 - a1[-1]) + rule_err
    check_estimate("J quadrature (increase truncation)", e2, err, 1e-3,
                   1e-3 * 1e-300)
    return JQuadResult(float(e2), float(err), True)


def shift_trace_criterion(beta: float, H: float) -> dict:
    """Limiting-measure verdict for the left-shift semigroup example.

    The symbol is phi(xi) = (1 + xi)^(-beta) with beta > 1/2.  The
    fBm-driven equation admits a limiting measure iff J(beta, H) < inf,
    i.e. beta > H + 1/2; the Wiener-driven one needs only the
    square-integrability of phi(xi + r), i.e. beta > 1.
    sup_t Tr q_t = H (2H - 1) J(beta, H).
    """
    if not 0.5 < beta < math.inf:
        raise ConfigError(f"beta must be finite and exceed 1/2, got {beta}")
    check_hurst(H)
    # the 2F1 reduction needs beta > H; below it J diverges too
    j = j_closed_form(beta, H) if beta > H else DIVERGENT
    return {
        "exists": beta > H + 0.5,
        "wiener_exists": beta > 1.0,
        "sup_trace": H * (2.0 * H - 1.0) * j,
    }


def hs_heat_norm_sq(d: int, r) -> np.ndarray:
    """|S(r)|_HS^2 = (sum_{k>=1} exp(-2 pi^2 k^2 r))^d on the unit box."""
    _check_count("d", d)
    r = np.atleast_1d(np.asarray(r, float))
    if not np.all((r > 0.0) & (r < np.inf)):
        raise ConfigError("need finite r > 0")
    # k beyond the cutoff contributes < 1e-18 relative at the smallest r
    k_max = int(math.ceil(math.sqrt(45.0 / (2.0 * math.pi ** 2 * r.min())))) + 2
    k = np.arange(1, k_max + 1)
    theta = np.exp(-2.0 * math.pi ** 2 * np.outer(r, k * k)).sum(axis=1)
    return theta ** d


@functools.cache
def _hs_decay_exponent(d: int) -> float:
    """Fitted log-log slope of |S(r)|_HS^2 in d dimensions; depends on d only.

    Samples r in [1e-4, 1e-1]; the exponent is the slope over the first
    decade, where the k = 0 lattice correction to the theta sum is
    negligible and the power law -d/2 is clean.
    """
    r = np.logspace(-4, -1, 60)
    y = hs_heat_norm_sq(d, r)
    asym = r <= 1e-3
    return float(np.polyfit(np.log(r[asym]), np.log(y[asym]), 1)[0])


def heat_admissibility(d: int, H: float) -> dict:
    """Admissibility verdict d < 4H plus the fitted HS decay exponent.

    The Dirichlet heat equation on the unit box in d = 1, 2 or 3
    dimensions has lambda_n = pi^2 |n|^2; the exponent is fitted once per d.
    """
    if d not in (1, 2, 3):
        raise ConfigError(f"d must be 1, 2 or 3, got {d}")
    check_hurst(H)
    slope = _hs_decay_exponent(d)
    return {
        "admissible": d < 4.0 * H,
        "fitted_exponent": slope,
        "exponent_ok": abs(slope + d / 2.0) <= 0.1,
    }
