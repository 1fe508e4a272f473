"""Worked examples: the shift-semigroup threshold and the heat equation.

For the left-shift semigroup with symbol phi(xi) = (1 + xi)^(-beta) the
trace of the solution covariance stays bounded iff the triple integral
J(beta, H) is finite, which happens exactly for beta > H + 1/2.  J is
evaluated two independent ways: a closed form through Gauss's sum of
2F1 at z = 1 (scipy.special.hyp2f1), and direct nested quadrature with
explicit truncation.  The stochastic heat equation on the unit box is
admissible iff d < 4H; the Hilbert-Schmidt decay exponent -d/2 of the
heat semigroup is checked against the explicit eigenvalue sums.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import check_estimate, check_hurst

DIVERGENT = math.inf


def j_closed_form(beta: float, H: float) -> float:
    """J(beta, H); returns inf when beta <= H + 1/2 (divergent).

    J factors as 2 B(2H, 2b-2H) times int_1^inf xi^(2H-2b) times
    int_0^1 z^(2H-2) 2F1(b, 2H; 2b; z) dz.  The xi factor is
    1/(2b - 2H - 1), finite iff beta > H + 1/2.  The 2F1 series has
    positive terms, so it integrates term by term; with
    (2H)_k / (2H - 1 + k) = (2H - 1)_k / (2H - 1) the z integral is
    2F1(b, 2H - 1; 2b; 1) / (2H - 1), a Gauss sum since
    c - a - b = b - 2H + 1 > 1/2.
    """
    if beta <= H:
        raise ValueError(
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


def _j_panel(beta: float, H: float, lo: float, hi: float, rule) -> float:
    """J's integral over the u panel [lo, hi], by a tensor Gauss rule.

    By symmetry J(T) = 2 int_0^T du int_0^u dv D(u, v) (u - v)^(2H-2)
    with D the xi profile int_0^inf (u+xi+1)^(-beta) (v+xi+1)^(-beta).
    The substitution sigma = (u - v)^(2H-1) absorbs the singular weight
    exactly; the half-line xi integral is mapped to (0, 1) rationally.
    rule is a Gauss-Legendre (nodes, weights) pair; the fixed-order
    tensor rule keeps the whole evaluation vectorised.
    """
    x, w = rule
    x01 = 0.5 * (x + 1.0)  # nodes on (0, 1)
    w01 = 0.5 * w
    p = 2.0 * H - 1.0
    u = lo + (hi - lo) * x01  # (order,)
    wu = (hi - lo) * w01
    sigma = np.outer(u ** p, x01)  # (order, order) on (0, u^p)
    wsig = np.outer(u ** p, w01) / p
    v = u[:, None] - sigma ** (1.0 / p)
    # xi = m t / (1 - t) with scale m = 1 + (u + v) / 2
    m = 1.0 + 0.5 * (u[:, None] + v)
    t = x01[None, None, :]
    xi = m[:, :, None] * t / (1.0 - t)
    jac = m[:, :, None] * w01[None, None, :] / (1.0 - t) ** 2
    integrand = ((u[:, None, None] + xi + 1.0)
                 * (v[:, :, None] + xi + 1.0)) ** (-beta)
    D = np.sum(integrand * jac, axis=2)
    return float(wu @ np.sum(D * wsig, axis=1))


def _j_truncated(panel, T: float, order: int = 32) -> float:
    """J over the box [0, T]^2: panel(lo, hi, order) summed over u panels.

    Geometric u panels resolve the (1 + u)-power decay.
    """
    edges = [0.0, 1.0]
    while edges[-1] < T:
        edges.append(min(4.0 * edges[-1], T))
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        total += panel(lo, hi, order)
    return 2.0 * total


def j_quadrature(beta: float, H: float,
                 truncation: float = 100.0) -> JQuadResult:
    """J(beta, H) by direct nested quadrature on [0, T]^2.

    The truncation error decays like T^(-q) with q = 2 beta - 2H - 1
    (the exponent of the divergent factor at the threshold).  Partial
    values at T, 2T, ..., 32T are accelerated by two sweeps of Aitken's
    delta-squared, which estimates the decay rate (and its first
    correction) from the data itself.  Below the threshold q <= 0 the
    partial values keep growing and the result is reported as
    non-converged; above it an error estimate over 1e-3 of the value
    raises QuadratureError.
    """
    if beta <= 0.5:
        raise ValueError("beta must exceed 1/2")
    # the truncation levels share their inner panels: each (panel, order)
    # and each order's rule is computed once
    rules, panels = {}, {}

    def panel(lo, hi, order):
        if (lo, hi, order) not in panels:
            if order not in rules:
                rules[order] = np.polynomial.legendre.leggauss(order)
            panels[lo, hi, order] = _j_panel(beta, H, lo, hi, rules[order])
        return panels[lo, hi, order]

    # a common order keeps the level differences free of rule error
    v = [_j_truncated(panel, truncation * 2.0 ** k) for k in range(6)]
    q = 2.0 * beta - 2.0 * H - 1.0
    if q <= 0.05:
        return JQuadResult(v[-1], abs(v[-1] - v[-2]), False)

    def aitken(seq):
        out = []
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            denom = c - 2.0 * b + a
            out.append(c if denom == 0.0 else c - (c - b) ** 2 / denom)
        return out

    a1 = aitken(v)
    acc = aitken(a1)
    e1, e2 = acc[-2], acc[-1]
    # rule error is largest at the widest truncation; probe it by
    # re-evaluating the top level at a higher order
    # the factor 2 covers what an order-48 probe itself cannot see
    rule_err = 2.0 * abs(
        _j_truncated(panel, truncation * 32.0, order=48) - v[-1])
    err = abs(e2 - e1) + 0.5 * abs(e2 - a1[-1]) + rule_err
    check_estimate("J quadrature (increase truncation)", e2, err, 1e-3,
                   1e-3 * 1e-300)
    return JQuadResult(e2, err, True)


def shift_trace_criterion(beta: float, H: float) -> dict:
    """Limiting-measure verdict for the left-shift semigroup example.

    The symbol is phi(xi) = (1 + xi)^(-beta) with beta > 1/2.  The
    fBm-driven equation admits a limiting measure iff J(beta, H) < inf,
    i.e. beta > H + 1/2; the Wiener-driven one needs only the
    square-integrability of phi(xi + r), i.e. beta > 1.
    sup_t Tr q_t = H (2H - 1) J(beta, H).
    """
    if beta <= 0.5:
        raise ValueError(f"beta must exceed 1/2, got {beta}")
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
    r = np.atleast_1d(np.asarray(r, float))
    if np.any(r <= 0):
        raise ValueError("need r > 0")
    # k beyond the cutoff contributes < 1e-18 relative at the smallest r
    k_max = int(math.ceil(math.sqrt(45.0 / (2.0 * math.pi ** 2 * r.min())))) + 2
    k = np.arange(1, k_max + 1)
    theta = np.exp(-2.0 * math.pi ** 2 * np.outer(r, k * k)).sum(axis=1)
    return theta ** d


def heat_admissibility(d: int, H: float) -> dict:
    """Admissibility verdict d < 4H plus the fitted HS decay exponent.

    The Dirichlet heat equation on the unit box in d = 1, 2 or 3
    dimensions has lambda_n = pi^2 |n|^2.  Samples r in [1e-4, 1e-1];
    the exponent is the log-log slope over the first decade, where the
    k = 0 lattice correction to the theta sum is negligible and the
    power law -d/2 is clean.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"d must be 1, 2 or 3, got {d}")
    check_hurst(H)
    r = np.logspace(-4, -1, 60)
    y = hs_heat_norm_sq(d, r)
    asym = r <= 1e-3
    slope = float(np.polyfit(np.log(r[asym]), np.log(y[asym]), 1)[0])
    return {
        "admissible": d < 4.0 * H,
        "fitted_exponent": slope,
        "exponent_ok": abs(slope + d / 2.0) <= 0.1,
    }
