"""Regular Volterra kernels and their two-point functions.

A kernel K(t, r) vanishes for t <= r and has a derivative in its first
argument bounded by const * (u - r)^(alpha - 1) with alpha in (0, 1/2).
The two-point function

    phi(u, v) = int_{-inf}^{min(u,v)} dK(u, r) * dK(v, r) dr

generates all increment covariances

    R(s1, t1, s2, t2) = int_{s1}^{t1} int_{s2}^{t2} phi(u, v) du dv.

The fractional-Brownian-motion kernel admits closed forms for both; a
generic kernel falls back to adaptive quadrature with explicit tail
control derived from the regularity bound.
"""

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy import integrate, special

from .errors import QuadratureError

@dataclass(frozen=True)
class VolterraKernel:
    """Generic alpha-regular Volterra kernel given by callables.

    eval(t, r) must vanish for t <= r; deriv(u, r) is dK/du for u > r and
    must satisfy |deriv(u, r)| <= regularity_const * (u - r)^(alpha - 1).
    """

    alpha: float
    eval: Callable[[float, float], float] = field(repr=False)
    deriv: Callable[[float, float], float] = field(repr=False)
    regularity_const: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if self.regularity_const <= 0:
            raise ValueError("regularity_const must be positive")

    def phi_closed_form(self, u, v):
        """Closed form of phi if the kernel has one, else None."""
        return None

    def cov_closed_form(self, s1, t1, s2, t2):
        return None


def fbm_normalizing_constant(H: float) -> float:
    """C_H with E(W_1^H)^2 = 1."""
    B = special.beta(H - 0.5, 2.0 - 2.0 * H)
    return math.sqrt(2.0 * H / ((H - 0.5) * B))


class FbmKernel(VolterraKernel):
    """Kernel of the two-sided fBm with Hurst parameter H in (1/2, 1).

    K(t, r) = C_H (t - r)^(H - 1/2) for t > r, dK/du = c_H (u - r)^(H - 3/2),
    so alpha = H - 1/2 and the regularity constant is exactly c_H.
    """

    def __init__(self, H: float):
        if not 0.5 < H < 1.0:
            raise ValueError(f"H must lie in (1/2, 1), got {H}")
        C_H = fbm_normalizing_constant(H)
        c_H = C_H * (H - 0.5)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "C_H", C_H)
        object.__setattr__(self, "c_H", c_H)
        super().__init__(
            alpha=H - 0.5,
            eval=self._eval,
            deriv=self._deriv,
            regularity_const=c_H,
        )

    def _eval(self, t, r):
        d = t - r
        return self.C_H * np.where(d > 0, np.abs(d) ** (self.H - 0.5), 0.0)

    def _deriv(self, u, r):
        return self.c_H * (u - r) ** (self.H - 1.5)

    def phi_closed_form(self, u, v):
        H = self.H
        return H * (2.0 * H - 1.0) * abs(u - v) ** (2.0 * H - 2.0)

    def cov_closed_form(self, s1, t1, s2, t2):
        return fbm_cov(s1, t1, s2, t2, self.H)


def fbm_cov(s1, t1, s2, t2, H: float):
    """E (b_t1 - b_s1)(b_t2 - b_s2) of two-sided fBm; scalars or arrays."""
    H2 = 2.0 * H
    return 0.5 * (
        abs(t1 - s2) ** H2
        + abs(t2 - s1) ** H2
        - abs(t1 - t2) ** H2
        - abs(s1 - s2) ** H2
    )


def phi_quadrature(kernel: VolterraKernel, u: float, v: float,
                   rtol: float = 1e-6) -> float:
    """phi(u, v) by quadrature in the offset variable w = min(u,v) - r.

    The integrand behaves like w^(alpha-1) at 0 and w^(2 alpha - 2) at
    infinity, so the head (0, gap) is mapped by s = w^alpha and the
    rest (gap, inf) by s = w^(2 alpha - 1); both images are bounded
    intervals on which the integrand has finite endpoint limits, so no
    truncation error is incurred even for alpha close to 1/2.

    Because deriv takes r (not the offset), r = m - w loses relative
    precision in w once w is within rounding distance of m; the exact
    realized offset m - r is recovered (the subtraction is exact there)
    and the singular factor rescaled by (w / (m - r))^(alpha - 1),
    which keeps the evaluation accurate down to arbitrarily small gaps.
    """
    if u == v:
        raise ValueError("phi is defined off the diagonal only (u != v)")
    lo, hi = (u, v) if u < v else (v, u)
    m = lo
    gap = hi - lo
    a = kernel.alpha

    # strength of the w^(alpha-1) singularity, read off one gap below m
    r_ref = m - gap
    c_sing = kernel.deriv(lo, r_ref) * (m - r_ref) ** (1.0 - a)

    def g_w(w):
        r = m - w
        wr = m - r  # exact offset actually seen by deriv
        f_hi = kernel.deriv(hi, r) * ((gap + w) / (hi - r)) ** (a - 1.0)
        if wr <= 0.0:
            return c_sing * w ** (a - 1.0) * f_hi
        return kernel.deriv(lo, r) * (w / wr) ** (a - 1.0) * f_hi

    head_limit = c_sing * kernel.deriv(hi, m) / a

    def f_head(s):  # s = w^alpha on (0, gap^alpha)
        w = s ** (1.0 / a)
        if w < 1e-280:
            return head_limit
        return g_w(w) * w ** (1.0 - a) / a

    p = 2.0 * a - 1.0  # in (-1, 0)
    w_far = max(1e6, 1e6 * (abs(u) + abs(v) + gap))
    body_limit = g_w(w_far) * w_far ** (1.0 - p) / (-p)

    def f_body(s):  # s = w^p on (0, gap^p), w from gap out to infinity
        if s < w_far ** p:
            return body_limit
        w = s ** (1.0 / p)
        return g_w(w) * w ** (1.0 - p) / (-p)

    total, err = 0.0, 0.0
    for f, upper in ((f_head, gap ** a), (f_body, gap ** p)):
        val, e = integrate.quad(f, 0.0, upper, limit=200)
        total += val
        err += e
    if err > max(rtol * abs(total), 1e-12):
        raise QuadratureError(
            "phi quadrature: error estimate above tolerance",
            value=total, estimate=err,
        )
    return total


def phi(kernel: VolterraKernel, u: float, v: float) -> float:
    """Two-point function phi(u, v); closed form when available."""
    if u == v:
        raise ValueError("phi is defined off the diagonal only (u != v)")
    closed = kernel.phi_closed_form(u, v)
    if closed is not None:
        return closed
    return phi_quadrature(kernel, u, v)


def cov_R(kernel: VolterraKernel, s1: float, t1: float,
          s2: float, t2: float) -> float:
    """Increment covariance R(s1, t1, s2, t2)."""
    closed = kernel.cov_closed_form(s1, t1, s2, t2)
    if closed is not None:
        return closed
    return cov_R_quadrature(kernel, s1, t1, s2, t2)


def cov_R_quadrature(kernel: VolterraKernel, s1, t1, s2, t2,
                     rtol: float = 1e-6) -> float:
    """R by iterated quadrature of phi over the rectangle.

    Oriented so that a swapped interval (t < s) contributes with sign,
    matching the bilinearity of R in its interval arguments.
    """
    sign = 1.0
    if t1 < s1:
        s1, t1, sign = t1, s1, -sign
    if t2 < s2:
        s2, t2, sign = t2, s2, -sign
    val, err = phi_double_integral(partial(phi, kernel), s1, t1, s2, t2)
    if err > max(rtol * abs(val), 1e-9):
        raise QuadratureError("cov_R quadrature above tolerance",
                              value=val, estimate=err)
    return sign * val


def phi_double_integral(f, s1, t1, s2, t2) -> tuple:
    """(value, outer quad error) of int_{s1}^{t1} int_{s2}^{t2} f(u, v) dv du.

    f(u, v) is a phi-weighted integrand, singular on the diagonal, so the
    inner quadrature is split at v = u.  An empty rectangle gives zero
    without evaluating f, which phi could not do at u = v.
    """
    if t1 == s1 or t2 == s2:
        return 0.0, 0.0

    def inner(u):
        pts = [u] if s2 < u < t2 else None
        val, _ = integrate.quad(partial(f, u), s2, t2, points=pts, limit=200)
        return val

    return integrate.quad(inner, s1, t1, limit=200)


def check_regularity(kernel: VolterraKernel, pairs, tol: float = 1e-9) -> dict:
    """Check |dK/du(u, r)| <= regularity_const * (u - r)^(alpha - 1) on a grid.

    pairs: iterable of (u, r) with u > r.  Returns a report dict with the
    worst ratio and a pass flag; never raises.
    """
    worst = 0.0
    worst_pair = None
    for u, r in pairs:
        if u <= r:
            raise ValueError(f"need u > r, got {(u, r)}")
        ratio = abs(kernel.deriv(u, r)) * (u - r) ** (1.0 - kernel.alpha)
        if ratio > worst:
            worst = ratio
            worst_pair = (u, r)
    passed = worst <= kernel.regularity_const * (1.0 + tol)
    return {
        "max_ratio": worst,
        "bound": kernel.regularity_const,
        "worst_pair": worst_pair,
        "passed": passed,
    }


def holder_bound_constant(kernel: VolterraKernel) -> float:
    """C with E(b_t - b_s)^2 <= C (t - s)^(1 + 2 alpha)."""
    a = kernel.alpha
    return kernel.regularity_const ** 2 * special.beta(a, 1.0 - 2.0 * a) \
        / (a * (1.0 + 2.0 * a))
