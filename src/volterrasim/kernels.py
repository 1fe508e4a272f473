"""Regular Volterra kernels and their two-point functions.

A kernel K(t, r) vanishes for t <= r and has a derivative in its first
argument bounded by const * (u - r)^(alpha - 1) with alpha in (0, 1/2).
The two-point function

    phi(u, v) = int_{-inf}^{min(u,v)} dK(u, r) * dK(v, r) dr

generates all increment covariances

    R(s1, t1, s2, t2) = int_{s1}^{t1} int_{s2}^{t2} phi(u, v) du dv.

The fractional-Brownian-motion kernel admits closed forms for both.  For
a generic kernel, phi comes from adaptive quadrature with explicit tail
control derived from the regularity bound, and R from one integral over
r of the product of two kernel increments built from dK/du.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import integrate, special

from .errors import check_estimate, check_hurst

@dataclass(frozen=True)
class VolterraKernel:
    """Generic alpha-regular Volterra kernel given by callables.

    eval(t, r) must vanish for t <= r; deriv(u, r) is dK/du for u > r and
    must satisfy |deriv(u, r)| <= regularity_const * (u - r)^(alpha - 1).
    eval must accept an array t, and deriv an array u, with a scalar r,
    and return an array.
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
        check_hurst(H)
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


def phi_quadrature(kernel: VolterraKernel, u: float, v: float) -> float:
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
    check_estimate("phi quadrature", total, err, 1e-6, 1e-12)
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


def cov_R_quadrature(kernel: VolterraKernel, s1, t1, s2, t2) -> float:
    """R = int D(s1, t1; r) D(s2, t2; r) dr over r < min(t1, t2) (Fubini).

    D(s, t; r) = int_{max(s,r)}^t deriv(u, r) du uses deriv, never eval,
    so d_norm_sq's K* check stays independent.  One quad per piece; the
    tail r = min(s1, s2) - w is mapped by sigma = (1 + w)^(2 alpha - 1).
    The error adds the quad errors and the change under a halved inner
    rule.  A swapped interval (t < s) contributes with sign.
    """
    sign = 1.0
    if t1 < s1:
        s1, t1, sign = t1, s1, -sign
    if t2 < s2:
        s2, t2, sign = t2, s2, -sign
    if t1 == s1 or t2 == s2:
        return 0.0
    low, top = min(s1, s2), min(t1, t2)
    pts = sorted(x for x in (s1, t1, s2, t2) if x <= top)
    p = 2.0 * kernel.alpha - 1.0
    # beyond w = 1e12 the mapped tail integrand is held at its value there
    sigma_far = (1.0 + 1e12 * (1.0 + abs(low) + top - low)) ** p
    runs = []
    for nodes in (32, 16):  # the inner rule, then its order-halving probe
        rule = np.polynomial.legendre.leggauss(nodes)

        def prod(r, rule=rule):
            return _increment(kernel, s1, t1, r, rule) \
                * _increment(kernel, s2, t2, r, rule)

        def tail(sigma, prod=prod):
            w = max(sigma, sigma_far) ** (1.0 / p) - 1.0
            return prod(low - w) * (1.0 + w) ** (1.0 - p) / -p

        pieces = [(tail, 0.0, 1.0)] + [(prod, a, b) for a, b in
                                       zip(pts, pts[1:]) if b > a]
        runs.append(np.sum([integrate.quad(f, a, b, limit=200)
                            for f, a, b in pieces], axis=0))
    (val, err), (coarse, _) = runs
    err += abs(val - coarse)
    check_estimate("cov_R quadrature", val, err, 1e-6, 1e-9)
    return sign * float(val)


def _increment(kernel: VolterraKernel, s, t, r, rule) -> float:
    """D(s, t; r) for r < t, by Gauss-Legendre in x = (u - r)^alpha.

    x_hi - x_lo is formed without cancellation.  An offset that rounds to
    zero is moved to the next float above r; the realized offset u - r
    then rescales the singular factor, deriv (u - r)^(1 - alpha).
    """
    a = kernel.alpha
    lo = max(s - r, 0.0) ** a
    width = (t - r) ** a if r >= s else \
        lo * math.expm1(a * math.log1p((t - s) / (s - r)))
    x, wts = rule
    u = np.maximum(r + (lo + 0.5 * width * (x + 1.0)) ** (1.0 / a),
                   np.nextafter(r, np.inf))
    return 0.5 * width / a * (kernel.deriv(u, r) * (u - r) ** (1.0 - a)) @ wts


def check_regularity(kernel: VolterraKernel, pairs) -> dict:
    """Check |dK/du(u, r)| <= regularity_const * (u - r)^(alpha - 1) on a grid.

    pairs: iterable of (u, r) with u > r; a pair with u <= r raises
    ValueError.  Returns a report dict with the worst ratio and a pass
    flag.
    """
    worst = 0.0
    for u, r in pairs:
        if u <= r:
            raise ValueError(f"need u > r, got {(u, r)}")
        worst = max(worst, abs(kernel.deriv(u, r))
                    * (u - r) ** (1.0 - kernel.alpha))
    return {
        "max_ratio": worst,
        "bound": kernel.regularity_const,
        "passed": worst <= kernel.regularity_const * (1.0 + 1e-9),
    }

