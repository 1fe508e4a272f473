"""Regular Volterra kernels and their two-point functions.

A kernel K(t, r) vanishes for t <= r and has a derivative in its first
argument bounded by const * (u - r)^(alpha - 1) with alpha in (0, 1/2).
The two-point function

    phi(u, v) = int_{-inf}^{min(u,v)} dK(u, r) * dK(v, r) dr

generates all increment covariances

    R(s1, t1, s2, t2) = int_{s1}^{t1} int_{s2}^{t2} phi(u, v) du dv.

The fractional-Brownian-motion kernel admits closed forms for both.  For
a generic kernel, phi at any number of points comes from one tanh-sinh
call over each point's two mapped pieces, and R from one tanh-sinh
integral over r, vectorised over its pieces, of the product of two kernel
increments built from dK/du.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .errors import ConfigError, QuadratureError, _check_count, \
    check_estimate, check_finite, check_hurst

# tanh-sinh's stopping tolerance in cov_R_quadrature, its default.  The
# estimate it stops on is a heuristic, so rtol times the summed |pieces|
# is added to it.  Over 3,980 rectangles of the fBm kernel taken as a
# generic one (H 0.51 to 0.99, spans 0.001 to 40, offsets up to 5000), the
# error against an mpmath fbm_cov exceeded the rest of the estimate by at
# most 0.075 of that term.
COV_R_RTOL = np.finfo(float).eps ** 0.75
PHI_W_FAR = 1e150  # the offset beyond which phi_quadrature holds its body


@dataclass(frozen=True)
class VolterraKernel:
    """Generic alpha-regular Volterra kernel given by callables.

    eval(t, r) must vanish for t <= r; deriv(u, r) is dK/du for u > r and
    must satisfy |deriv(u, r)| <= regularity_const * (u - r)^(alpha - 1).
    eval must broadcast arrays t and r, and so must deriv arrays u and r;
    both return an array.
    """

    alpha: float
    eval: Callable[[float, float], float] = field(repr=False)
    deriv: Callable[[float, float], float] = field(repr=False)
    regularity_const: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ConfigError(f"alpha must lie in (0, 1/2), got {self.alpha}")
        if not 0.0 < self.regularity_const < math.inf:
            raise ConfigError("regularity_const must be positive and finite")

    def phi_closed_form(self, u, v):
        """Closed form of phi if the kernel has one, else None."""
        return None

    def cov_closed_form(self, s1, t1, s2, t2):
        return None


def fbm_normalizing_constant(H: float) -> float:
    """C_H with E(W_1^H)^2 = 1."""
    check_hurst(H)
    B = special.beta(H - 0.5, 2.0 - 2.0 * H)
    return math.sqrt(2.0 * H / ((H - 0.5) * B))


class FbmKernel(VolterraKernel):
    """Kernel of the two-sided fBm with Hurst parameter H in (1/2, 1).

    K(t, r) = C_H (t - r)^(H - 1/2) for t > r, dK/du = c_H (u - r)^(H - 3/2),
    so alpha = H - 1/2 and the regularity constant is exactly c_H.
    """

    def __init__(self, H: float):
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
    check_hurst(H)
    H2 = 2.0 * H
    return 0.5 * (
        abs(t1 - s2) ** H2
        + abs(t2 - s1) ** H2
        - abs(t1 - t2) ** H2
        - abs(s1 - s2) ** H2
    )


def phi_quadrature(kernel: VolterraKernel, u, v):
    """phi(u, v) by one tanh-sinh call in the offset w = min(u,v) - r.

    u and v broadcast, and the result takes their shape.  The integrand
    behaves like w^(alpha-1) at 0 and w^(2 alpha - 2) at infinity, so each
    point's head (0, gap) is mapped by s = w^alpha and its body
    (gap, inf) by s = w^(2 alpha - 1); both images are bounded intervals
    on which the integrand has finite endpoint limits, so no truncation
    error is incurred even for alpha close to 1/2.  The body is held at
    its value beyond w = PHI_W_FAR, where it is off its limit by
    O(gap / w).  Each point's estimate is checked on its own.

    Because deriv takes r (not the offset), r = lo - w loses relative
    precision in w once w is within rounding distance of lo; the exact
    realized offsets lo - r and hi - r are used instead (the subtraction
    is exact there).  The singular factor deriv(lo, r) (lo - r)^(1 - alpha)
    is read no closer to lo than 1e-15 gap, nor than the next float below
    lo: exact for a pure power, and continuous in w for any kernel.
    """
    u, v = np.broadcast_arrays(np.asarray(u, float), np.asarray(v, float))
    if np.any(u == v):
        raise ConfigError("phi is defined off the diagonal only (u != v)")
    lo, hi = np.minimum(u, v).ravel(), np.maximum(u, v).ravel()
    gap = hi - lo
    r_ref = np.minimum(lo - 1e-15 * gap, np.nextafter(lo, -np.inf))
    a = kernel.alpha
    p = 2.0 * a - 1.0  # in (-1, 0)
    is_head = np.array([[True], [False]])  # each point's two pieces

    def f(s, lo, hi, gap, r_ref, is_head):
        w = np.where(is_head, s, np.maximum(s, PHI_W_FAR ** p)) \
            ** np.where(is_head, 1.0 / a, 1.0 / p)
        r = lo - w
        r_sing = np.minimum(r, r_ref)
        sing = kernel.deriv(lo, r_sing) * (lo - r_sing) ** (1.0 - a)
        far = kernel.deriv(hi, r) * ((gap + w) / (hi - r)) ** (a - 1.0)
        return sing * far * np.where(is_head, 1.0 / a, w ** (1.0 - a) / -p)

    total, err = tanhsinh_sum("phi quadrature", f, 0.0,
                              np.where(is_head, gap ** a, gap ** p),
                              args=(lo, hi, gap, r_ref, is_head))
    for value, estimate in zip(total, err):
        check_estimate("phi quadrature", value, estimate, 1e-6, 1e-12)
    return total.reshape(u.shape)[()]


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
    so d_norm_sq's K* check stays independent.  One vectorised tanh-sinh
    call covers every piece: the tail r = min(s1, s2) - w, mapped onto
    (0, 1) by tau = 1 - (1 + w / span)^(2 alpha - 1), and the pieces
    between breakpoints, at whose ends D is singular (see tanhsinh_sum).
    The error adds tanh-sinh's estimates, the change under a halved inner
    rule and a term for what the estimate misses (COV_R_RTOL).  A swapped
    interval (t < s) contributes with sign.
    """
    check_finite("cov_R's ends", s1, t1, s2, t2)
    sign = 1.0
    if t1 < s1:
        s1, t1, sign = t1, s1, -sign
    if t2 < s2:
        s2, t2, sign = t2, s2, -sign
    if t1 == s1 or t2 == s2:
        return 0.0
    low, top = min(s1, s2), min(t1, t2)
    span = top - low
    pts = sorted(float(x) for x in (s1, t1, s2, t2) if x <= top)
    pieces = [(a, b) for a, b in zip(pts, pts[1:]) if b > a]
    # r = origin + y, with y in (0, b - a) on a piece from a to b, and
    # y = -w on the tail from low, which comes first and is mapped to tau
    origin = np.array([low] + [a for a, _ in pieces])
    length = np.array([1.0] + [b - a for a, b in pieces])
    is_tail = np.arange(len(origin)) == 0
    p = 2.0 * kernel.alpha - 1.0
    # tau puts w = 0, where D is singular, at 0, where floats are dense;
    # beyond w = 1e16 (span + |low|) the integrand is held at its value
    tau_far = -math.expm1(p * math.log1p(1e16 * (1.0 + abs(low) / span)))
    runs = []
    for nodes in (32, 16):  # the inner rule, then its order-halving probe
        x, wts = gauss_legendre(nodes)
        rule = (0.5 * (x + 1.0), 0.5 * wts)  # on (0, 1)

        def f(x, origin, length, is_tail, rule=rule):
            w = span * np.expm1(np.log1p(-np.minimum(x, tau_far)) / p)
            y = np.where(is_tail, -w, x)
            jac = np.where(is_tail, span / -p * (1.0 + w / span) ** (1.0 - p),
                           1.0)
            v = _increment(kernel, s1, t1, origin, y, rule) \
                * _increment(kernel, s2, t2, origin, y, rule) * jac
            # tanh-sinh puts a neighbour's value in place of a value that
            # is not finite; only at the ends, of weight 0, may one be
            if not np.all(np.isfinite(v)[(x > 0.0) & (x < length)]):
                raise QuadratureError("cov_R quadrature: integrand not "
                                      "finite inside a piece")
            return v

        runs.append(tanhsinh_sum(
            f"cov_R quadrature on the tail and the pieces {pieces}", f, 0.0,
            length, args=(origin, length, is_tail)))
    (val, err), (coarse, _) = runs
    check_estimate("cov_R quadrature", val, err + abs(val - coarse), 1e-6,
                   1e-9)
    return sign * float(val)


@functools.cache
def gauss_legendre(order: int):
    """Read-only Gauss-Legendre (nodes, weights) on (-1, 1), built once per order."""
    rule = np.polynomial.legendre.leggauss(_check_count("order", order))
    for a in rule:
        a.setflags(write=False)
    return rule


def tanhsinh_sum(what, f, a, b, args=(), rtol=COV_R_RTOL):
    """(sum, estimate) of one vectorised tanh-sinh call over its pieces.

    The pieces run along the first axis of the broadcast shape of a, b
    and args; further axes stay in the sum.  Limits must be finite with
    a <= b, else ConfigError.  A piece that tanh-sinh did not converge on
    raises QuadratureError.  The call stops no earlier than level 4: at
    levels 2 and 3 its estimate fell below the error by up to 500 times
    on cov_R's pieces and 35,000 times on check_limit_condition's.  The
    estimate is a heuristic even so, and rtol times the summed |pieces|
    is added to it (see COV_R_RTOL).  The engine, _tanhsinh, is a port of
    scipy.integrate.tanhsinh that gives its bits.
    """
    if not np.all(np.less(-np.inf, a) & np.less_equal(a, b)
                  & np.less(b, np.inf)):
        raise ConfigError(f"{what}: limits must be finite with a <= b")
    if not 0.0 < rtol < np.inf:
        raise ConfigError(f"{what}: rtol must be positive and finite")
    integral, error, status = _tanhsinh(f, a, b, args, rtol)
    if np.any(status != 0):
        raise QuadratureError(
            f"{what}: tanh-sinh status {status.tolist()}",
            value=integral.sum(axis=0), estimate=error.sum(axis=0))
    return integral.sum(axis=0), error.sum(axis=0) \
        + rtol * np.abs(integral).sum(axis=0)


def _ts_level(k):
    """Level k's abscissa complements 1 - x_j and weights on (-1, 1): all
    j at level 0, j = 0 at half weight, and the odd j above it."""
    jh = (np.arange(9) if k == 0 else np.arange(1, 8 * 2 ** k + 1, 2)) \
        * (_TS_H0 / 2 ** k)
    u2 = np.pi / 2 * np.sinh(jh)
    w = np.pi / 2 * np.cosh(jh) / np.cosh(u2) ** 2
    w[0] /= 2 if k == 0 else 1
    return 1 / (np.exp(u2) * np.cosh(u2)), w


# the base step: 8 steps reach where 1 - x_j falls to 4 least normal
# floats; then the pairs of levels 0 to 10, and where each level starts
_TS_H0 = math.asinh(math.log(2 / (4 * np.finfo(float).tiny) - 1) / math.pi) / 8
_TS_XJC, _TS_W = map(np.concatenate, zip(*map(_ts_level, range(11))))
_TS_CUT = np.cumsum([0, 9] + [4 * 2 ** k for k in range(1, 11)])


def _tanhsinh(f, a, b, args, rtol):
    """(integral, error, status) of each piece, in the broadcast shape.

    A port of scipy.integrate.tanhsinh (scipy 1.17.1, after Takahasi &
    Mori, Publ. RIMS 9 (1974), with the error estimate of Bailey,
    Jeyabalan & Li, Exp. Math. 14 (2005)) that gives its bits for finite
    a <= b, real f, levels 4 to 10 and atol 0.  f gets (pieces, points)
    arrays and args of shape (pieces, 1), and only the pieces not yet
    converged go on to the next level.  A value that is not finite, or
    whose weight is 0, is replaced by the value at the incumbent extreme
    abscissa on its side.  Status 0 is converged, -2 not converged by
    level 10, -3 a sum that is not finite or a NaN at the midpoint.
    """
    shape = np.broadcast_shapes(*map(np.shape, (a, b, *args)))
    a, b = (np.broadcast_to(np.asarray(v, float), shape).reshape(-1, 1)
            for v in (a, b))
    args = [np.broadcast_to(v, shape).reshape(-1, 1) for v in args]
    eps = np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nan = np.isnan(np.asarray(f((a + b) / 2, *args), float)).reshape(-1)
        val = np.where(nan, np.nan, 0.0)
        err = val.copy()
        status = np.where(a[:, 0] == b[:, 0], 0, np.where(nan, -3, -2))
        act = np.flatnonzero(status == -2)
        a, b, *args = (v[act] for v in (a, b, *args))
        # per side (right, left): the extreme valid abscissa so far, as x
        # and -x, with its value and weight; and the last two sums
        inc = np.zeros((3, len(act), 2)) + [[[-np.inf]], [[np.nan]], [[0]]]
        past = np.zeros((len(act), 2))
        for level in range(4, 11):
            if not len(act):
                break
            cut = slice(_TS_CUT[level] if level > 4 else 0, _TS_CUT[level + 1])
            half = (b - a) / 2
            x = np.concatenate((b - half * _TS_XJC[cut],
                                a + half * _TS_XJC[cut]), axis=-1)
            w = np.concatenate((_TS_W[cut] * half,) * 2, axis=-1)
            w[(x <= a) | (x >= b)] = 0
            fx = np.asarray(f(x, *args), float).reshape(len(act), 2, -1)
            w = w.reshape(fx.shape)
            bad = ~np.isfinite(fx) | (w == 0)
            key = np.where(bad, -np.inf, x.reshape(fx.shape) * [[1], [-1]])
            i = key.argmax(axis=-1)[..., None]
            now = np.stack([np.take_along_axis(v, i, -1)[..., 0]
                            for v in (key, fx, w)])
            inc = np.where(now[0] > inc[0], now, inc)
            fw = np.where(bad, inc[1, ..., None], fx) * w
            h = _TS_H0 / 2 ** level
            S = fw.reshape(len(act), -1).sum(axis=-1) * h
            if level == 4:  # the sums of levels 3 and 2 from the same points
                past = np.stack([fw[..., :_TS_CUT[k]].reshape(len(act), -1)
                                 .sum(axis=-1) * (2 ** (5 - k) * h)
                                 for k in (3, 4)], axis=-1)
            else:
                S = past[:, 1] / 2 + S
            d1, d2 = np.abs(S - past[:, 1]), np.abs(S - past[:, 0])
            ds = [np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0),
                  d1 ** 2, eps * np.abs(fw).max(axis=(1, 2)),
                  np.abs(inc[1] * inc[2]).max(axis=-1)]
            aerr = np.clip(np.max(ds, axis=0), eps * np.abs(S), d1)
            val[act], err[act] = S, aerr
            status[act[aerr / np.abs(S) < rtol]] = 0
            status[act[(status[act] == -2) & ~np.isfinite(S)]] = -3
            go = status[act] == -2
            act, a, b, *args = (v[go] for v in (act, a, b, *args))
            inc, past = inc[:, go], np.stack([past[:, 1], S], axis=-1)[go]
    return val.reshape(shape), err.reshape(shape), status.reshape(shape)


def _increment(kernel: VolterraKernel, s, t, origin, y, rule):
    """D(s, t; r) at r = origin + y < t, by Gauss-Legendre in (u - r)^alpha.

    origin and y are arrays; the offsets s - r and t - r are formed from
    s - origin and y, so they keep their precision however far r is from
    0.  rule holds nodes and weights on (0, 1), whose axis is last.
    x_hi - x_lo is formed without cancellation or overflow.  An offset
    that rounds to zero is moved to the next float above r; the realized
    offset u - r then rescales the singular factor, deriv (u - r)^(1 - alpha).
    """
    a = kernel.alpha
    origin, y = origin[..., None], y[..., None]
    d = (s - origin) - y
    below = d > 0.0
    lo = np.where(below, d, 0.0) ** a
    # log1p((t - s) / d), whose ratio overflows as d -> 0
    log1p_q = np.logaddexp(0.0, np.log(t - s)
                           - np.log(np.where(below, d, 1.0)))
    width = np.where(below, lo * np.expm1(a * log1p_q),
                     ((t - origin) - y) ** a)
    r = origin + y
    x, wts = rule
    u = np.maximum(r + (lo + width * x) ** (1.0 / a), np.nextafter(r, np.inf))
    return (width / a)[..., 0] \
        * ((kernel.deriv(u, r) * (u - r) ** (1.0 - a)) @ wts)


def check_regularity(kernel: VolterraKernel, pairs) -> dict:
    """Check |dK/du(u, r)| <= regularity_const * (u - r)^(alpha - 1) on a grid.

    pairs: iterable of finite (u, r) with u > r; another pair raises
    ConfigError.  Returns a report dict with the worst ratio and a pass
    flag.
    """
    worst = 0.0
    for u, r in pairs:
        if not -math.inf < r < u < math.inf:
            raise ConfigError(f"need finite u > r, got {(u, r)}")
        worst = max(worst, abs(kernel.deriv(u, r))
                    * (u - r) ** (1.0 - kernel.alpha))
    return {
        "max_ratio": worst,
        "bound": kernel.regularity_const,
        "passed": worst <= kernel.regularity_const * (1.0 + 1e-9),
    }

