import math

import numpy as np
import pytest
from scipy import integrate

from volterrasim import kernels
from volterrasim.errors import QuadratureError, check_estimate
from volterrasim.integration import StepFunction, _kstar_l2_sq
from volterrasim.kernels import (
    FbmKernel,
    VolterraKernel,
    check_regularity,
    cov_R,
    cov_R_quadrature,
    fbm_cov,
    fbm_normalizing_constant,
    phi_quadrature,
)

from support import generic_fbm_clone, phi, tempered_kernel


def test_normalizing_constant_identity():
    # c_H^2 B(H - 1/2, 2 - 2H) = H (2H - 1) makes E(W_1)^2 = 1
    for H in (0.55, 0.7, 0.75, 0.9, 0.99):
        c = fbm_normalizing_constant(H) * (H - 0.5)
        B = math.exp(math.lgamma(H - 0.5) + math.lgamma(2 - 2 * H)
                     - math.lgamma(1.5 - H))
        assert c * c * B == pytest.approx(H * (2 * H - 1), rel=1e-12)


def test_fbm_kernel_fields():
    k = FbmKernel(0.75)
    assert k.alpha == pytest.approx(0.25)
    assert k.regularity_const == pytest.approx(k.c_H)
    assert k.eval(1.0, 2.0) == 0.0  # vanishes for t <= r
    assert k.eval(2.0, 1.0) > 0.0


@pytest.mark.parametrize("H", [0.51, 0.55, 0.7, 0.9, 0.97])
def test_phi_closed_form_value(H):
    k = FbmKernel(H)
    for u, v in [(1.0, 2.0), (-3.0, 0.5), (0.1, 0.10001)]:
        expected = H * (2 * H - 1) * abs(u - v) ** (2 * H - 2)
        assert phi(k, u, v) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
def test_phi_quadrature_matches_closed_form(H):
    k = FbmKernel(H)
    u, v = np.array([(0.0, 1.0), (-2.0, 3.5), (1.0, 1.01), (-5.0, -4.0)]).T
    assert phi_quadrature(k, u, v) == pytest.approx(k.phi_closed_form(u, v),
                                                    rel=1e-5)


@pytest.mark.parametrize("H", [0.51, 0.6, 0.75, 0.9, 0.99])
def test_phi_quadrature_wide_range(H):
    # gaps 1e-10 to 1e3 at offsets up to 1e3, either point the lower
    gap = np.geomspace(1e-10, 1e3, 27)
    lo = np.array([-1e3, -3.7, 0.0, 1e-6, 0.25, 42.0, 1e3])[:, None]
    u, v = np.broadcast_arrays(lo, lo + gap)
    k = FbmKernel(H)
    for a, b in ((u, v), (v, u)):
        quad = phi_quadrature(k, a, b)
        assert quad.shape == (7, 27)
        np.testing.assert_allclose(quad, k.phi_closed_form(a, b), rtol=1e-13,
                                   atol=0.0)


def test_phi_quadrature_arrays_broadcast():
    k = generic_fbm_clone(0.7)
    u = np.array([[0.0], [2.0]])
    v = np.array([1.0, -0.5, 3.0])
    quad = phi_quadrature(k, u, v)
    assert quad.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert quad[i, j] == pytest.approx(
            FbmKernel(0.7).phi_closed_form(u[i, 0], v[j]), rel=1e-13)
    scalar = phi_quadrature(k, 0.0, 1.0)
    assert np.ndim(scalar) == 0 and scalar == quad[0, 0]


def test_phi_diagonal_rejected():
    k = FbmKernel(0.7)
    with pytest.raises(ValueError):
        phi(k, 1.0, 1.0)
    with pytest.raises(ValueError):
        phi_quadrature(k, 1.0, 1.0)
    with pytest.raises(ValueError, match="off the diagonal"):
        phi_quadrature(k, [0.0, 1.0, 2.0], [1.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="off the diagonal"):
        phi_quadrature(k, np.array([[0.5], [1.0]]), np.array([1.0, 3.0]))


def test_phi_quadrature_needs_no_scalar_quad(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    monkeypatch.setattr(integrate, "quad", refuse)
    fbm = FbmKernel(0.7)
    u, v = np.array([0.3, -2.0, 5.0]), np.array([1.1, 4.0, 5.001])
    assert phi_quadrature(fbm, u, v) == pytest.approx(
        fbm.phi_closed_form(u, v), rel=1e-13)
    assert np.all(np.isfinite(phi_quadrature(
        tempered_kernel(), [0.00169, 0.004], [4.6179, 3.2])))


def test_generic_kernel_falls_back_to_quadrature():
    H = 0.7
    generic = generic_fbm_clone(H)
    closed = FbmKernel(H)
    assert generic.phi_closed_form(1.0, 2.0) is None
    assert phi(generic, 1.0, 2.0) == pytest.approx(
        closed.phi_closed_form(1.0, 2.0), rel=1e-5)


def test_cov_R_closed_form_values():
    k = FbmKernel(0.75)
    assert cov_R(k, 0, 1, 0, 1) == pytest.approx(1.0)
    k7 = FbmKernel(0.7)
    assert cov_R(k7, 0, 1, 0, 2) == pytest.approx(2.0 ** 0.4, rel=1e-12)
    # disjoint intervals, positive correlation for H > 1/2
    assert cov_R(k, 0, 1, 2, 3) > 0.0


def test_cov_R_quadrature_matches_closed_form():
    k = FbmKernel(0.7)
    for args in [(0.0, 1.0, 0.0, 1.0), (-1.0, 0.5, 0.0, 2.0)]:
        assert cov_R_quadrature(k, *args) == pytest.approx(
            k.cov_closed_form(*args), rel=1e-4)


def test_cov_R_quadrature_handles_swapped_intervals():
    k = FbmKernel(0.7)
    plain = cov_R_quadrature(k, 0.0, 1.0, 0.0, 2.0)
    swapped = cov_R_quadrature(k, 1.0, 0.0, 0.0, 2.0)
    assert swapped == pytest.approx(-plain, rel=1e-6)


def test_cov_R_quadrature_square_on_the_diagonal():
    generic = generic_fbm_clone(0.7)
    assert cov_R_quadrature(generic, 0.0, 0.5, 0.0, 0.5) == pytest.approx(
        fbm_cov(0.0, 0.5, 0.0, 0.5, 0.7), rel=1e-8)


# fbm_cov's four terms cancel, so references take them in long double
NEEDS_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 1e-18,
    reason="the reference needs extended precision")


def _generic_rectangles():
    """48 rectangles (H, s1, t1, s2, t2), 12 each at four H."""
    rng = np.random.default_rng(48)
    return [(H, *np.sort(rng.uniform(-3.0, 3.0, 2)),
             *np.sort(rng.uniform(-3.0, 3.0, 2)))
            for H in (0.55, 0.7, 0.85, 0.95) for _ in range(12)]


@NEEDS_LONG_DOUBLE
def test_cov_R_quadrature_generic_error_is_bounded_by_its_estimate(
        monkeypatch):
    # the estimate is the one cov_R_quadrature checks
    estimates = []

    def spy(what, value, estimate, rtol, atol=0.0):
        estimates.append(estimate)
        check_estimate(what, value, estimate, rtol, atol)

    monkeypatch.setattr(kernels, "check_estimate", spy)
    for H, *rect in _generic_rectangles():
        exact = float(fbm_cov(*np.array(rect, np.longdouble),
                              np.longdouble(H)))
        value = cov_R_quadrature(generic_fbm_clone(H), *rect)
        error = abs(value - exact)
        assert error <= 1e-10 * abs(exact)
        assert estimates.pop() >= error


@NEEDS_LONG_DOUBLE
def test_cov_R_quadrature_far_from_the_origin():
    # a piece 0.0019 long at r near 5000: offsets taken from r itself lose
    # 6 of their 16 digits, and tanh-sinh no longer converges on it
    rect = 5000.0 + np.array([0.0712, 0.6532, 0.0731, 0.276])
    exact = float(fbm_cov(*rect.astype(np.longdouble), np.longdouble(0.51)))
    value = cov_R_quadrature(generic_fbm_clone(0.51), *rect)
    assert value == pytest.approx(exact, rel=1e-13)


def test_cov_R_quadrature_raises_when_tanh_sinh_fails():
    # an integrand oscillating in r at frequency 1e4: no level converges
    base = FbmKernel(0.7)
    wiggly = VolterraKernel(
        alpha=base.alpha, eval=base.eval,
        deriv=lambda u, r: base.deriv(u, r) * (1.0 + 0.1 * np.sin(1e4 * r)),
        regularity_const=1.1 * base.regularity_const)
    with pytest.raises(QuadratureError, match=r"tanh-sinh status \[-2"):
        cov_R_quadrature(wiggly, 0.0, 1.0, 0.0, 1.0)


def test_cov_R_quadrature_refuses_a_nan_integrand():
    # tanh-sinh itself would put a neighbour's value in place of the NaN
    base = FbmKernel(0.7)
    holed = VolterraKernel(
        alpha=base.alpha, eval=base.eval,
        deriv=lambda u, r: np.where(u - r > 5.0, np.nan, base.deriv(u, r)),
        regularity_const=base.regularity_const)
    with pytest.raises(QuadratureError, match="not finite"):
        cov_R_quadrature(holed, 0.0, 1.0, 0.0, 1.0)


def _kstar_norm_sq(kernel, breakpoints, values):
    return _kstar_l2_sq(kernel, StepFunction(breakpoints, values))


def test_tempered_kernel_is_regular():
    pairs = [(r + d, r) for r in (-2.0, 0.0, 3.0)
             for d in np.geomspace(1e-6, 50.0, 40)]
    assert check_regularity(tempered_kernel(), pairs)["passed"]


def test_cov_R_quadrature_tempered_variance_matches_kstar():
    k = tempered_kernel()
    assert cov_R_quadrature(k, 0.0, 1.0, 0.0, 1.0) == pytest.approx(
        _kstar_norm_sq(k, [0.0, 1.0], [[1.0]]), rel=1e-8)


@pytest.mark.parametrize("rect", [(0.0, 0.5, 0.25, 0.75),
                                  (-1.0, 0.0, 0.0, 1.0)])
def test_cov_R_quadrature_tempered_matches_kstar_polarization(rect):
    # R(A, B) = (|1_A + 1_B|^2 - |1_A|^2 - |1_B|^2) / 2 in the K* norm
    k = tempered_kernel()
    s1, t1, s2, t2 = rect
    bp = sorted({s1, t1, s2, t2})
    both = [[(s1 <= lo < t1) + (s2 <= lo < t2)] for lo in bp[:-1]]
    polar = 0.5 * (_kstar_norm_sq(k, bp, both)
                   - _kstar_norm_sq(k, [s1, t1], [[1.0]])
                   - _kstar_norm_sq(k, [s2, t2], [[1.0]]))
    assert cov_R_quadrature(k, *rect) == pytest.approx(polar, rel=1e-6)


@pytest.mark.parametrize("nu, nv", [(4, 12), (6, 16)])
def test_cov_R_quadrature_tempered_far_apart(nu, nv):
    # the intervals are disjoint, so phi is smooth on the rectangle and a
    # fixed Gauss rule over phi_quadrature is a reference
    k = tempered_kernel()
    xu, wu = np.polynomial.legendre.leggauss(nu)
    xv, wv = np.polynomial.legendre.leggauss(nv)
    u, v = 0.005 * (xu + 1.0), 4.0 + xv
    ref = 0.005 * wu @ phi_quadrature(k, u[:, None], v) @ wv
    assert cov_R_quadrature(k, 0.0, 0.01, 3.0, 5.0) == pytest.approx(
        ref, rel=1e-9)


def test_check_regularity_passes_for_fbm():
    k = FbmKernel(0.8)
    pairs = [(r + d, r) for r in (-2.0, 0.0, 1.5) for d in (0.01, 1.0, 10.0)]
    report = check_regularity(k, pairs)
    assert report["passed"]
    assert report["max_ratio"] <= report["bound"] * (1 + 1e-9)


def test_check_regularity_flags_violation():
    base = FbmKernel(0.8)
    bad = VolterraKernel(alpha=base.alpha, eval=base.eval, deriv=base.deriv,
                         regularity_const=0.5 * base.c_H)
    report = check_regularity(bad, [(1.0, 0.0)])
    assert not report["passed"]


def test_check_regularity_rejects_bad_pairs():
    with pytest.raises(ValueError):
        check_regularity(FbmKernel(0.7), [(0.0, 1.0)])


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        FbmKernel(0.5)
    with pytest.raises(ValueError):
        FbmKernel(1.0)
    base = FbmKernel(0.7)
    with pytest.raises(ValueError):
        VolterraKernel(alpha=0.6, eval=base.eval, deriv=base.deriv,
                       regularity_const=1.0)
    with pytest.raises(ValueError):
        VolterraKernel(alpha=0.2, eval=base.eval, deriv=base.deriv,
                       regularity_const=0.0)
