import numpy as np
import pytest
from scipy import integrate

from volterrasim import integration
from volterrasim.errors import ConfigError, ConsistencyError, \
    QuadratureError, check_estimate
from volterrasim.integration import (
    _GL_NODES,
    _GL_WEIGHTS,
    StepFunction,
    _cell_averages,
    _kstar_l2_sq,
    check_law_symmetries,
    d_norm_sq,
    definite_integral,
    integrate_step,
    kstar,
)
from volterrasim.kernels import FbmKernel, cov_R, fbm_cov
from volterrasim.processes import Ensemble, GridSpec
from volterrasim.rng import substream
from volterrasim.suites import _random_step_function

from support import phi


def isometry_suite_functions(seed):
    """The five step functions of suite_isometry(..., seed), on its grid."""
    grid = GridSpec(-2.0, 2.0, 401)
    rng = substream(seed, 202)
    out = []
    for _ in range(5):
        f = _random_step_function(rng)
        out.append(StepFunction([grid.times[grid.index_of(b)]
                                 for b in f.breakpoints], f.values))
    return out


class TestStepFunction:
    def test_vector_values(self):
        f = StepFunction([0.0, 1.0], [[1.0, 2.0]])
        assert f.dim == 2

    def test_validation(self):
        with pytest.raises(ConfigError):
            StepFunction([1.0, 0.0], [[1.0]])
        with pytest.raises(ConfigError, match="one value per interval"):
            StepFunction([0.0, 1.0, 2.0], [[1.0]])
        with pytest.raises(ConfigError):
            StepFunction([0.0, 1.0], [[np.inf]])


class TestKstar:
    def test_indicator_is_kernel_increment(self):
        k = FbmKernel(0.7)
        f = StepFunction([0.0, 1.0], [[1.0]])
        # (K* 1_[0,1))(r) = K(1, r) - K(max(0, r), r)
        assert kstar(k, f, -0.5) == pytest.approx(
            k.eval(1.0, -0.5) - k.eval(0.0, -0.5))
        assert kstar(k, f, 0.5) == pytest.approx(k.eval(1.0, 0.5))
        assert kstar(k, f, 1.5) == pytest.approx(0.0)

    def test_array_of_r_equals_scalar_calls(self):
        k = FbmKernel(0.8)
        f = StepFunction([-0.5, 0.2, 1.0, 1.7], [[1.0, 0.0], [-2.0, 1.0],
                                                  [0.5, 3.0]])
        r = np.array([[-40.0, -0.5, 0.0], [0.2, 1.3, 2.0]])
        np.testing.assert_array_equal(
            kstar(k, f, r), [[kstar(k, f, x) for x in row] for row in r])


class TestDNorm:
    def test_indicator_norm_is_variance(self):
        # ||1_[s,t)||_D^2 = E(b_t - b_s)^2 = (t-s)^(2H)
        k = FbmKernel(0.75)
        f = StepFunction([0.0, 2.0], [[1.0]])
        assert d_norm_sq(k, f) == pytest.approx(2.0 ** 1.5, rel=1e-6)

    def test_bilinearity(self):
        k = FbmKernel(0.7)
        f = StepFunction([0.0, 1.0, 2.0], [[1.0], [-2.0]])
        expected = (
            cov_R(k, 0, 1, 0, 1)
            - 4.0 * cov_R(k, 0, 1, 1, 2)
            + 4.0 * cov_R(k, 1, 2, 1, 2)
        )
        assert d_norm_sq(k, f) == pytest.approx(expected, rel=1e-6)

    def test_consistency_check_runs_both_routes(self):
        k = FbmKernel(0.7)
        f = StepFunction([-1.0, 0.5], [[1.5]])
        a = d_norm_sq(k, f, check=True)
        b = d_norm_sq(k, f, check=False)
        assert a == pytest.approx(b)

    def test_inconsistent_kernel_detected(self):
        base = FbmKernel(0.7)
        from volterrasim.kernels import VolterraKernel

        # eval and deriv that do not belong to the same kernel
        bad = VolterraKernel(
            alpha=base.alpha,
            eval=lambda t, r: 0.5 * base.eval(t, r),
            deriv=base.deriv,
            regularity_const=base.regularity_const,
        )
        f = StepFunction([0.0, 1.0], [[1.0]])
        with pytest.raises(ConsistencyError):
            d_norm_sq(bad, f, check=True)

    def test_check_passes_at_H_09(self):
        # f#3 of verify --suite isometry --seed 4: the K* route used to be
        # 1.08e-3 off here, beyond the check's 1e-3
        f = isometry_suite_functions(4)[3]
        assert d_norm_sq(FbmKernel(0.9), f, check=True) == pytest.approx(
            d_norm_sq(FbmKernel(0.9), f, check=False))

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_kstar_route_matches_cov_R(self, H):
        k = FbmKernel(H)
        for f in isometry_suite_functions(4):
            assert _kstar_l2_sq(k, f) == pytest.approx(
                d_norm_sq(k, f, check=False), rel=1e-6)

    def test_lp_embedding_bound(self):
        # ||f||_D^2 <= C ||f||_{L^p}^2 for p = 1/H; spot check for fBm
        H = 0.7
        k = FbmKernel(H)
        f = StepFunction([0.0, 0.7, 1.3, 2.0], [[1.0], [-0.5], [2.0]])
        lp_sq = np.sum(np.abs(f.values[:, 0]) ** (1.0 / H)
                       * np.diff(f.breakpoints)) ** (2.0 * H)
        assert d_norm_sq(k, f) <= 10.0 * lp_sq


def inner_product_quadrature(kernel, f, g, s1, t1, s2, t2) -> float:
    """int int <f(u), g(v)> phi(u, v) du dv over [s1,t1] x [s2,t2].

    f, g: callables returning vectors.  Oracle for E <i(f), i(g)>.  The
    inner quad is split at the diagonal v = u; its largest error times
    t1 - s1 is added to the outer error.
    """
    if t1 == s1 or t2 == s2:
        return 0.0
    inner_errs = [0.0]

    def inner(u):
        def h(v):
            return float(np.atleast_1d(f(u)) @ np.atleast_1d(g(v))) \
                * phi(kernel, u, v)

        pts = [u] if s2 < u < t2 else None
        val, e = integrate.quad(h, s2, t2, points=pts, limit=200)
        inner_errs.append(e)
        return val

    val, err = integrate.quad(inner, s1, t1, limit=200)
    err += abs(t1 - s1) * max(inner_errs)
    if err > max(1e-6 * abs(val), 1e-9):
        raise QuadratureError("inner product quadrature above tolerance",
                              value=val, estimate=err)
    return val


def kstar_l2_sq_quad(kernel, f):
    """int |K* f(r)|^2 dr by scalar quad over the support and the tail.

    The tail r = bp[0] - w is mapped by sigma = (1 + w)^(2 alpha - 1)
    onto (0, 1) and held beyond w_far, as in _kstar_l2_sq.
    """
    bp = f.breakpoints
    p = 2.0 * kernel.alpha - 1.0

    def g(r):
        w = kstar(kernel, f, r)
        return float(w @ w)

    def mapped(w):
        return g(bp[0] - w) * (1.0 + w) ** (1.0 - p) / -p

    w_far = np.sqrt((bp[-1] - bp[0]) * np.diff(bp).min()
                    / np.finfo(float).eps)
    sigma_far = (1.0 + w_far) ** p
    head = integrate.quad(g, bp[0], bp[-1], epsabs=0.0, epsrel=1e-8,
                          points=bp[1:-1] if len(bp) > 2 else None,
                          limit=200)[0]
    return head + integrate.quad(
        lambda sigma: mapped(max(sigma, sigma_far) ** (1.0 / p) - 1.0),
        0.0, 1.0, epsabs=0.0, epsrel=1e-8, limit=200)[0]


def step_functions(n=80, seed=9):
    """n step functions of 1 to 4 pieces, no piece under 5% of the span.

    The spans run from 0.1 to 20 in geometric steps, and the supports
    start anywhere in [-5, 5].
    """
    rng = np.random.default_rng(seed)
    out = []
    for span in np.geomspace(0.1, 20.0, n):
        m = int(rng.integers(1, 5))
        inner = np.sort(rng.uniform(0.0, 1.0, m - 1))
        while np.min(np.diff(np.r_[0.0, inner, 1.0])) < 0.05:
            inner = np.sort(rng.uniform(0.0, 1.0, m - 1))
        bp = rng.uniform(-5.0, 5.0) + span * np.r_[0.0, inner, 1.0]
        out.append(StepFunction(bp, rng.uniform(-2.0, 2.0, (m, 1))))
    return out


def d_norm_sq_long_double(f, H):
    """The fBm cov_R sum of d_norm_sq taken in long double."""
    bp = f.breakpoints.astype(np.longdouble)
    v = f.values[:, 0].astype(np.longdouble)
    cov = fbm_cov(bp[:-1, None], bp[1:, None], bp[None, :-1], bp[None, 1:],
                  np.longdouble(H))
    return float(v @ cov @ v)


class TestKstarL2Norm:
    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_matches_quad_route(self, H):
        k = FbmKernel(H)
        for f in isometry_suite_functions(4):
            assert _kstar_l2_sq(k, f) == pytest.approx(kstar_l2_sq_quad(k, f),
                                                       rel=1e-6)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="the reference needs extended precision")
    @pytest.mark.parametrize("H", [0.7, 0.9, 0.97])
    def test_estimate_bounds_the_error(self, monkeypatch, H):
        # the quad route's estimate fell short on 13 of these 80 at H = 0.97
        estimates = []

        def spy(what, value, estimate, rtol, atol=0.0):
            estimates.append(estimate)
            check_estimate(what, value, estimate, rtol, atol)

        monkeypatch.setattr(integration, "check_estimate", spy)
        k = FbmKernel(H)
        for f in step_functions():
            error = abs(_kstar_l2_sq(k, f) - d_norm_sq_long_double(f, H))
            assert error <= estimates.pop()


class TestInnerProductQuadrature:
    def test_matches_cov_for_indicators(self):
        k = FbmKernel(0.7)
        one = lambda u: 1.0
        val = inner_product_quadrature(k, one, one, 0.0, 1.0, 0.0, 2.0)
        assert val == pytest.approx(cov_R(k, 0, 1, 0, 2), rel=1e-5)

    def test_empty_rectangle_is_zero(self):
        one = lambda u: 1.0
        assert inner_product_quadrature(FbmKernel(0.7), one, one,
                                        0.5, 0.5, 0.0, 1.0) == 0.0

    def test_error_above_tolerance_raises(self):
        # the oscillation cancels to about 1.5e-3, and the inner errors
        # (about 7e-9) exceed 1e-6 of that
        with pytest.raises(QuadratureError):
            inner_product_quadrature(FbmKernel(0.7),
                                     lambda u: np.sin(200.0 * u),
                                     lambda v: 1.0, 0.0, 1.0, 0.0, 2.0)


class TestPathwiseIntegral:
    def test_indicator_integral_is_increment(self, fbm_ensemble):
        f = StepFunction([0.0, 1.0], [[1.0]])
        out = integrate_step(f, fbm_ensemble)
        np.testing.assert_allclose(
            out[0], fbm_ensemble.at(1.0) - fbm_ensemble.at(0.0))

    def test_one_dimensional_values_are_one_path(self):
        ens = Ensemble(GridSpec(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
        assert ens.n_paths == 1
        out = integrate_step(StepFunction([0.2, 0.7], [[1.0]]), ens)
        np.testing.assert_allclose(out, [[0.5]])

    def test_off_grid_breakpoint_rejected(self, fbm_ensemble):
        f = StepFunction([0.0, 1.0 + 0.6 * fbm_ensemble.grid.dt], [[1.0]])
        with pytest.raises(ConfigError, match="off-grid"):
            integrate_step(f, fbm_ensemble)

    def test_definite_integral_linearity(self, fbm_ensemble):
        a = definite_integral(lambda r: 2.0 * r, 0.0, 1.0, fbm_ensemble)
        b = definite_integral(lambda r: r, 0.0, 1.0, fbm_ensemble)
        np.testing.assert_allclose(a, 2.0 * b, rtol=1e-12)

    def test_constant_integrand(self, fbm_ensemble):
        out = definite_integral(lambda r: 1.0, -1.0, 1.0, fbm_ensemble)
        np.testing.assert_allclose(
            out[0], fbm_ensemble.at(1.0) - fbm_ensemble.at(-1.0), rtol=1e-10,
            atol=1e-12)

    def test_vector_integrand(self, fbm_ensemble):
        out = definite_integral(lambda r: np.array([np.ones_like(r), r]),
                                0.0, 1.0, fbm_ensemble)
        np.testing.assert_allclose(
            out, np.vstack([definite_integral(lambda r: 1.0, 0.0, 1.0,
                                              fbm_ensemble),
                            definite_integral(lambda r: r, 0.0, 1.0,
                                              fbm_ensemble)]), rtol=1e-12)

    def test_constant_vector_integrand(self, fbm_ensemble):
        out = definite_integral(lambda r: np.array([1.0, -2.0]), -1.0, 1.0,
                                fbm_ensemble)
        np.testing.assert_allclose(out, [[1.0], [-2.0]] * definite_integral(
            lambda r: 1.0, -1.0, 1.0, fbm_ensemble), rtol=1e-12)

    def test_cell_averages_match_a_loop_over_cells(self):
        edges = np.linspace(-1.0, 1.0, 33)
        fn = lambda r: np.array([np.exp(-r), 1.0 / (1.0 + r * r)])
        loop = []
        for a, b in zip(edges[:-1], edges[1:]):
            x = 0.5 * (b - a) * _GL_NODES + 0.5 * (a + b)
            loop.append(0.5 * _GL_WEIGHTS @ np.array([fn(xi) for xi in x]))
        np.testing.assert_array_equal(_cell_averages(fn, edges), loop)

    def test_non_finite_integrand_names_the_cell(self, fbm_ensemble):
        with pytest.raises(ValueError,
                           match=r"integrand not finite on \[0\.5, 0\.5\d*\]"):
            definite_integral(lambda r: np.where(r > 0.5, np.nan, r), 0.0,
                              1.0, fbm_ensemble)

    def test_window_validation(self, fbm_ensemble):
        with pytest.raises(ValueError):
            definite_integral(lambda r: 1.0, 1.0, 0.0, fbm_ensemble)


class TestIsometry:
    def test_mc_second_moment_matches_d_norm(self, fbm_ensemble):
        k = FbmKernel(0.7)
        f = StepFunction([0.0, 0.5, 1.0], [[1.0], [-1.0]])
        i_f = integrate_step(f, fbm_ensemble)[0]
        target = d_norm_sq(k, f)
        emp = np.mean(i_f ** 2)
        se = np.std(i_f ** 2) / np.sqrt(len(i_f))
        assert abs(emp - target) <= 4.0 * se


def test_law_symmetries_fbm(fbm_ensemble):
    reports = check_law_symmetries(np.exp, 1.0, fbm_ensemble, seed=11)
    assert set(reports) == {"convolution|plain", "convolution|reflected",
                            "plain|reflected"}
    assert all(r.passed for r in reports.values())


def test_law_symmetries_requires_two_sided_grid(fbm_ensemble):
    with pytest.raises(ValueError):
        check_law_symmetries(np.exp, 2.0, fbm_ensemble)
