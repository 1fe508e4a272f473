import numpy as np
import pytest

from volterrasim.errors import AlignmentError, ConsistencyError
from volterrasim.integration import (
    StepFunction,
    check_law_symmetries,
    d_norm_sq,
    definite_integral,
    inner_product_quadrature,
    integrate_step,
    kstar,
    step_approximation,
)
from volterrasim.kernels import FbmKernel, cov_R
from volterrasim.processes import Ensemble, GridSpec


class TestStepFunction:
    def test_evaluation(self):
        f = StepFunction([0.0, 1.0, 2.0], [[1.0], [3.0]])
        assert f(0.5) == pytest.approx(1.0)
        assert f(1.5) == pytest.approx(3.0)
        assert f(-0.1) == pytest.approx(0.0)
        assert f(2.0) == pytest.approx(0.0)  # right-open support

    def test_vector_values(self):
        f = StepFunction([0.0, 1.0], [[1.0, 2.0]])
        assert f.dim == 2
        np.testing.assert_allclose(f(0.5), [1.0, 2.0])

    def test_scaled(self):
        f = StepFunction([0.0, 1.0], [[2.0]])
        assert f.scaled(3.0)(0.5) == pytest.approx(6.0)

    def test_lp_norm(self):
        f = StepFunction([0.0, 2.0], [[3.0]])
        # (|3|^p * 2)^(2/p) with p = 2
        assert f.lp_norm_sq(2.0) == pytest.approx(18.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction([1.0, 0.0], [[1.0]])
        with pytest.raises(ValueError):
            StepFunction([0.0, 1.0, 2.0], [[1.0]])
        with pytest.raises(ValueError):
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

    def test_lp_embedding_bound(self):
        # ||f||_D^2 <= C ||f||_{L^p}^2 for p = 1/H; spot check for fBm
        H = 0.7
        k = FbmKernel(H)
        f = StepFunction([0.0, 0.7, 1.3, 2.0], [[1.0], [-0.5], [2.0]])
        assert d_norm_sq(k, f) <= 10.0 * f.lp_norm_sq(1.0 / H)


class TestInnerProductQuadrature:
    def test_matches_cov_for_indicators(self):
        k = FbmKernel(0.7)
        one = lambda u: 1.0
        val = inner_product_quadrature(k, one, one, 0.0, 1.0, 0.0, 2.0)
        assert val == pytest.approx(cov_R(k, 0, 1, 0, 2), rel=1e-5)


class TestPathwiseIntegral:
    def test_indicator_integral_is_increment(self, fbm_ensemble):
        f = StepFunction([0.0, 1.0], [[1.0]])
        out = integrate_step(f, fbm_ensemble)
        np.testing.assert_allclose(out[0], fbm_ensemble.increments(0.0, 1.0))

    def test_one_dimensional_values_are_one_path(self):
        ens = Ensemble(GridSpec(0.0, 1.0, 11), np.linspace(0.0, 1.0, 11))
        assert ens.n_paths == 1
        out = integrate_step(StepFunction([0.2, 0.7], [[1.0]]), ens)
        np.testing.assert_allclose(out, [[0.5]])

    def test_off_grid_breakpoint_rejected(self, fbm_ensemble):
        f = StepFunction([0.0, 1.0 + 0.6 * fbm_ensemble.grid.dt], [[1.0]])
        with pytest.raises(AlignmentError):
            integrate_step(f, fbm_ensemble)

    def test_definite_integral_linearity(self, fbm_ensemble):
        a = definite_integral(lambda r: 2.0 * r, 0.0, 1.0, fbm_ensemble)
        b = definite_integral(lambda r: r, 0.0, 1.0, fbm_ensemble)
        np.testing.assert_allclose(a, 2.0 * b, rtol=1e-12)

    def test_constant_integrand(self, fbm_ensemble):
        out = definite_integral(lambda r: 1.0, -1.0, 1.0, fbm_ensemble)
        np.testing.assert_allclose(
            out[0], fbm_ensemble.increments(-1.0, 1.0), rtol=1e-10, atol=1e-12)

    def test_window_validation(self, fbm_ensemble):
        with pytest.raises(ValueError):
            definite_integral(lambda r: 1.0, 1.0, 0.0, fbm_ensemble)


class TestStepApproximation:
    def test_converges_to_smooth_function(self):
        f = step_approximation(np.exp, 0.0, 1.0, 200)
        x = np.linspace(0.01, 0.99, 50)
        err = max(abs(f(xi)[0] - np.exp(xi)) for xi in x)
        assert err < 0.01

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            step_approximation(lambda r: np.inf, 0.0, 1.0, 8)


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
    reports = check_law_symmetries(np.exp, 1.0, fbm_ensemble, n_sub=32,
                                   seed=11)
    assert set(reports) == {"convolution|plain", "convolution|reflected",
                            "plain|reflected"}
    assert all(r.passed for r in reports.values())


def test_law_symmetries_requires_two_sided_grid(fbm_ensemble):
    with pytest.raises(ValueError):
        check_law_symmetries(np.exp, 2.0, fbm_ensemble)
