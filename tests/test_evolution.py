import math

import numpy as np
import pytest

from volterrasim.errors import ConfigError
from volterrasim.evolution import (
    EquationSpec,
    NoiseSpec,
    check_H,
    check_limit_condition,
    covariance_g,
    covariance_qt,
    hs_norm_sq,
    load_equation_config,
    mean_square_increment,
    sample_x_infinity,
    solve_mild,
    x_infinity_truncation_error,
)
from volterrasim.kernels import fbm_cov
from volterrasim.processes import GridSpec


def unit_spec(H=0.7, lam=1.0, x0=None):
    """One mode, one fbm component, Phi = 1."""
    return EquationSpec([lam], [[1.0]], NoiseSpec(("fbm",), H), x0=x0)


def two_mode_spec(H=0.7):
    return EquationSpec([0.5, 2.0], [[1.0, 0.0], [0.5, 0.5]],
                        NoiseSpec(("fbm", "fbm"), H))


def g_cell_sum(spec, r, s, cells=2000):
    """g(r, s) as a sum over cell pairs of [0, r] x [0, s].

    Each pair carries the fBm increment covariance of its two cells and
    the cell averages of exp(-lambda_i (r - u)) and exp(-lambda_j (s - v)).
    """
    lam = spec.lambdas[:, None]

    def averages(t):
        e = np.linspace(0.0, t, cells + 1)
        w = (np.exp(-lam * (t - e[1:])) - np.exp(-lam * (t - e[:-1]))) \
            / (lam * np.diff(e))
        return e, w

    eu, wu = averages(r)
    ev, wv = averages(s)
    cov = fbm_cov(eu[:-1, None], eu[1:, None], ev[None, :-1], ev[None, 1:],
                  spec.noise.H)
    gram = spec.phi_matrix @ spec.phi_matrix.T
    return gram * (wu @ cov @ wv.T)


@pytest.fixture(scope="module")
def solved_unit():
    spec = unit_spec()
    grid = GridSpec(0.0, 2.0, 81)
    return spec, solve_mild(spec, grid, 2000, seed=42)


class TestSpecs:
    def test_noise_validation(self):
        with pytest.raises(ConfigError):
            NoiseSpec((), 0.7)
        with pytest.raises(ConfigError):
            NoiseSpec(("brownian",), 0.7)
        with pytest.raises(ConfigError):
            NoiseSpec(("fbm",), 0.5)

    def test_equation_validation(self):
        noise = NoiseSpec(("fbm",), 0.7)
        with pytest.raises(ConfigError):
            EquationSpec([1.0], [[1.0, 2.0]], noise)  # Phi shape
        with pytest.raises(ConfigError):
            EquationSpec([-1.0], [[1.0]], noise)
        with pytest.raises(ConfigError):
            EquationSpec([0.0], [[1.0]], noise)  # zero mode needs opt-in
        EquationSpec([0.0], [[1.0]], noise, allow_unstable=True)

    def test_alpha(self):
        assert NoiseSpec(("fbm",), 0.8).alpha == pytest.approx(0.3)


class TestClosedForms:
    def test_hs_norm(self):
        spec = EquationSpec([1.0, 2.0], [[1.0], [3.0]],
                            NoiseSpec(("fbm",), 0.7))
        expected = math.exp(-2.0) + 9.0 * math.exp(-4.0)
        assert hs_norm_sq(spec, 1.0) == pytest.approx(expected)

    def test_check_H_unit(self):
        # int_0^1 e^{-2 lam r/(2H)} dr = H (1 - e^{-1/H}) / lam for lam/H
        H = 0.7
        val, ok = check_H(unit_spec(H))
        assert ok
        expected = H * (1.0 - math.exp(-1.0 / H))
        assert val == pytest.approx(expected, rel=1e-9)

    def test_limit_condition_unit(self):
        # int_0^inf e^{-r/H} dr = H exactly for lam = 1, Phi = 1
        H = 0.7
        val, ok = check_limit_condition(unit_spec(H))
        assert ok
        assert val == pytest.approx(H, rel=1e-6)

    def test_limit_condition_zero_phi(self):
        spec = EquationSpec([1.0], [[0.0]], NoiseSpec(("fbm",), 0.7))
        val, ok = check_limit_condition(spec)
        assert ok and val == 0.0

    def test_limit_condition_unstable_mode(self):
        spec = EquationSpec([0.0], [[1.0]], NoiseSpec(("fbm",), 0.7),
                            allow_unstable=True)
        val, ok = check_limit_condition(spec)
        assert not ok
        assert val == math.inf

    def test_truncation_error_formula(self):
        H, lam, T = 0.7, 1.0, 5.0
        spec = unit_spec(H, lam)
        expected = (H * (2 * H - 1) * math.gamma(2 * H - 1)
                    * lam ** (-2 * H) * math.exp(-2 * lam * T))
        assert x_infinity_truncation_error(spec, T) == pytest.approx(expected)


class TestCovarianceOracles:
    def test_qt_symmetry_and_positivity(self):
        spec = two_mode_spec()
        q = covariance_qt(spec, 1.0)
        np.testing.assert_allclose(q, q.T, rtol=1e-8)
        assert np.all(np.linalg.eigvalsh(q) > -1e-10)

    @pytest.mark.parametrize("spec", [unit_spec(), two_mode_spec(H=0.8)],
                             ids=["unit", "two-mode"])
    def test_g_matches_cell_sum(self, spec):
        np.testing.assert_allclose(covariance_g(spec, 0.5, 2.0),
                                   g_cell_sum(spec, 0.5, 2.0), rtol=1e-6)

    def test_g_at_equal_times_is_qt(self):
        spec = unit_spec()
        np.testing.assert_allclose(covariance_g(spec, 1.0, 1.0),
                                   covariance_qt(spec, 1.0), rtol=1e-8)

    def test_mean_square_increment_positive(self):
        spec = unit_spec()
        assert mean_square_increment(spec, 0.5, 1.0) > 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            covariance_g(unit_spec(), -1.0, 1.0)


class TestSolveMild:
    def test_zero_start(self, solved_unit):
        _, sol = solved_unit
        assert np.all(sol.at(0.0) == 0.0)

    def test_variance_matches_quadrature(self, solved_unit):
        spec, sol = solved_unit
        for t in (0.5, 2.0):
            x = sol.at(t)[0]
            q = covariance_qt(spec, t)[0, 0]
            se = np.std(x * x) / np.sqrt(len(x))
            assert abs(x.var() - q) <= 4.0 * se + 0.01

    def test_cross_covariance_matches_quadrature(self, solved_unit):
        spec, sol = solved_unit
        x, y = sol.at(0.5)[0], sol.at(2.0)[0]
        g = covariance_g(spec, 0.5, 2.0)[0, 0]
        se = np.std(x * y) / np.sqrt(len(x))
        assert abs(np.mean(x * y) - g) <= 4.0 * se + 0.01

    def test_deterministic_x0_decay(self):
        spec = unit_spec(lam=2.0, x0=[3.0])
        grid = GridSpec(0.0, 1.0, 11)
        sol = solve_mild(spec, grid, 50, seed=1)
        drift = sol.at(1.0)[0].mean()
        se = sol.at(1.0)[0].std() / np.sqrt(50)
        assert abs(drift - 3.0 * math.exp(-2.0)) <= 4.0 * se

    def test_stiff_mode_does_not_overflow(self):
        spec = unit_spec(lam=500.0)
        sol = solve_mild(spec, GridSpec(0.0, 2.0, 21), 5, seed=1)
        assert np.isfinite(sol.values).all()

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ConfigError):
            solve_mild(unit_spec(), GridSpec(-1.0, 1.0, 21), 10, seed=0)

    def test_stationary_start_variance_flat(self):
        spec = unit_spec(x0="x-infinity")
        grid = GridSpec(0.0, 2.0, 41)
        sol = solve_mild(spec, grid, 3000, seed=7, t_trunc=15.0)
        H = 0.7
        q_inf = H * (2 * H - 1) * math.gamma(2 * H - 1)
        for t in (0.0, 1.0, 2.0):
            x = sol.at(t)[0]
            se = np.std(x * x) / np.sqrt(len(x))
            assert abs(x.var() - q_inf) <= 4.0 * se + 0.02


class TestXInfinity:
    def test_variance_matches_closed_form(self):
        spec = unit_spec()
        z = sample_x_infinity(spec, t_trunc=15.0, n_paths=3000, seed=9)
        H = 0.7
        q_inf = H * (2 * H - 1) * math.gamma(2 * H - 1)
        se = np.std(z[0] ** 2) / np.sqrt(z.shape[1])
        assert abs(z[0].var() - q_inf) <= 4.0 * se + 0.02

    def test_requires_limit_condition(self):
        spec = EquationSpec([0.0], [[1.0]], NoiseSpec(("fbm",), 0.7),
                            allow_unstable=True)
        with pytest.raises(ConfigError):
            sample_x_infinity(spec, t_trunc=5.0, n_paths=10, seed=0)


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(
            "[equation]\n"
            "schema = 1\n"
            "lambdas = 0.5 1.0\n"
            "phi = 1 0; 0.5 0.5\n"
            "x0 = x-infinity\n"
            "[noise]\n"
            "H = 0.8\n"
            "families = fbm rosenblatt\n"
        )
        spec = load_equation_config(cfg)
        assert spec.n_modes == 2
        assert spec.noise.families == ("fbm", "rosenblatt")
        assert spec.x0 == "x-infinity"
        np.testing.assert_allclose(spec.phi_matrix, [[1, 0], [0.5, 0.5]])

    def test_vector_x0(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(
            "[equation]\nlambdas = 1.0\nphi = 2\nx0 = 0.25\n"
            "[noise]\nH = 0.7\nfamilies = fbm\n")
        spec = load_equation_config(cfg)
        np.testing.assert_allclose(spec.x0, [0.25])

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_equation_config(tmp_path / "nope.cfg")

    def test_bad_schema(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(
            "[equation]\nschema = 2\nlambdas = 1\nphi = 1\n"
            "[noise]\nH = 0.7\nfamilies = fbm\n")
        with pytest.raises(ConfigError):
            load_equation_config(cfg)

    def test_malformed_phi(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(
            "[equation]\nlambdas = 1\nphi = abc\n"
            "[noise]\nH = 0.7\nfamilies = fbm\n")
        with pytest.raises(ConfigError):
            load_equation_config(cfg)


def test_rosenblatt_driven_solution_runs():
    spec = EquationSpec([1.0], [[1.0]], NoiseSpec(("rosenblatt",), 0.75))
    grid = GridSpec(0.0, 1.0, 21)
    sol = solve_mild(spec, grid, 200, seed=3)
    assert sol.values.shape == (21, 1, 200)
    assert np.isfinite(sol.values).all()
