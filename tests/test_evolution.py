import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from volterrasim import evolution, suites
from volterrasim.blas import one_blas_thread
from volterrasim.errors import ConfigError, QuadratureError
from volterrasim.evolution import (
    EquationSpec,
    NoiseSpec,
    check_H,
    check_limit_condition,
    covariance_g,
    covariance_q_infinity,
    covariance_qt,
    hs_norm_sq,
    sample_x_infinity,
    solve_mild,
)
from volterrasim.kernels import fbm_cov
from volterrasim.processes import GridSpec, simulate
from volterrasim.suites import default_equation, suite_limit


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


def g_quad_vec(spec, r, s):
    """covariance_g by adaptive quad_vec over sigma, one matrix per node.

    The same integral over sigma = sign(w) |w|^(2H-1), split at 0 and at
    the kink w = r - s, with the whole array at each node.
    """
    H = spec.noise.H
    p = 2.0 * H - 1.0
    lam_i, lam_j = spec.lambdas[:, None], spec.lambdas[None, :]
    mass = evolution._exp_mass(lam_i, r) * evolution._exp_mass(lam_j, s)

    def f(sigma):
        w = math.copysign(abs(sigma) ** (1.0 / p), sigma)
        a, b = max(0.0, w), min(r, s + w)
        return np.exp(-lam_i * (r - b) - lam_j * (s + w - b)) \
            * evolution._exp_mass(lam_i + lam_j, b - a) / mass

    kink = math.copysign(abs(r - s) ** p, r - s)
    val, _ = integrate.quad_vec(f, -s ** p, r ** p, epsabs=0.0, epsrel=1e-12,
                                norm="max", points=[0.0, kink])
    return (spec.phi_matrix @ spec.phi_matrix.T) * H * mass * val


def hs_power_quad(spec, upper):
    """int_0^upper |S(r) Phi|_HS^(2/(1+2 alpha)) dr by scalar quad."""
    p = 1.0 / (1.0 + 2.0 * spec.noise.alpha)
    return integrate.quad(lambda r: float(hs_norm_sq(spec, r)) ** p, 0.0,
                          upper, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def heat_spec(H):
    """The 1-d Dirichlet heat equation's first four modes, Phi = I."""
    return EquationSpec((np.pi * np.arange(1, 5)) ** 2, np.eye(4),
                        NoiseSpec(("fbm",) * 4, H))


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
        EquationSpec([0.0], [[1.0]], noise)  # a zero mode has a mild solution

    @pytest.mark.parametrize("x0", [
        [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]], "bogus", "x-Infinity", "1.5",
        [1.0, math.nan], [math.inf, 0.0], ["a", "b"], [1j, 0.0], {1.0: 2.0}],
        ids=repr)
    def test_bad_x0_refused_at_construction(self, x0):
        # solve_mild used to find these only after simulating the noise
        with pytest.raises(ConfigError, match="x0 must be None, 'x-infinity' "
                                              "or 2 finite values"):
            EquationSpec([0.5, 2.0], [[1.0], [1.0]], NoiseSpec(("fbm",), 0.7),
                         x0=x0)

    def test_x0_stored_read_only(self):
        noise = NoiseSpec(("fbm",), 0.7)
        given = np.array([1.0, -2.0])
        spec = EquationSpec([0.5, 2.0], [[1.0], [1.0]], noise, x0=given)
        assert spec.x0.tolist() == [1.0, -2.0]
        assert not spec.x0.flags.writeable and given.flags.writeable
        assert unit_spec(x0=3.0).x0.tolist() == [3.0]
        assert unit_spec(x0="x-infinity").x0 == "x-infinity"
        assert unit_spec().x0 is None

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
        spec = EquationSpec([0.0], [[1.0]], NoiseSpec(("fbm",), 0.7))
        val, ok = check_limit_condition(spec)
        assert not ok
        assert val == math.inf

    @pytest.mark.parametrize("check", [check_H, check_limit_condition])
    def test_large_quadrature_estimate_raises(self, check, monkeypatch):
        def coarse_quad(what, f, a, b, **kwargs):
            return 1.0, 1e-6

        monkeypatch.setattr(evolution, "tanhsinh_sum", coarse_quad)
        with pytest.raises(QuadratureError) as info:
            check(unit_spec())
        assert info.value.estimate == 1e-6

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_default_equation_within_tolerance(self, H):
        spec = default_equation(H)
        assert check_H(spec)[1]
        assert check_limit_condition(spec)[1]
        # a stiff mode: quad's default absolute tolerance was 1e-6 of this
        assert check_H(unit_spec(H, 500.0))[1]


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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            covariance_g(unit_spec(), -1.0, 1.0)

    @pytest.mark.parametrize("r, s", [(math.nan, 1.0), (1.0, math.nan),
                                      (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_time_refused_before_quadrature(self, monkeypatch,
                                                       r, s):
        def never(*args, **kwargs):
            raise AssertionError("quadrature reached")

        monkeypatch.setattr(evolution, "tanhsinh_sum", never)
        with pytest.raises(ConfigError, match="need finite r, s >= 0"):
            covariance_g(unit_spec(), r, s)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_qt_at_non_finite_time_refused(self, t):
        with pytest.raises(ConfigError, match="need finite r, s >= 0"):
            covariance_qt(unit_spec(), t)


class TestAgainstQuadOracles:
    """The tanh-sinh routes against the adaptive quad routes they replaced."""

    @pytest.mark.parametrize("r, s", [(0.5, 2.0), (2.0, 0.5), (1.0, 1.0),
                                      (1e-6, 1.0), (1.0, 1e-6), (3.0, 3.0)])
    @pytest.mark.parametrize("spec", [default_equation(0.7), two_mode_spec(),
                                      heat_spec(0.55), heat_spec(0.9)],
                             ids=["default", "two-mode", "heat-0.55",
                                  "heat-0.9"])
    def test_covariance_g_matches_quad_vec(self, spec, r, s):
        np.testing.assert_allclose(covariance_g(spec, r, s),
                                   g_quad_vec(spec, r, s), rtol=1e-10)

    @pytest.mark.parametrize("spec", [default_equation(0.7), heat_spec(0.55),
                                      heat_spec(0.9), unit_spec(0.9, 500.0)],
                             ids=["default", "heat-0.55", "heat-0.9",
                                  "stiff"])
    def test_hypothesis_integrals_match_quad(self, spec):
        assert check_H(spec)[0] == pytest.approx(hs_power_quad(spec, 1.0),
                                                 rel=1e-12)
        t_star = max(1.0, 5.0 / spec.lambdas.min())
        tail = hs_norm_sq(spec, t_star) ** (1.0 / (2.0 * spec.noise.H)) \
            / (spec.lambdas.min() / spec.noise.H)
        assert check_limit_condition(spec)[0] == pytest.approx(
            hs_power_quad(spec, t_star) + tail, rel=1e-12)

    def test_hs_norm_takes_arrays(self):
        spec = two_mode_spec()
        r = np.array([[0.0, 0.3], [1.0, 7.0]])
        np.testing.assert_array_equal(
            hs_norm_sq(spec, r), [[hs_norm_sq(spec, x) for x in row]
                                  for row in r])


class TestCovarianceExact:
    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_q_long_time_is_stationary_covariance(self, H):
        # q_inf[i, j] = (Phi Phi^T)_ij H (2H-1) Gamma(2H-1)
        #               (lam_i^(1-2H) + lam_j^(1-2H)) / (lam_i + lam_j);
        # at t = 40 the rest is of order exp(-lam_min t) = 2e-9
        spec = default_equation(H)
        li, lj = spec.lambdas[:, None], spec.lambdas[None, :]
        q_inf = (spec.phi_matrix @ spec.phi_matrix.T) \
            * H * (2 * H - 1) * math.gamma(2 * H - 1) \
            * (li ** (1 - 2 * H) + lj ** (1 - 2 * H)) / (li + lj)
        np.testing.assert_allclose(covariance_qt(spec, 40.0), q_inf,
                                   rtol=1e-7)

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    def test_q_infinity_is_the_long_time_limit(self, H):
        spec = two_mode_spec(H)
        q_inf = covariance_q_infinity(spec)
        np.testing.assert_allclose(covariance_qt(spec, 60.0), q_inf,
                                   rtol=1e-8)
        np.testing.assert_allclose(
            np.diag(q_inf), H * math.gamma(2 * H) * spec.lambdas ** (-2 * H)
            * np.sum(spec.phi_matrix ** 2, axis=1), rtol=1e-13)

    def test_q_infinity_needs_positive_lambdas(self):
        spec = EquationSpec([0.0, 1.0], [[1.0], [1.0]],
                            NoiseSpec(("fbm",), 0.7))
        with pytest.raises(ConfigError):
            covariance_q_infinity(spec)

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.9])
    @pytest.mark.parametrize("lam", [500.0, 5000.0])
    def test_stiff_mode(self, lam, H):
        q = covariance_qt(unit_spec(H, lam), 2.0)[0, 0]
        assert q == pytest.approx(H * math.gamma(2 * H) * lam ** (-2 * H),
                                  rel=1e-10)

    def test_zero_mode_is_fbm_variance(self):
        H, t = 0.7, 1.7
        spec = EquationSpec([0.0], [[1.0]], NoiseSpec(("fbm",), H))
        assert covariance_qt(spec, t)[0, 0] == pytest.approx(t ** (2 * H),
                                                             rel=1e-10)

    def test_zero_time_gives_zeros(self):
        spec = two_mode_spec()
        assert np.array_equal(covariance_g(spec, 0.0, 1.0), np.zeros((2, 2)))
        assert np.array_equal(covariance_g(spec, 1.0, 0.0), np.zeros((2, 2)))


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


def cpu_flag(name):
    """Whether /proc/cpuinfo lists the CPU feature name; False where it
    cannot be read."""
    try:
        with open("/proc/cpuinfo") as fh:
            return name in fh.read().split()
    except OSError:
        return False


@one_blas_thread()
def reference_convolution(spec, times, grid, n_paths, seed):
    """_convolve_noise by its first formula: np.diff of every component's
    simulate, then sums with n outer and k inner.  Its GEMMs run at one
    BLAS thread, as _convolve_noise's do."""
    deltas = [np.diff(simulate(fam, grid, spec.noise.H, n_paths, seed, k, 0,
                               evolution.TAIL_TOL, evolution.SUBSTEPS).values,
                      axis=0)
              for k, fam in enumerate(spec.noise.families)]
    out = np.zeros((len(times), spec.n_modes, n_paths))
    for n, lam in enumerate(spec.lambdas):
        A = evolution._exp_cell_averages(lam, times, grid.times)
        for k, db in enumerate(deltas):
            coef = spec.phi_matrix[n, k]
            if coef != 0.0:
                out[:, n, :] += coef * (A @ db)
    return out


def mixed_spec(x0=None):
    """Three modes, fbm and Rosenblatt components, a dense Phi with one 0."""
    phi = [[1.0, 0.5, -0.3], [0.0, 2.0, 0.7], [0.4, -1.0, 1.5]]
    return EquationSpec([0.5, 1.0, 3.0], phi,
                        NoiseSpec(("fbm", "rosenblatt", "fbm"), 0.72), x0=x0)


class TestStreamedConvolution:
    """One noise component at a time gives the bytes of all at once."""

    @pytest.mark.parametrize("x0", [None, [1.0, -2.0, 0.5], "x-infinity"])
    def test_solve_mild_bytes(self, x0):
        grid = GridSpec(0.0, 1.5, 76)
        sol = solve_mild(mixed_spec(x0), grid, 70, seed=9, t_trunc=3.0)
        sim_grid = grid
        if x0 == "x-infinity":
            sim_grid = GridSpec(-3.0, 1.5, 226)
        ref = reference_convolution(mixed_spec(), grid.times, sim_grid, 70, 9)
        if x0 is not None and x0 != "x-infinity":
            decay = np.exp(-np.outer(grid.times, mixed_spec().lambdas))
            ref += (decay * np.array(x0)[None, :])[:, :, None]
        assert sol.values.tobytes() == ref.tobytes()

    @pytest.mark.skipif(not cpu_flag("avx2"),
                        reason="OpenBLAS's Haswell kernels need AVX2")
    def test_solve_mild_bytes_under_haswell_blas_kernels(self):
        # OpenBLAS picks its GEMM kernels by CPU; under Haswell's, a
        # reference run at two threads rounded otherwise than the solver at
        # one.  The setting acts only on the child process.
        test = (f"{os.path.abspath(__file__)}::TestStreamedConvolution::"
                "test_solve_mild_bytes[x-infinity]")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
                   OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-m", "pytest", "-q",
                              "-p", "no:cacheprovider", test], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stdout

    def test_grid_without_zero(self):
        # simulate() samples on the grid continued to t = 0 and cuts it back
        grid = GridSpec(0.5, 2.0, 31)
        times = np.linspace(0.5, 2.0, 7)
        out = evolution._convolve_noise(mixed_spec(), times, grid, 70, 2)
        ref = reference_convolution(mixed_spec(), times, grid, 70, 2)
        assert out.tobytes() == ref.tobytes()

    def test_memory_does_not_grow_with_components(self):
        # traced peak less the output: 1.9 MiB with 2 fbm components and
        # 4.2 MiB with 8 when every component was held, 2.5 MiB for both
        # one at a time; a component here is 0.39 MiB
        grid = GridSpec(0.0, 1.0, 201)
        extra = {}
        for K in (2, 8):
            spec = EquationSpec([1.0, 3.0], np.ones((2, K)),
                                NoiseSpec(("fbm",) * K, 0.7))
            tracemalloc.start()
            try:
                sol = solve_mild(spec, grid, 256, seed=3)
                extra[K] = tracemalloc.get_traced_memory()[1] \
                    - sol.values.nbytes
            finally:
                tracemalloc.stop()
        assert extra[8] - extra[2] < 2 * 201 * 256 * 8

    def test_bytes_independent_of_blas_threads(self):
        # the convolution is a GEMM, whose reduction order OpenBLAS picks by
        # shape and thread count: unheld, 2 threads moved the last bits of
        # this solve_mild
        code = (
            "import hashlib, numpy as np\n"
            "from volterrasim.evolution import sample_x_infinity, solve_mild\n"
            "from volterrasim.processes import GridSpec\n"
            "from volterrasim.suites import default_equation\n"
            "spec = default_equation(0.7, x0='x-infinity')\n"
            "a = solve_mild(spec, GridSpec(0.0, 2.0, 201), 32, 1, 2.0)\n"
            "b = sample_x_infinity(spec, 5.0, 32, 2)\n"
            "print(hashlib.md5(a.values.tobytes() + b.tobytes()).hexdigest())\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        digests = {
            threads: subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                    PYTHONPATH=os.path.abspath(src))).stdout
            for threads in ("1", "2")}
        assert digests["1"] == digests["2"]


class TestXInfinity:
    def test_variance_matches_closed_form(self):
        spec = unit_spec()
        z = sample_x_infinity(spec, t_trunc=15.0, n_paths=3000, seed=9)
        H = 0.7
        q_inf = H * (2 * H - 1) * math.gamma(2 * H - 1)
        se = np.std(z[0] ** 2) / np.sqrt(z.shape[1])
        assert abs(z[0].var() - q_inf) <= 4.0 * se + 0.02

    def test_requires_limit_condition(self):
        spec = EquationSpec([0.0], [[1.0]], NoiseSpec(("fbm",), 0.7))
        with pytest.raises(ConfigError):
            sample_x_infinity(spec, t_trunc=5.0, n_paths=10, seed=0)


class TestTruncationInputs:
    """Bad truncation inputs, and a stationary start where x_infinity does
    not exist, are refused before any noise is simulated."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def fail(*args):
            raise AssertionError("noise simulated")

        monkeypatch.setattr(evolution, "_convolve_noise", fail)

    @pytest.mark.parametrize("t_trunc", [0.0, 1e-9, -1.0, math.nan, math.inf])
    def test_solve_mild_t_trunc(self, t_trunc):
        # 0 and 1e-9 used to drop the past: every value at t = 0 was 0.0
        with pytest.raises(ConfigError, match="t_trunc"):
            solve_mild(unit_spec(x0="x-infinity"), GridSpec(0.0, 1.0, 11),
                       200, seed=1, t_trunc=t_trunc)

    def test_stationary_start_requires_limit_condition(self):
        # a zero mode has a mild solution but no x_infinity to start from;
        # the path would be labelled stationary and not be
        spec = EquationSpec([0.0, 1.0], [[1.0], [1.0]],
                            NoiseSpec(("fbm",), 0.7), x0="x-infinity")
        with pytest.raises(ConfigError, match="x_infinity undefined"):
            solve_mild(spec, GridSpec(0.0, 1.0, 11), 10, seed=0)

    @pytest.mark.parametrize("t_trunc, dt", [
        (25.0, -0.1), (25.0, 100.0), (25.0, 0.0), (25.0, math.nan),
        (25.0, math.inf), (math.nan, 0.01), (math.inf, 0.01), (0.0, 0.01),
        (-1.0, 0.01)])
    def test_sample_x_infinity_t_trunc_and_dt(self, t_trunc, dt):
        # dt -0.1 and 100 used to give one 25-unit cell, variance 0.155
        # against q_inf 0.62
        with pytest.raises(ConfigError, match="t_trunc"):
            sample_x_infinity(unit_spec(), t_trunc, 200, 1, dt=dt)

    @pytest.mark.parametrize("lambdas", [[math.nan, 1.0], [1.0, math.inf],
                                         [math.nan, math.inf]])
    def test_non_finite_lambdas(self, lambdas):
        with pytest.raises(ConfigError, match="finite"):
            EquationSpec(lambdas, [[1.0], [1.0]], NoiseSpec(("fbm",), 0.7))


class TestStreamedMemory:
    """The solvers hold one block of paths, not a whole noise component."""

    def test_x_infinity_grows_with_the_grid_by_one_block(self):
        # traced peak less the output on 256 paths, t_trunc 5 and 40:
        # 3.1 and 23.6 MiB with a whole component held, 1.3 and 9.9 MiB
        # with one block of PATH_BLOCK paths
        spec = default_equation(0.7)
        extra = {}
        for t_trunc in (5.0, 40.0):
            tracemalloc.start()
            try:
                z = sample_x_infinity(spec, t_trunc, 256, seed=1)
                extra[t_trunc] = tracemalloc.get_traced_memory()[1] - z.nbytes
            finally:
                tracemalloc.stop()
        assert extra[40.0] - extra[5.0] < 14 * 2 ** 20

    def test_solve_mild_does_not_grow_with_paths(self):
        # traced peak less the output, 256 and 2048 paths: it grew by
        # 3.2 MiB with a whole component held, and by 0 streamed
        spec = EquationSpec([1.0, 3.0], np.ones((2, 2)),
                            NoiseSpec(("fbm", "fbm"), 0.7))
        extra = {}
        for n in (256, 2048):
            tracemalloc.start()
            try:
                sol = solve_mild(spec, GridSpec(0.0, 1.0, 101), n, seed=3)
                extra[n] = tracemalloc.get_traced_memory()[1] \
                    - sol.values.nbytes
            finally:
                tracemalloc.stop()
        assert extra[2048] - extra[256] < 1.6 * 2 ** 20


class TestLimitSuite:
    def test_wrongly_scaled_x_infinity_fails(self, monkeypatch):
        # criterion 7's call, with the target law made 1.3 times too wide
        def scaled(*args, **kwargs):
            return 1.3 * sample_x_infinity(*args, **kwargs)

        assert suite_limit(0.7, 600, seed=76)[0]
        monkeypatch.setattr(suites, "sample_x_infinity", scaled)
        ok, lines = suite_limit(0.7, 600, seed=76)
        assert not ok
        assert lines[-1].endswith("FAIL")


def test_rosenblatt_driven_solution_runs():
    spec = EquationSpec([1.0], [[1.0]], NoiseSpec(("rosenblatt",), 0.75))
    grid = GridSpec(0.0, 1.0, 21)
    sol = solve_mild(spec, grid, 200, seed=3)
    assert sol.values.shape == (21, 1, 200)
    assert np.isfinite(sol.values).all()
