"""The package's shared checks: the Hurst range, finiteness and counts,
quadrature estimates, and the table of every public entry's refusals."""

import inspect
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from volterrasim import blas, criteria, csvtext, diagnostics, errors, \
    evolution, integration, kernels, processes, rng, suites
from volterrasim.criteria import heat_admissibility, hs_heat_norm_sq, \
    j_closed_form, j_quadrature, shift_trace_criterion
from volterrasim.csvtext import format_rows
from volterrasim.diagnostics import energy_statistic, energy_two_sample
from volterrasim.errors import ConfigError, QuadratureError, \
    check_estimate, check_finite, check_hurst
from volterrasim.evolution import EquationSpec, NoiseSpec, check_H, \
    check_limit_condition, covariance_g, covariance_qt, hs_norm_sq, \
    sample_x_infinity, solve_mild
from volterrasim.integration import StepFunction, _kstar_l2_sq, \
    check_law_symmetries, definite_integral, kstar
from volterrasim.kernels import FbmKernel, VolterraKernel, cov_R, \
    cov_R_quadrature, fbm_cov, fbm_normalizing_constant, gauss_legendre, \
    phi_quadrature, tanhsinh_sum
from volterrasim.processes import CumulantSpec, Ensemble, GridSpec, \
    RosenblattScheme, rosenblatt_cumulant, rosenblatt_normalizer, \
    rosenblatt_sigma, rosenblatt_tail_bound, simulate, simulate_fbm, \
    simulate_rosenblatt
from volterrasim.rng import normal_matrix, path_keys, substream
from volterrasim.suites import SUITES, default_equation

from support import generic_fbm_clone

GRID = GridSpec(0.0, 1.0, 11)
UNIT = CumulantSpec(((0.0, 1.0),), (1.0,), 2)

# every public entry point that takes a Hurst parameter of its own
HURST_ENTRY_POINTS = {
    "simulate_fbm": lambda H: simulate_fbm(GRID, H, 1, 0),
    "RosenblattScheme": lambda H: RosenblattScheme(H, np.arange(40.0), 1,
                                                   1e-3),
    "RosenblattScheme.for_grid": lambda H: RosenblattScheme.for_grid(GRID, H),
    "rosenblatt_cumulant": lambda H: rosenblatt_cumulant(UNIT, H),
    "FbmKernel": FbmKernel,
    "NoiseSpec": lambda H: NoiseSpec(("fbm",), H),
    "shift_trace_criterion": lambda H: shift_trace_criterion(1.7, H),
    "heat_admissibility": lambda H: heat_admissibility(2, H),
    "j_closed_form": lambda H: j_closed_form(1.0, H),
    "j_quadrature": lambda H: j_quadrature(1.7, H),
    "fbm_cov": lambda H: fbm_cov(0, 1, 0, 1, H),
    "rosenblatt_sigma": rosenblatt_sigma,
    "rosenblatt_normalizer": rosenblatt_normalizer,
}


@pytest.mark.parametrize("H", [0.5, 1.0, math.nan])
@pytest.mark.parametrize("entry", list(HURST_ENTRY_POINTS))
def test_hurst_range_is_one_config_error(entry, H):
    message = re.escape(f"H must lie in (1/2, 1), got {H}")
    with pytest.raises(ConfigError, match=message) as info:
        HURST_ENTRY_POINTS[entry](H)
    assert isinstance(info.value, ValueError)


# Each former tolerance site: its (rtol, atol), and the right-hand side of
# "raise when err > ..." as the site wrote it before the shared check.
# rosenblatt_cumulant is at its rtol, processes.CUMULANT_RTOL.
SITES = {
    "phi_quadrature": (1e-6, 1e-12, lambda v: max(1e-6 * abs(v), 1e-12)),
    "cov_R_quadrature": (1e-6, 1e-9, lambda v: max(1e-6 * abs(v), 1e-9)),
    "_kstar_l2_sq": (1e-6, 0.0, lambda v: 1e-6 * abs(v)),
    "evolution": (1e-8, 0.0, lambda v: 1e-8 * np.max(np.abs(v))),
    "j_quadrature": (1e-3, 1e-3 * 1e-300,
                     lambda v: 1e-3 * max(abs(v), 1e-300)),
    "rosenblatt_cumulant": (5e-3, 5e-3 * 1e-12,
                            lambda v: 5e-3 * max(abs(v), 1e-12)),
}
VALUES = [1.0, -2.5, 0.0, 3e-7, 1e-305, 5e-324, math.inf, math.nan]


def _cases():
    for site, (rtol, atol, bound) in SITES.items():
        values = VALUES + ([np.array([[1.0, -4.0], [0.5, 2.0]]),
                            np.array([1.0, math.nan])]
                           if site == "evolution" else [])
        for v in values:
            b = bound(v)
            for e in (b, np.nextafter(b, math.inf), np.nextafter(b, -math.inf),
                      0.0, math.inf, math.nan):
                yield pytest.param(rtol, atol, bound, v, e,
                                   id=f"{site}-{v!r}-{e!r}".replace("\n", ""))


@pytest.mark.parametrize("rtol, atol, bound, value, estimate", _cases())
def test_check_estimate_decides_as_each_site_did(rtol, atol, bound, value,
                                                 estimate):
    # at the bound, one ulp either side, and for NaN values and estimates,
    # which now raise where the sites let them pass
    if not estimate <= bound(value):
        with pytest.raises(QuadratureError) as info:
            check_estimate("site", value, estimate, rtol, atol)
        assert info.value.value is value
        assert info.value.estimate is estimate
    else:
        check_estimate("site", value, estimate, rtol, atol)


def test_check_estimate_message_states_estimate_and_tolerance():
    with pytest.raises(QuadratureError,
                       match=r"^phi quadrature: error estimate 0\.003 above "
                             r"tolerance 0\.002$"):
        check_estimate("phi quadrature", 2000.0, 3e-3, 1e-6, 1e-12)


# each site run once within tolerance: (site, module whose check_estimate
# it calls, the call, and what of its result is the checked value and
# estimate, where the result shows them)
SPEC = default_equation(0.7)
SITE_RUNS = [
    ("phi_quadrature", kernels,
     lambda: phi_quadrature(FbmKernel(0.7), 0.3, 1.1), lambda r: (r, None)),
    ("cov_R_quadrature", kernels,
     lambda: cov_R_quadrature(FbmKernel(0.7), 0.0, 1.0, 0.5, 1.5),
     lambda r: (r, None)),
    ("_kstar_l2_sq", integration,
     lambda: _kstar_l2_sq(FbmKernel(0.7), StepFunction([0.0, 1.0], [1.0])),
     lambda r: (r, None)),
    ("evolution", evolution, lambda: covariance_g(SPEC, 1.0, 2.0), None),
    ("evolution", evolution, lambda: check_H(SPEC), lambda r: (r[0], None)),
    ("evolution", evolution, lambda: check_limit_condition(SPEC), None),
    ("j_quadrature", criteria, lambda: j_quadrature(1.7, 0.7),
     lambda r: (r.value, r.error_estimate)),
    ("rosenblatt_cumulant", processes, lambda: rosenblatt_cumulant(UNIT, 0.75),
     None),
]


@pytest.mark.parametrize("site, module, call, shown", SITE_RUNS,
                         ids=[f"{s}-{i}" for i, (s, *_) in
                              enumerate(SITE_RUNS)])
def test_each_site_checks_with_its_tolerances(monkeypatch, site, module,
                                              call, shown):
    calls = []

    def spy(what, value, estimate, rtol, atol=0.0):
        calls.append((value, estimate, rtol, atol))
        check_estimate(what, value, estimate, rtol, atol)

    monkeypatch.setattr(module, "check_estimate", spy)
    result = call()
    (value, estimate, rtol, atol), = calls
    assert (rtol, atol) == SITES[site][:2]
    if shown is not None:
        want_value, want_estimate = shown(result)
        assert value == want_value
        if want_estimate is not None:
            assert estimate == want_estimate


def _fresh_stdout(code):
    """Standard output of code run by a fresh interpreter on src/."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_light_modules_load_no_scipy():
    # the package root imports nothing, so these modules load alone
    code = ("import sys, volterrasim.errors, volterrasim.rng, "
            "volterrasim.csvtext, volterrasim.blas\n"
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    assert _fresh_stdout(code).strip() == "[]"


def test_package_loads_no_scipy_integrate_optimize_or_fft():
    # the package integrates and sizes its FFTs itself
    code = ("import importlib, pkgutil, sys, volterrasim\n"
            "for m in pkgutil.iter_modules(volterrasim.__path__):\n"
            "    importlib.import_module('volterrasim.' + m.name)\n"
            "print(sum(m.startswith('volterrasim.') for m in sys.modules))\n"
            "print([m for m in sys.modules if m.split('.')[:2] in\n"
            "       (['scipy', 'integrate'], ['scipy', 'optimize'], "
            "['scipy', 'fft'])])")
    loaded, unwanted = _fresh_stdout(code).splitlines()
    assert int(loaded) >= 11  # every module of the package
    assert unwanted == "[]"


# The refusal table: every public entry that takes caller values, run with
# each value it must refuse.  A number must not be NaN or +-inf, nor an H
# outside (1/2, 1); a count must also not be 0, -1 or fractional; a seed,
# stream or path index may be 0 but not negative or fractional; a time
# must not be negative where the entry starts at 0.  Each refusal is a
# ConfigError raised before any heavy layer runs (the heavy_layers fixture
# patches them to fail if reached).
NUMBER = (math.nan, math.inf, -math.inf)
POSITIVE = NUMBER + (0.0, -1.0)
TIME = NUMBER + (-1.0,)  # from 0
HURST = NUMBER + (0.3, 0.5, 1.0, 1.2)  # H outside (1/2, 1)
COUNT = NUMBER + (0, -1, 2.5)
INDEX = NUMBER + (-1, 2.5)

FBM = FbmKernel(0.7)
GENERIC = generic_fbm_clone(0.7)
RECT = (0.0, 1.0, 0.5, 1.5)
SCHEME = RosenblattScheme.for_grid(GRID, 0.75)
ONE_MODE = EquationSpec([1.0], [[1.0]], NoiseSpec(("fbm",), 0.7))
STATIONARY = EquationSpec([1.0], [[1.0]], NoiseSpec(("fbm",), 0.7),
                          x0="x-infinity")
_draws = np.random.default_rng(0)
PATHS = Ensemble(GridSpec(-1.0, 1.0, 21), _draws.normal(size=(21, 150)))
XS, YS = _draws.normal(size=(2, 60, 2))


def _first(x, sample=XS):
    """sample with its first value replaced by x."""
    out = sample.copy()
    out[0, 0] = x
    return out


def _edges(x):
    return np.append(np.arange(40.0), x)


# (entry and argument, the call, a value it accepts, the values it refuses);
# a stochastic suite's n_paths is good at its floor
REFUSALS = [
    ("check_hurst", check_hurst, 0.7, HURST),
    ("check_finite", lambda x: check_finite("x", [1.0, x]), 1.0, NUMBER),
    # rng
    ("path_keys seed", lambda x: path_keys(x, 0, 0, 2), 0, INDEX),
    ("path_keys stream", lambda x: path_keys(0, x, 0, 2), 0, INDEX),
    ("path_keys path_offset", lambda x: path_keys(0, 0, x, 2), 0, INDEX),
    ("path_keys n_paths", lambda x: path_keys(0, 0, 0, x), 2, INDEX),
    ("normal_matrix seed", lambda x: normal_matrix(x, 0, 4, 2), 0, INDEX),
    ("normal_matrix stream", lambda x: normal_matrix(0, x, 4, 2), 0, INDEX),
    ("normal_matrix n_rows", lambda x: normal_matrix(0, 0, x, 2), 4, INDEX),
    ("normal_matrix n_paths", lambda x: normal_matrix(0, 0, 4, x), 2, INDEX),
    ("normal_matrix path_offset", lambda x: normal_matrix(0, 0, 4, 2, x), 0,
     INDEX),
    ("substream seed", lambda x: substream(x, 0), 0, INDEX),
    ("substream stream", lambda x: substream(0, x), 0, INDEX),
    # processes
    ("GridSpec t_min", lambda x: GridSpec(x, 1.0, 11), 0.0, NUMBER),
    ("GridSpec t_max", lambda x: GridSpec(0.0, x, 11), 1.0, NUMBER),
    ("GridSpec n_points", lambda x: GridSpec(0.0, 1.0, x), 11, COUNT + (1,)),
    ("GridSpec.index_of t", GRID.index_of, 0.5, NUMBER),
    ("Ensemble.at t", PATHS.at, 0.0, NUMBER),
    ("simulate_fbm H", lambda x: simulate_fbm(GRID, x, 2, 0), 0.7, HURST),
    ("simulate_fbm n_paths", lambda x: simulate_fbm(GRID, 0.7, x, 0), 2,
     COUNT),
    ("simulate_fbm seed", lambda x: simulate_fbm(GRID, 0.7, 2, x), 0, INDEX),
    ("simulate_rosenblatt n_paths",
     lambda x: simulate_rosenblatt(GRID, SCHEME, x, 0), 2, COUNT),
    ("simulate_rosenblatt seed",
     lambda x: simulate_rosenblatt(GRID, SCHEME, 2, x), 0, INDEX),
    ("simulate H", lambda x: simulate("fbm", GRID, x, 2, 0, 0, 0, 1e-3, 4),
     0.7, HURST),
    ("simulate n_paths",
     lambda x: simulate("fbm", GRID, 0.7, x, 0, 0, 0, 1e-3, 4), 2, COUNT),
    ("simulate seed",
     lambda x: simulate("fbm", GRID, 0.7, 2, x, 0, 0, 1e-3, 4), 0, INDEX),
    ("simulate stream",
     lambda x: simulate("fbm", GRID, 0.7, 2, 0, x, 0, 1e-3, 4), 0, INDEX),
    ("simulate path_offset",
     lambda x: simulate("fbm", GRID, 0.7, 2, 0, 0, x, 1e-3, 4), 0, INDEX),
    ("simulate tail_tol",
     lambda x: simulate("rosenblatt", GRID, 0.75, 2, 0, 0, 0, x, 4), 1e-3,
     POSITIVE),
    ("simulate substeps",
     lambda x: simulate("rosenblatt", GRID, 0.75, 2, 0, 0, 0, 1e-3, x), 4,
     COUNT),
    ("rosenblatt_sigma H", rosenblatt_sigma, 0.75, HURST),
    ("rosenblatt_normalizer H", rosenblatt_normalizer, 0.75, HURST),
    ("rosenblatt_tail_bound H", lambda x: rosenblatt_tail_bound(x, 1.0, 1.0),
     0.75, HURST),
    ("RosenblattScheme H", lambda x: RosenblattScheme(x, _edges(40.0), 1,
                                                      1e-3),
     0.75, HURST),
    ("RosenblattScheme y_edges",
     lambda x: RosenblattScheme(0.75, _edges(x), 1, 1e-3), 40.0, NUMBER),
    ("RosenblattScheme substeps",
     lambda x: RosenblattScheme(0.75, _edges(40.0), x, 1e-3), 1, COUNT),
    ("RosenblattScheme tail_tol",
     lambda x: RosenblattScheme(0.75, _edges(40.0), 1, x), 1e-3, POSITIVE),
    ("RosenblattScheme.for_grid H",
     lambda x: RosenblattScheme.for_grid(GRID, x), 0.75, HURST),
    ("RosenblattScheme.for_grid tail_tol",
     lambda x: RosenblattScheme.for_grid(GRID, 0.75, x), 1e-3, POSITIVE),
    ("RosenblattScheme.for_grid substeps",
     lambda x: RosenblattScheme.for_grid(GRID, 0.75, 1e-3, x), 4, COUNT),
    ("CumulantSpec start", lambda x: CumulantSpec(((x, 1.0),), (1.0,), 2),
     0.0, NUMBER),
    ("CumulantSpec end", lambda x: CumulantSpec(((0.0, x),), (1.0,), 2),
     1.0, NUMBER),
    ("CumulantSpec theta", lambda x: CumulantSpec(((0.0, 1.0),), (x,), 2),
     1.0, NUMBER),
    ("CumulantSpec order", lambda x: CumulantSpec(((0.0, 1.0),), (1.0,), x),
     2, COUNT),
    ("rosenblatt_cumulant H", lambda x: rosenblatt_cumulant(UNIT, x), 0.75,
     HURST),
    # kernels
    ("VolterraKernel alpha",
     lambda x: VolterraKernel(x, FBM.eval, FBM.deriv, 1.0), 0.2, POSITIVE),
    ("VolterraKernel regularity_const",
     lambda x: VolterraKernel(0.2, FBM.eval, FBM.deriv, x), 1.0, POSITIVE),
    ("fbm_normalizing_constant H", fbm_normalizing_constant, 0.7, HURST),
    ("FbmKernel H", FbmKernel, 0.7, HURST),
    ("fbm_cov H", lambda x: fbm_cov(*RECT, x), 0.7, HURST),
    ("phi_quadrature u", lambda x: phi_quadrature(GENERIC, x, 1.0), 0.3,
     NUMBER),
    ("phi_quadrature v", lambda x: phi_quadrature(GENERIC, 0.3, x), 1.0,
     NUMBER),
    *[(f"{f.__name__} end {i}",
       lambda x, f=f, i=i: f(GENERIC, *RECT[:i], x, *RECT[i + 1:]), RECT[i],
       NUMBER) for f in (cov_R, cov_R_quadrature) for i in range(4)],
    ("gauss_legendre order", gauss_legendre, 8, COUNT),
    ("tanhsinh_sum a", lambda x: tanhsinh_sum("t", np.exp, x, 1.0), 0.0,
     NUMBER),
    ("tanhsinh_sum b", lambda x: tanhsinh_sum("t", np.exp, 0.0, x), 1.0,
     NUMBER),
    ("tanhsinh_sum rtol",
     lambda x: tanhsinh_sum("t", np.exp, 0.0, 1.0, rtol=x), 1e-10, POSITIVE),
    ("check_regularity u", lambda x: kernels.check_regularity(FBM, [(x, 0.0)]),
     1.0, NUMBER),
    ("check_regularity r", lambda x: kernels.check_regularity(FBM, [(1.0, x)]),
     0.0, NUMBER),
    # integration
    ("StepFunction breakpoint", lambda x: StepFunction([0.0, x], [1.0]), 1.0,
     NUMBER),
    ("StepFunction value", lambda x: StepFunction([0.0, 1.0], [x]), 1.0,
     NUMBER),
    ("definite_integral s", lambda x: definite_integral(np.exp, x, 1.0, PATHS),
     0.0, NUMBER),
    ("definite_integral t", lambda x: definite_integral(np.exp, 0.0, x, PATHS),
     1.0, NUMBER),
    ("definite_integral integrand",
     lambda x: definite_integral(lambda r: np.full_like(r, x), 0.0, 1.0,
                                 PATHS), 1.0, NUMBER),
    ("check_law_symmetries t",
     lambda x: check_law_symmetries(np.exp, x, PATHS), 1.0, NUMBER),
    ("check_law_symmetries seed",
     lambda x: check_law_symmetries(np.exp, 1.0, PATHS, x), 0, INDEX),
    # diagnostics
    ("energy_statistic samples", lambda x: energy_statistic(_first(x), YS),
     0.5, NUMBER),
    ("energy_two_sample samples",
     lambda x: energy_two_sample(XS, _first(x, YS)), 0.5, NUMBER),
    ("energy_two_sample level",
     lambda x: energy_two_sample(XS, YS, level=x), 0.01,
     POSITIVE + (1.0,)),
    ("energy_two_sample seed", lambda x: energy_two_sample(XS, YS, seed=x), 0,
     INDEX),
    # evolution
    ("NoiseSpec H", lambda x: NoiseSpec(("fbm",), x), 0.7, HURST),
    ("EquationSpec lambdas",
     lambda x: EquationSpec([x], [[1.0]], ONE_MODE.noise), 1.0, NUMBER),
    ("EquationSpec phi_matrix",
     lambda x: EquationSpec([1.0], [[x]], ONE_MODE.noise), 1.0, NUMBER),
    ("EquationSpec x0",
     lambda x: EquationSpec([1.0], [[1.0]], ONE_MODE.noise, x0=[x]), 0.5,
     NUMBER),
    ("solve_mild n_paths", lambda x: solve_mild(ONE_MODE, GRID, x, 0), 2,
     COUNT),
    ("solve_mild seed", lambda x: solve_mild(ONE_MODE, GRID, 2, x), 0, INDEX),
    ("solve_mild t_trunc",
     lambda x: solve_mild(STATIONARY, GRID, 2, 0, t_trunc=x), 2.0, POSITIVE),
    ("sample_x_infinity t_trunc",
     lambda x: sample_x_infinity(ONE_MODE, x, 2, 0), 2.0, POSITIVE),
    ("sample_x_infinity n_paths",
     lambda x: sample_x_infinity(ONE_MODE, 2.0, x, 0), 2, COUNT),
    ("sample_x_infinity seed",
     lambda x: sample_x_infinity(ONE_MODE, 2.0, 2, x), 0, INDEX),
    ("sample_x_infinity dt",
     lambda x: sample_x_infinity(ONE_MODE, 2.0, 2, 0, dt=x), 0.1, POSITIVE),
    ("covariance_qt t", lambda x: covariance_qt(ONE_MODE, x), 1.0, TIME),
    ("covariance_g r", lambda x: covariance_g(ONE_MODE, x, 1.0), 1.0, TIME),
    ("covariance_g s", lambda x: covariance_g(ONE_MODE, 1.0, x), 1.0, TIME),
    # criteria
    ("j_closed_form beta", lambda x: j_closed_form(x, 0.7), 1.7, NUMBER),
    ("j_closed_form H", lambda x: j_closed_form(1.7, x), 0.7, HURST),
    ("j_quadrature beta", lambda x: j_quadrature(x, 0.7), 1.7, NUMBER),
    ("j_quadrature H", lambda x: j_quadrature(1.7, x), 0.7, HURST),
    ("j_quadrature truncation", lambda x: j_quadrature(1.7, 0.7, x), 100.0,
     POSITIVE),
    ("shift_trace_criterion beta", lambda x: shift_trace_criterion(x, 0.7),
     1.7, NUMBER),
    ("shift_trace_criterion H", lambda x: shift_trace_criterion(1.7, x), 0.7,
     HURST),
    ("hs_heat_norm_sq d", lambda x: hs_heat_norm_sq(x, 0.01), 1, COUNT),
    ("hs_heat_norm_sq r", lambda x: hs_heat_norm_sq(1, x), 0.01, POSITIVE),
    ("heat_admissibility d", lambda x: heat_admissibility(x, 0.7), 1, COUNT),
    ("heat_admissibility H", lambda x: heat_admissibility(1, x), 0.7, HURST),
    # suites
    ("default_equation H", default_equation, 0.7, HURST),
    *[(f"{suite.__name__} {arg}", call, good, bad)
      for suite, n in ((suites.suite_isometry, SUITES["isometry"]),
                       (suites.suite_law_symmetry, SUITES["law-symmetry"]),
                       (suites.suite_stationarity, SUITES["stationarity"]),
                       (suites.suite_limit, SUITES["limit"]))
      for arg, call, good, bad in (
          ("H", lambda x, s=suite, n=n: s(x, n, 0), 0.7, HURST),
          ("n_paths", lambda x, s=suite: s(0.7, x, 0), n, COUNT + (n - 1,)),
          ("seed", lambda x, s=suite, n=n: s(0.7, n, x), 0, INDEX))],
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{entry}-{value!r}")
    for entry, call, _, bad in REFUSALS for value in bad])
def test_bad_input_is_refused_before_any_heavy_layer(heavy_layers, call,
                                                     value):
    with pytest.raises(ConfigError):
        call(value)


@pytest.mark.parametrize("call, good", [
    pytest.param(call, good, id=entry) for entry, call, good, _ in REFUSALS])
def test_the_table_refuses_only_its_bad_values(heavy_layers, call, good):
    # an accepted value returns or reaches a heavy layer: the table's
    # refusals come from the values it marks bad, not from its calls
    try:
        call(good)
    except AssertionError as exc:
        assert str(exc) == "a heavy layer ran"


# Values that go through unrefused, each with the reason; each call shows
# one going through.
ALLOWED = {
    "FbmKernel.eval and FbmKernel.deriv at NaN":
        (lambda: (FBM.eval(math.nan, 0.0), FBM.deriv(math.nan, 0.0)),
         "quadrature calls them at every node; no check enters that path"),
    "kstar at NaN":
        (lambda: kstar(FBM, StepFunction([0.0, 1.0], [1.0]), math.nan),
         "the K* norm's quadrature calls it at every node"),
    "hs_norm_sq at NaN":
        (lambda: hs_norm_sq(ONE_MODE, math.nan),
         "check_H's and check_limit_condition's quadratures call it at "
         "every node"),
    "fbm_cov, FbmKernel.phi_closed_form and FbmKernel.cov_closed_form at "
    "NaN times":
        (lambda: (fbm_cov(math.nan, 1.0, 0.0, 1.0, 0.7),
                  FBM.phi_closed_form(math.nan, 1.0),
                  FBM.cov_closed_form(math.nan, 1.0, 0.0, 1.0)),
         "closed forms on arrays of times, taken per cell pair; H is "
         "checked"),
    "rosenblatt_tail_bound at a NaN span and an infinite depth":
        (lambda: rosenblatt_tail_bound(0.75, math.nan, math.inf),
         "a closed form; H is checked"),
    "Ensemble, write_csv and format_rows with NaN values":
        (lambda: list(format_rows(Ensemble(GRID, np.full(11, math.nan))
                                  .values)),
         "they hold or write sample values as given, nan and inf as repr "
         "writes them; the energy test refuses samples that are not finite"),
    "normal_matrix and path_keys with no rows or no paths":
        (lambda: (normal_matrix(0, 0, 0, 2), normal_matrix(0, 0, 4, 0)),
         "an empty draw"),
    "j_closed_form and shift_trace_criterion at the threshold":
        (lambda: (j_closed_form(1.2, 0.7), shift_trace_criterion(1.2, 0.7)),
         "J is DIVERGENT for beta <= H + 1/2, as documented"),
    "simulate fbm with a NaN tail_tol and no substeps":
        (lambda: simulate("fbm", GRID, 0.7, 2, 0, 0, 0, math.nan, 0),
         "fbm ignores the Rosenblatt scheme's settings, as documented"),
}

# Public entries that take no numbers of the caller's
NO_CALLER_NUMBERS = {
    "check_estimate": "decides on a quadrature's value and estimate, and "
                      "raises QuadratureError",
    "TwoSampleReport": "a result record",
    "JQuadResult": "a result record",
    "through_origin": "takes a grid",
    "RosenblattScheme.tail_bound": "takes a grid",
    "Ensemble.to_csv": "takes a path",
    "VolterraKernel.phi_closed_form": "a generic kernel has none",
    "VolterraKernel.cov_closed_form": "a generic kernel has none",
    "rosenblatt_grid_covariance": "takes a grid and a scheme",
    "rosenblatt_discretization_tolerance": "takes a grid and a scheme",
    "d_norm_sq": "takes a kernel and a step function",
    "integrate_step": "takes a step function and an ensemble",
    "covariance_q_infinity": "takes a spec",
    "check_H": "takes a spec",
    "check_limit_condition": "takes a spec",
    "one_blas_thread": "takes nothing",
    "suite_kernel": "takes nothing",
    "suite_criteria": "takes nothing",
}


@pytest.mark.parametrize("entry", list(ALLOWED))
def test_allowed_values_go_through(entry):
    call, reason = ALLOWED[entry]
    assert reason
    call()


def test_the_table_covers_every_public_entry():
    # the command line is left out: argparse hands its values to these
    # entries, and tests/test_cli.py runs its bad values
    named = set(re.findall(r"[\w.]+", " ".join(
        [row[0] for row in REFUSALS] + list(HURST_ENTRY_POINTS)
        + list(ALLOWED) + list(NO_CALLER_NUMBERS))))
    entries = []
    for module in (errors, rng, csvtext, blas, processes, kernels,
                   integration, diagnostics, evolution, criteria, suites):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) \
                    or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            entries.append(name)
            if isinstance(obj, type):  # and its public methods
                entries += [
                    f"{name}.{attr}" for attr, value in vars(obj).items()
                    if not attr.startswith("_") and (
                        inspect.isfunction(value)
                        or isinstance(value, classmethod))]
    assert [e for e in entries if e not in named] == []
