"""The package's shared checks: the Hurst range and quadrature estimates."""

import math
import re

import numpy as np
import pytest

from volterrasim import criteria, evolution, integration, kernels, processes
from volterrasim.criteria import heat_admissibility, j_quadrature, \
    shift_trace_criterion
from volterrasim.errors import ConfigError, QuadratureError, check_estimate
from volterrasim.evolution import NoiseSpec, check_H, check_limit_condition, \
    covariance_g
from volterrasim.integration import StepFunction, _kstar_l2_sq
from volterrasim.kernels import FbmKernel, cov_R_quadrature, phi_quadrature
from volterrasim.processes import CumulantSpec, GridSpec, RosenblattScheme, \
    rosenblatt_cumulant, simulate_fbm
from volterrasim.suites import default_equation

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
# rosenblatt_cumulant is at its default rtol.
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
    # at the bound, one ulp either side, and for NaN values and estimates
    if estimate > bound(value):
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
