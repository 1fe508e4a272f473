"""The tanh-sinh engine against scipy.integrate.tanhsinh, whose algorithm it
ports: the same bits at each call site and on edge cases, and the limits
it refuses."""

import numpy as np
import pytest
from scipy import integrate

from volterrasim import kernels
from volterrasim.errors import ConfigError, QuadratureError
from volterrasim.evolution import EquationSpec, NoiseSpec, check_H, \
    check_limit_condition, covariance_g, covariance_qt
from volterrasim.integration import StepFunction, _kstar_l2_sq
from volterrasim.kernels import COV_R_RTOL, FbmKernel, cov_R_quadrature, \
    phi_quadrature, tanhsinh_sum

from support import generic_fbm_clone, tempered_kernel


def scipy_tanhsinh(f, a, b, args=(), rtol=COV_R_RTOL):
    res = integrate.tanhsinh(f, a, b, args=args, rtol=rtol, minlevel=4)
    return res.integral, res.error, res.status


def assert_same_bits(got, ref):
    (val, err, status), (ref_val, ref_err, ref_status) = got, ref
    assert status.shape == np.shape(ref_status)
    assert np.array_equal(status, ref_status)
    assert val.tobytes() == np.asarray(ref_val, float).tobytes()
    assert err.tobytes() == np.asarray(ref_err, float).tobytes()


@pytest.fixture
def calls(monkeypatch):
    """Each engine call made meanwhile, as (port's, scipy's) results."""
    made = []
    port = kernels._tanhsinh

    def both(f, a, b, args, rtol):
        got = port(f, a, b, args, rtol)
        made.append((got, scipy_tanhsinh(f, a, b, args, rtol)))
        return got

    monkeypatch.setattr(kernels, "_tanhsinh", both)
    return made


def two_mode_spec():
    return EquationSpec([0.5, 2.0], [[1.0, 0.0], [0.5, 0.5]],
                        NoiseSpec(("fbm", "fbm"), 0.7))


# each call site of tanhsinh_sum on its own integrand, with its call count
SITES = {
    "phi": (lambda: phi_quadrature(tempered_kernel(), [0.00169, 0.004, 1.0],
                                   [4.6179, 3.2, -2.0]), 1),
    "cov_R": (lambda: cov_R_quadrature(generic_fbm_clone(0.7),
                                       -1.0, 0.5, 0.0, 2.0), 2),
    "kstar": (lambda: _kstar_l2_sq(
        FbmKernel(0.7), StepFunction([0.0, 0.5, 2.0], [[1.0], [-2.0]])), 1),
    "covariance_g": (lambda: covariance_g(two_mode_spec(), 0.7, 0.3), 1),
    "check_H": (lambda: check_H(two_mode_spec()), 1),
    "check_limit_condition": (lambda: check_limit_condition(two_mode_spec()),
                              1),
}


@pytest.mark.parametrize("site", SITES)
def test_each_site_gets_scipys_bits(calls, site):
    run, n_calls = SITES[site]
    run()
    assert len(calls) == n_calls
    for got, ref in calls:
        assert_same_bits(got, ref)


def test_covariance_qt_has_an_empty_piece_and_scipys_bits(calls):
    # r = s puts the kink at 0, so the second of the three pieces is empty
    covariance_qt(two_mode_spec(), 0.5)
    (got, ref), = calls
    assert_same_bits(got, ref)
    val, err, status = got
    assert np.all(val[1] == 0.0) and np.all(err[1] == 0.0)
    assert np.all(status == 0)


def test_divergent_piece_is_status_minus_2_and_raises(calls):
    with pytest.raises(QuadratureError, match=r"status \[-2, -2\]"):
        tanhsinh_sum("1/x", lambda x: 1.0 / x, 0.0, [1.0, 2.0])
    (got, ref), = calls
    assert_same_bits(got, ref)


EDGES = {
    "divergent": (lambda x: 1.0 / x, 0.0, [1.0, 2.0], ()),
    "nan at the midpoint": (lambda x: np.where(x == 0.5, np.nan, x),
                            0.0, [1.0], ()),
    "nan inside": (lambda x: np.where(abs(x - 0.3) < 1e-3, np.nan,
                                      np.sin(x)), 0.0, [1.0], ()),
    "empty pieces": (lambda x: x * x, [0.0, 1.0, 2.0], [0.0, 1.0, 3.0], ()),
    "endpoint singularity": (lambda x: x ** -0.5, 0.0, [1.0, 2.0], ()),
    "oscillating": (lambda x: np.sin(200.0 * x), 0.0, [1.0], ()),
    "3-D pieces": (lambda x, c, d: np.exp(-c * x) * d,
                   np.zeros((3, 1, 1)), np.arange(1.0, 4.0)[:, None, None],
                   (np.arange(1.0, 5.0)[:, None], np.ones((1, 2)))),
}


@pytest.mark.parametrize("edge", EDGES)
def test_edge_cases_get_scipys_bits(edge):
    f, a, b, args = EDGES[edge]
    assert_same_bits(kernels._tanhsinh(f, a, b, args, COV_R_RTOL),
                     scipy_tanhsinh(f, a, b, args))


def test_status_codes_on_edge_cases():
    def status(edge):
        f, a, b, args = EDGES[edge]
        return kernels._tanhsinh(f, a, b, args, COV_R_RTOL)[2].tolist()

    assert status("divergent") == [-2, -2]
    assert status("nan at the midpoint") == [-3]
    assert status("empty pieces") == [0, 0, 0]


@pytest.mark.parametrize("a, b", [(np.nan, 1.0), (0.0, np.nan),
                                  (-np.inf, 1.0), (0.0, np.inf),
                                  (0.0, [1.0, np.inf]), (1.0, 0.5),
                                  ([0.0, 2.0], [1.0, 1.5])])
def test_limits_not_finite_or_reversed_are_refused(a, b):
    def never(x):
        raise AssertionError("integrand called")

    with pytest.raises(ConfigError, match="finite with a <= b"):
        tanhsinh_sum("test", never, a, b)
