import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special
from scipy.integrate import IntegrationWarning

from volterrasim import criteria
from volterrasim.criteria import (
    DIVERGENT,
    heat_admissibility,
    hs_heat_norm_sq,
    j_closed_form,
    j_quadrature,
    shift_trace_criterion,
)
from volterrasim.errors import ConfigError, QuadratureError

# (H, q = 2 beta - 2H - 1, truncation) across the convergent range
SWEEP = list(itertools.product((0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95),
                               (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0),
                               (100.0, 200.0)))


def _sweep():
    """(q, |value - closed form|, error estimate) of each case that returns."""
    out = []
    for H, q, T in SWEEP:
        beta = 0.5 * (q + 2.0 * H + 1.0)
        try:
            res = j_quadrature(beta, H, truncation=T)
        except QuadratureError:
            continue
        assert res.converged
        out.append((q, abs(res.value - j_closed_form(beta, H)),
                    res.error_estimate))
    return out


class TestExamples:
    def test_shift_validation(self):
        with pytest.raises(ValueError, match="beta"):
            shift_trace_criterion(0.5, 0.7)
        with pytest.raises(ValueError, match="H must lie"):
            shift_trace_criterion(1.2, 0.4)

    def test_heat_validation(self):
        heat_admissibility(3, 0.8)
        with pytest.raises(ValueError, match="d must be"):
            heat_admissibility(4, 0.8)
        with pytest.raises(ValueError, match="H must lie"):
            heat_admissibility(2, 0.3)


class TestJClosedForm:
    def test_divergent_at_and_below_threshold(self):
        for H in (0.6, 0.75, 0.9):
            assert j_closed_form(H + 0.5, H) == DIVERGENT
            assert j_closed_form(H + 0.45, H) == DIVERGENT
            assert math.isfinite(j_closed_form(H + 0.55, H))

    def test_monotone_decreasing_in_beta(self):
        H = 0.7
        vals = [j_closed_form(b, H) for b in (1.3, 1.6, 2.0, 3.0)]
        assert all(a > b > 0 for a, b in zip(vals, vals[1:]))

    def test_requires_beta_above_H(self):
        with pytest.raises(ValueError):
            j_closed_form(0.6, 0.7)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused(self, beta):
        with pytest.raises(ConfigError, match="beta must be finite"):
            j_closed_form(beta, 0.7)

    @pytest.mark.filterwarnings("error", category=IntegrationWarning)
    @pytest.mark.parametrize("H", [0.6, 0.75, 0.9])
    def test_continuous_through_log_case(self, H):
        # beta = 2H is the logarithmic case c = a + b of 2F1(b, 2H; 2b; z);
        # there the Gamma factors cancel to 1 / (H (2H - 1)^2)
        eps = 1e-6
        mean = 0.5 * (j_closed_form(2 * H - eps, H)
                      + j_closed_form(2 * H + eps, H))
        assert j_closed_form(2 * H, H) == pytest.approx(mean, rel=1e-6)
        assert j_closed_form(2 * H, H) == pytest.approx(
            1.0 / (H * (2 * H - 1) ** 2), rel=1e-12)


class TestJQuadrature:
    # (2H + 1, H) puts the 2F1 parameters at an integer gap c - a - b = 1
    @pytest.mark.filterwarnings("error", category=IntegrationWarning)
    @pytest.mark.parametrize("beta,H", [
        (1.7, 0.7), (1.75, 0.75), (1.5, 0.6),
        (2.2, 0.6), (2.5, 0.75), (2.8, 0.9)])
    def test_matches_closed_form(self, beta, H):
        res = j_quadrature(beta, H)
        assert res.converged
        closed = j_closed_form(beta, H)
        assert res.value == pytest.approx(closed, rel=1e-5)
        assert abs(res.value - closed) <= res.error_estimate

    def test_estimate_bounds_error_on_sweep(self):
        done = _sweep()
        # every case with q >= 0.8 converges, and 16 of the 28 with q < 0.8
        assert sum(q >= 0.8 for q, _, _ in done) == 70
        assert len(done) >= 86
        assert all(err <= est for _, err, est in done)

    def test_estimate_bounds_error_on_coarse_rule(self, monkeypatch):
        # at orders (6, 4) the rule error is no longer negligible: the
        # estimate has to carry it
        monkeypatch.setattr(criteria, "J_ORDERS", (6, 4))
        done = _sweep()
        assert len(done) >= 70
        assert all(err <= est for _, err, est in done)

    def test_slow_decay_near_threshold(self):
        # q = 0.2: the default truncation is honestly refused ...
        with pytest.raises(QuadratureError):
            j_quadrature(1.3, 0.7)
        # ... and a wider one converges close to the closed form
        res = j_quadrature(1.3, 0.7, truncation=1600.0)
        assert res.converged
        assert res.value == pytest.approx(j_closed_form(1.3, 0.7), rel=5e-3)

    def test_divergent_case_not_converged(self):
        res = j_quadrature(1.2, 0.75)  # beta < H + 1/2
        assert not res.converged

    def test_validation(self):
        with pytest.raises(ValueError):
            j_quadrature(0.4, 0.7)

    @pytest.mark.parametrize("H", [0.3, 0.5, 1.0, 1.2, math.nan])
    def test_refuses_hurst_outside_range(self, monkeypatch, H):
        monkeypatch.setattr(criteria, "_j_levels", None)  # no quadrature
        with pytest.raises(ConfigError, match="H must lie"):
            j_quadrature(1.7, H)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_refuses_nonfinite_beta(self, monkeypatch, beta):
        monkeypatch.setattr(criteria, "_j_levels", None)
        with pytest.raises(ConfigError, match="beta must be finite"):
            j_quadrature(beta, 0.7)

    @pytest.mark.parametrize("truncation",
                             [0.0, -5.0, 0.5, math.nan, math.inf])
    def test_refuses_bad_truncation(self, monkeypatch, truncation):
        monkeypatch.setattr(criteria, "_j_levels", None)
        with pytest.raises(ConfigError, match="truncation must be"):
            j_quadrature(1.7, 0.7, truncation=truncation)

    def test_smallest_truncation_is_accepted(self):
        res = j_quadrature(2.5, 0.75, truncation=1.0)
        assert res.converged
        assert abs(res.value - j_closed_form(2.5, 0.75)) <= res.error_estimate


class TestJacobiRule:
    # roots_jacobi's own weights drift from the exact ones as a nears -1
    # (1.6e-11 relative at a = -0.995, order 12, against a 40-digit
    # reference), so the grid stops at -0.99
    @pytest.mark.parametrize("order", range(1, 13))
    @pytest.mark.parametrize("a", [-0.99, -0.9, -0.5, 0.0, 0.4, 1.0, 2.2,
                                   2.99])
    def test_matches_roots_jacobi(self, order, a):
        y, w = criteria._jacobi01(order, a)
        x, wr = special.roots_jacobi(order, 0.0, a)
        np.testing.assert_allclose(y, 0.5 * (x + 1.0), rtol=0, atol=1e-12)
        np.testing.assert_allclose(w, wr * 0.5 ** (a + 1.0), rtol=1e-11)
        assert w.sum() == pytest.approx(1.0 / (a + 1.0), rel=1e-14)

    def test_bytes_independent_of_blas_threads(self):
        # eigh is LAPACK, which runs on the process's OpenBLAS
        code = ("import hashlib, numpy as np\n"
                "from volterrasim.criteria import _jacobi01\n"
                "h = hashlib.md5()\n"
                "for order in range(1, 13):\n"
                "    for a in np.linspace(-0.99, 2.99, 21):\n"
                "        for part in _jacobi01(order, a):\n"
                "            h.update(part.tobytes())\n"
                "print(h.hexdigest())\n")
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        digests = {
            threads: subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                text=True, env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                    PYTHONPATH=os.path.abspath(src))).stdout
            for threads in ("1", "2")}
        assert digests["1"] == digests["2"]


class TestShiftTraceCriterion:
    def test_threshold_flip(self):
        for H in (0.6, 0.75, 0.9):
            above = shift_trace_criterion(H + 0.5 + 1e-6, H)
            below = shift_trace_criterion(H + 0.5 - 1e-6, H)
            assert above["exists"] and not below["exists"]
            assert math.isfinite(above["sup_trace"])
            assert below["sup_trace"] == DIVERGENT

    def test_sup_trace_value(self):
        H, beta = 0.7, 1.5
        out = shift_trace_criterion(beta, H)
        assert out["sup_trace"] == pytest.approx(
            H * (2 * H - 1) * j_closed_form(beta, H), rel=1e-12)

    def test_wiener_contrast(self):
        # beta in (1, H + 1/2]: Wiener-driven equation has a limit,
        # the fBm-driven one does not
        out = shift_trace_criterion(1.1, 0.7)
        assert out["wiener_exists"] and not out["exists"]

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_refused(self, beta):
        with pytest.raises(ConfigError, match="beta must be finite"):
            shift_trace_criterion(beta, 0.7)

    def test_beta_at_most_H_is_divergent(self):
        # below beta = H the closed form does not apply
        out = shift_trace_criterion(0.65, 0.7)
        assert not out["exists"]
        assert out["sup_trace"] == DIVERGENT


class TestHeat:
    def test_hs_norm_monotone(self):
        r = np.array([1e-4, 1e-3, 1e-2, 1e-1])
        y = hs_heat_norm_sq(2, r)
        assert np.all(np.diff(y) < 0)

    def test_hs_norm_dimension_power(self):
        r = np.array([1e-3])
        y1 = hs_heat_norm_sq(1, r)[0]
        y3 = hs_heat_norm_sq(3, r)[0]
        assert y3 == pytest.approx(y1 ** 3, rel=1e-12)

    def test_hs_norm_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hs_heat_norm_sq(1, [0.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fitted_exponent(self, d):
        out = heat_admissibility(d, 0.8)
        assert out["exponent_ok"]
        assert abs(out["fitted_exponent"] + d / 2.0) <= 0.1

    def test_exponent_fitted_once_per_d(self):
        criteria._hs_decay_exponent.cache_clear()
        for d in (1, 2, 3):
            for H in (0.6, 0.7, 0.8, 0.9):
                heat_admissibility(d, H)
        assert criteria._hs_decay_exponent.cache_info().misses == 3

    def test_admissibility_table(self):
        # d < 4H: flips between H = 0.7 and H = 0.8 at d = 3
        assert heat_admissibility(3, 0.8)["admissible"]
        assert not heat_admissibility(3, 0.7)["admissible"]
        for H in (0.6, 0.7, 0.8, 0.9):
            assert heat_admissibility(1, H)["admissible"]
            assert heat_admissibility(2, H)["admissible"]
