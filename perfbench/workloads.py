"""The benchmark's three workloads: inputs, timed operations and checks.

`build(workload, seed, tmp)` makes one pass's inputs and returns
(operations, check).  Each operation is a (name, callable) pair called
in order inside the timed region; `check(results)` runs afterwards and
returns a list of failure messages, empty when every output is correct.
The references are computed here, apart from the package: closed forms,
or properties the method must have.  Only the two Rosenblatt tolerances
use a package routine, `rosenblatt_grid_covariance`, the exact
covariance of the discretised ensemble, to size the discretisation
error a check must allow for; the reference itself is still the closed
form.
"""

import contextlib
import io
import math
import os

import numpy as np

from volterrasim import cli, evolution, kernels, processes, suites
from volterrasim.processes import CumulantSpec, GridSpec, RosenblattScheme

SIGMAS = 6.0  # half-width of every Monte-Carlo bound, in standard errors

# simulate: (label, process, H, grid, paths); Rosenblatt adds --substeps 4
SIMULATE_RUNS = (
    ("fbm-4001x200", "fbm", 0.7, "-2:2:4001", 200),
    ("fbm-401x2000", "fbm", 0.7, "-2:2:401", 2000),
    ("rosenblatt-401x500", "rosenblatt", 0.75, "-1:1:401", 500),
)
FBM_LAGS = (1, 10, 100)
ROSENBLATT_TIMES = (-1.0, -0.5, 0.5, 1.0)
ROSENBLATT_SUBSTEPS = 4

# verify-mc: the stochastic suites run with the seed the README documents
VERIFY_MC_SUITES = ("isometry", "law-symmetry", "stationarity", "limit")
SUITE_SEED = 4
HEAT_H = 0.7
HEAT_MODES = 4
HEAT_GRID = GridSpec(0.0, 2.0, 201)
HEAT_PATHS = 1000
HEAT_T_TRUNC = 2.0
HEAT_TIMES = (0.0, 0.5, 1.0, 2.0)

# oracles
ORACLE_SUITES = ("kernel", "criteria")
COV_G_H = 0.7
COV_R_H = 0.7
COV_R_RECTANGLES = ((0.0, 0.25, 0.5, 1.0),    # off the diagonal
                    (0.0, 0.5, 0.25, 0.75),   # overlapping it
                    (-1.0, 0.0, 0.0, 1.0))    # touching it at a corner
CUMULANTS = ((0.75, ((0.0, 1.0), (1.0, 2.0)), (1.0, 1.0)),
             (0.8, ((0.0, 1.0), (0.5, 2.0)), (1.0, -0.5)))
COV_G_CELLS = 2000


def increment_cov(s1, t1, s2, t2, H):
    """Cov(B_t1 - B_s1, B_t2 - B_s2) of two-sided fBm (and Rosenblatt)."""
    def f(x):
        return np.abs(x) ** (2.0 * H)
    return 0.5 * (f(t1 - s2) + f(t2 - s1) - f(t1 - t2) - f(s1 - s2))


def _second_moment_bound(x, target, pool=None):
    """(sample E x^2, its standard error) over the last axis.

    The error is target * sqrt((kurtosis - 1) / n), with the kurtosis
    E x^4 / (E x^2)^2 taken from the sample itself or from `pool`, a
    larger sample of the same law.  It is floored at the Gaussian value
    3: a centred first- or second-chaos variable has non-negative fourth
    cumulant.  Scaling by the target, not by the sample, keeps a wrongly
    scaled sample from widening its own bound.
    """
    pool = x if pool is None else pool
    m2 = np.mean(pool * pool, axis=-1)
    kurtosis = np.mean(pool ** 4, axis=-1) / (m2 * m2)
    se = target * np.sqrt(np.maximum(kurtosis - 1.0, 2.0) / x.shape[-1])
    return np.mean(x * x, axis=-1), se


def _quiet(fn, *args):
    """Call fn with its standard output captured; returns (value, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        value = fn(*args)
    return value, buf.getvalue()


def _verify(suite, seed=None):
    argv = ["verify", "--suite", suite]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return lambda: _quiet(cli.main, argv)


def _check_suite(name, result):
    rc, text = result
    lines = text.strip().splitlines()
    if rc != 0 or not lines or lines[-1] != "suite result: pass":
        return [f"{name}: exit {rc}, last line {lines[-1:]}"]
    return []


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _build_simulate(seed, tmp):
    ops, specs = [], {}
    for k, (label, process, H, grid, paths) in enumerate(SIMULATE_RUNS):
        out = os.path.join(tmp, label)
        argv = ["simulate", "--process", process, "--H", repr(H),
                "--grid", grid, "--paths", str(paths),
                "--seed", str(seed + k), "--out", out]
        if process == "rosenblatt":
            argv += ["--substeps", str(ROSENBLATT_SUBSTEPS)]
        ops.append((label, lambda argv=argv: _quiet(cli.main, argv)[0]))
        specs[label] = (process, H, cli.parse_grid(grid), paths, out)

    def check(results):
        failures = []
        for label, rc in results.items():
            process, H, grid, paths, out = specs[label]
            if rc != 0 or not os.path.isfile(os.path.join(out, "manifest.txt")):
                failures.append(f"{label}: exit {rc} or no manifest")
                continue
            header, data = _read_csv(os.path.join(out, "ensemble.csv"))
            want = ["t"] + [f"path_{p}" for p in range(paths)]
            if header != want or data.shape != (grid.n_points, paths + 1):
                failures.append(f"{label}: csv shape {data.shape}")
                continue
            times = grid.t_min + grid.dt * np.arange(grid.n_points)
            if np.max(np.abs(data[:, 0] - times)) > 1e-9:
                failures.append(f"{label}: csv times off the requested grid")
            i0 = int(np.argmin(np.abs(times)))
            if data[i0, 0] != 0.0 or np.any(data[i0, 1:] != 0.0):
                failures.append(f"{label}: t = 0 row not exactly 0")
            if process == "fbm":
                failures += _check_fbm(label, data[:, 1:], grid.dt, H)
            else:
                failures += _check_rosenblatt(label, data[:, 1:], grid, H)
        return failures

    return ops, check


def _check_fbm(label, values, dt, H):
    """Mean square increment at lag k*dt against (k dt)^2H, exact for fBm."""
    failures = []
    for k in FBM_LAGS:
        target = (k * dt) ** (2.0 * H)
        failures += _pooled_check(f"{label}: lag {k} E dB^2",
                                  values[k:] - values[:-k], target, target)
    return failures


def _check_rosenblatt(label, values, grid, H):
    """E R_t^2 against |t|^2H and E R_t against 0 at a few t, and the
    mean of (R_t / |t|^H)^2 over all t against 1.

    R_t / |t|^H has one law for every t > 0 and its mirror for t < 0, so
    the fourth moment comes from all times of all paths, scaled.  The
    bounds add to the Monte-Carlo error the scheme's own deviation from
    |t|^2H, read off the exact covariance of the discretised law.
    """
    scheme = RosenblattScheme.for_grid(grid, H, substeps=ROSENBLATT_SUBSTEPS)
    disc = np.diag(processes.rosenblatt_grid_covariance(grid, scheme))
    times = grid.times
    live = times != 0.0
    unit = values[live] / np.abs(times[live, None]) ** H
    failures = []
    for t in ROSENBLATT_TIMES:
        i = int(round((t - grid.t_min) / grid.dt))
        target = abs(t) ** (2.0 * H)
        v, se = _second_moment_bound(values[i], target,
                                     abs(t) ** H * unit.ravel())
        tol = SIGMAS * se + abs(disc[i] - target)
        if abs(v - target) > tol:
            failures.append(f"{label}: E R_{t}^2 {v:.5g} vs {target:.5g} "
                            f"(bound {tol:.3g})")
        mean = values[i].mean()
        sem = values[i].std(ddof=1) / math.sqrt(values.shape[1])
        if abs(mean) > SIGMAS * sem:
            failures.append(f"{label}: E R_{t} = {mean:.4g} "
                            f"(bound {SIGMAS * sem:.3g})")
    scaled_disc = disc[live] / np.abs(times[live]) ** (2.0 * H)
    failures += _pooled_check(f"{label}: E (R_t/|t|^H)^2 over all t",
                              unit, 1.0, scaled_disc.mean())
    return failures


def _pooled_check(label, x, target, scheme_value):
    """Mean of x^2 over all paths and the first axis against target.

    Each path's mean over the first axis is one observation, so the
    error comes from their spread, however correlated a path's values
    are.  The bound adds the scheme's own deviation from target.
    """
    per_path = np.mean(x * x, axis=0)
    v = per_path.mean()
    # relative spread times target, as in _second_moment_bound
    cv = per_path.std(ddof=1) / v
    tol = SIGMAS * target * cv / math.sqrt(len(per_path)) \
        + abs(scheme_value - target)
    if abs(v - target) > tol:
        return [f"{label}: {v:.5g} vs {target:.5g} (bound {tol:.3g})"]
    return []


def heat_spec():
    """Spectral truncation of the 1-d Dirichlet heat equation on (0, 1).

    lambda_n = pi^2 n^2; each mode is driven by its own two-sided
    Rosenblatt component with unit coefficient (Phi = identity), and the
    solution starts at x-infinity, so it is stationary from t = 0.
    """
    lambdas = (math.pi * np.arange(1, HEAT_MODES + 1)) ** 2
    noise = evolution.NoiseSpec(("rosenblatt",) * HEAT_MODES, HEAT_H)
    return evolution.EquationSpec(lambdas, np.eye(HEAT_MODES), noise,
                                  x0="x-infinity")


def _heat_scheme_variance(spec):
    """Per-mode variance at each HEAT_TIMES of the discretised solution.

    The solver integrates cell averages of exp(-lambda (t - r)) against
    the cell increments of a Rosenblatt path on [-t_trunc, t_max]; its
    variance is that weight vector against the exact increment
    covariance of the discretised Rosenblatt law.
    """
    n_past = int(round(HEAT_T_TRUNC / HEAT_GRID.dt))
    grid = GridSpec(-n_past * HEAT_GRID.dt, HEAT_GRID.t_max,
                    n_past + HEAT_GRID.n_points)
    scheme = RosenblattScheme.for_grid(grid, HEAT_H, tail_tol=1e-2,
                                       substeps=2)
    cov = processes.rosenblatt_grid_covariance(grid, scheme)
    inc = np.diff(np.diff(cov, axis=0), axis=1)
    edges = grid.times
    out = np.zeros((HEAT_MODES, len(HEAT_TIMES)))
    for n, lam in enumerate(spec.lambdas):
        for j, t in enumerate(HEAT_TIMES):
            w = np.where(edges[1:] <= t + 1e-12,
                         _exp_cell_averages(edges, t, lam), 0.0)
            out[n, j] = w @ inc @ w
    return out


def _exp_cell_averages(edges, end, lam):
    """Average of exp(-lam (end - u)) over each cell of edges (u <= end)."""
    w = np.diff(edges)
    return np.exp(-lam * (end - edges[1:])) * -np.expm1(-lam * w) / (lam * w)


def _build_verify_mc(seed, tmp):
    spec = heat_spec()
    ops = [(f"verify-{s}", _verify(s, SUITE_SEED)) for s in VERIFY_MC_SUITES]
    ops.append(("heat-solve_mild", lambda: evolution.solve_mild(
        spec, HEAT_GRID, HEAT_PATHS, seed, t_trunc=HEAT_T_TRUNC)))

    def check(results):
        failures = []
        for s in VERIFY_MC_SUITES:
            if f"verify-{s}" in results:
                failures += _check_suite(f"verify {s}", results[f"verify-{s}"])
        sol = results.get("heat-solve_mild")
        if sol is None:
            return failures
        # stationary variance H Gamma(2H) lambda^-2H |Phi_n|^2, shared
        # by fBm and Rosenblatt since their covariances agree
        closed = HEAT_H * math.gamma(2.0 * HEAT_H) * \
            spec.lambdas ** (-2.0 * HEAT_H)
        scheme = _heat_scheme_variance(spec)
        # the solution is stationary, so every time of a mode shares one
        # law: its heavy second-chaos tail shows in the pooled fourth
        # moment far better than in 1000 values at a single time
        pool = np.moveaxis(sol.values, 1, 0).reshape(HEAT_MODES, -1)
        for j, t in enumerate(HEAT_TIMES):
            v, se = _second_moment_bound(sol.at(t), closed, pool)
            tol = SIGMAS * se + np.abs(scheme[:, j] - closed)
            failures += [
                f"heat mode {n + 1} t={t}: var {a:.4g} vs {b:.4g} "
                f"(bound {c:.3g})"
                for n, (a, b, c) in enumerate(zip(v, closed, tol))
                if abs(a - b) > c]
        return failures

    return ops, check


def generic_fbm_kernel(H):
    """FbmKernel(H)'s callables as a VolterraKernel with no closed forms."""
    fbm = kernels.FbmKernel(H)
    return kernels.VolterraKernel(alpha=fbm.alpha, eval=fbm.eval,
                                  deriv=fbm.deriv,
                                  regularity_const=fbm.regularity_const)


def _covariance_g_reference(spec, r, s):
    """g(r, s) as a sum over fine cells of [0, r] x [0, s].

    Each cell pair carries the closed-form fBm increment covariance and
    the cell averages of exp(-lambda_i (r - u)) and exp(-lambda_j (s - v)).
    """
    H = spec.noise.H
    eu = np.linspace(0.0, r, COV_G_CELLS + 1)
    ev = np.linspace(0.0, s, COV_G_CELLS + 1)
    cells = increment_cov(eu[:-1, None], eu[1:, None],
                          ev[None, :-1], ev[None, 1:], H)

    wu = np.array([_exp_cell_averages(eu, r, lam) for lam in spec.lambdas])
    wv = np.array([_exp_cell_averages(ev, s, lam) for lam in spec.lambdas])
    gram = spec.phi_matrix @ spec.phi_matrix.T
    return gram * (wu @ cells @ wv.T)


def _build_oracles(seed, tmp):
    spec = suites.default_equation(COV_G_H)
    generic = generic_fbm_kernel(COV_R_H)
    ops = [(f"verify-{s}", _verify(s)) for s in ORACLE_SUITES]
    ops.append(("covariance_g", lambda: evolution.covariance_g(spec, 1.0, 1.0)))
    for k, rect in enumerate(COV_R_RECTANGLES):
        ops.append((f"cov_R-{k}", lambda rect=rect: kernels.cov_R(generic, *rect)))
    for k, (H, intervals, thetas) in enumerate(CUMULANTS):
        cum = CumulantSpec(intervals, thetas, 2)
        ops.append((f"cumulant-{k}",
                    lambda cum=cum, H=H: processes.rosenblatt_cumulant(cum, H)))

    def check(results):
        failures = []
        for s in ORACLE_SUITES:
            if f"verify-{s}" in results:
                failures += _check_suite(f"verify {s}", results[f"verify-{s}"])
        if "covariance_g" in results:
            ref = _covariance_g_reference(spec, 1.0, 1.0)
            rel = np.max(np.abs(results["covariance_g"] - ref) / np.abs(ref))
            if rel > 1e-5:
                failures.append(f"covariance_g: max rel err {rel:.3g}")
        for k, rect in enumerate(COV_R_RECTANGLES):
            if f"cov_R-{k}" in results:
                exact = increment_cov(*rect, COV_R_H)
                rel = abs(results[f"cov_R-{k}"] - exact) / abs(exact)
                if rel > 1e-8:
                    failures.append(f"cov_R {rect}: rel err {rel:.3g}")
        for k, (H, intervals, thetas) in enumerate(CUMULANTS):
            if f"cumulant-{k}" in results:
                exact = sum(a * b * increment_cov(s1, t1, s2, t2, H)
                            for (s1, t1), a in zip(intervals, thetas)
                            for (s2, t2), b in zip(intervals, thetas))
                rel = abs(results[f"cumulant-{k}"] - exact) / abs(exact)
                if rel > 5e-3:
                    failures.append(f"cumulant {intervals}: rel err {rel:.3g}")
        return failures

    return ops, check


WORKLOADS = {
    "simulate": _build_simulate,
    "verify-mc": _build_verify_mc,
    "oracles": _build_oracles,
}


def build(workload, seed, tmp):
    return WORKLOADS[workload](seed, tmp)
