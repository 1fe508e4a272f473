"""Named verification suites behind the command-line `verify`.

Each suite returns (passed, lines); lines are human-readable one-line
results suitable for printing.  The suites are smaller, faster variants
of the package's full invariant checks, meant for quick reproduction
from the command line.
"""

import numpy as np

from .criteria import heat_admissibility, j_closed_form, j_quadrature, \
    shift_trace_criterion
from .diagnostics import MIN_OBSERVATIONS, energy_statistic, \
    energy_two_sample
from .errors import _check_count
from .evolution import SUBSTEPS, TAIL_TOL, EquationSpec, NoiseSpec, \
    _mild_values, check_limit_condition, covariance_q_infinity, \
    covariance_qt, sample_x_infinity
from .integration import StepFunction, check_law_symmetries, d_norm_sq, \
    integrate_step
from .kernels import FbmKernel, check_regularity, phi_quadrature
from .processes import GridSpec, simulate, simulate_fbm
from .rng import substream

# suite -> the least n_paths it runs on: MIN_OBSERVATIONS per energy-test
# sample its paths are split into, 2 for isometry's variance, None if it is
# deterministic; suite_<name, - as _> runs it, looked up so a patch is seen
SUITES = {"kernel": None, "isometry": 2, "law-symmetry": 3 * MIN_OBSERVATIONS,
          "stationarity": 2 * MIN_OBSERVATIONS, "limit": MIN_OBSERVATIONS,
          "criteria": None}
LIMIT_TIMES = (1.0, 2.0, 4.0, 8.0)
LIMIT_EARLY = 0.24  # a grid time at which X_t must still differ from x_inf


def _check_run(suite: str, n_paths, seed) -> None:
    """ConfigError unless n_paths reaches SUITES[suite] and seed is a seed."""
    why = (f" ({MIN_OBSERVATIONS} observations per energy-test sample)"
           if SUITES[suite] >= MIN_OBSERVATIONS else "")
    _check_count(f"the {suite} suite's paths{why}", n_paths, SUITES[suite])
    _check_count("seed", seed, 0)


def _result(records):
    """(all passed, lines) of (passed, line) records; None only informs."""
    return all(p for p, _ in records if p is not None), [x for _, x in records]


def default_equation(H: float, x0=None):
    """The 4-mode diagonal reference equation used by the CLI suites."""
    lambdas = np.array([0.5, 1.0, 2.0, 4.0])
    phi_matrix = np.ones((4, 1))
    return EquationSpec(lambdas, phi_matrix, NoiseSpec(("fbm",), H), x0=x0)


def suite_kernel():
    records = []
    rng = substream(0, 101)
    for H in (0.55, 0.7, 0.9):
        kernel = FbmKernel(H)
        u, v = rng.uniform(-5.0, 5.0, size=(25, 2)).T
        v = np.where(abs(u - v) < 1e-3, u + 1e-3, v)
        closed = kernel.phi_closed_form(u, v)
        worst = np.max(abs(phi_quadrature(kernel, u, v) - closed) / closed)
        good = worst <= 1e-4
        records.append((good, f"phi quadrature vs closed form H={H}: max rel "
                              f"err {worst:.2e} ({'pass' if good else 'FAIL'})"))
        pairs = [(r + d, r) for r in (-2.0, 0.0, 3.0) for d in (0.01, 0.5, 2.0)]
        rep = check_regularity(kernel, pairs)
        records.append((rep["passed"], f"regularity bound H={H}: max ratio "
                        f"{rep['max_ratio']:.6f} <= {rep['bound']:.6f} "
                        f"({'pass' if rep['passed'] else 'FAIL'})"))
    return _result(records)


def _random_step_function(rng):
    n = int(rng.integers(1, 5))
    bp = np.sort(rng.uniform(-1.0, 1.5, size=n + 1))
    while np.any(np.diff(bp) < 0.05):
        bp = np.sort(rng.uniform(-1.0, 1.5, size=n + 1))
    vals = rng.uniform(-2.0, 2.0, size=(n, 1))
    return StepFunction(bp, vals)


def suite_isometry(H: float, n_paths: int, seed: int):
    _check_run("isometry", n_paths, seed)
    kernel = FbmKernel(H)
    grid = GridSpec(-2.0, 2.0, 401)
    ens = simulate_fbm(grid, H, n_paths, seed)
    rng = substream(seed, 202)
    records = []
    for i in range(5):
        f = _random_step_function(rng)
        f = StepFunction(np.array([grid.times[grid.index_of(b)]
                                   for b in f.breakpoints]), f.values)
        target = d_norm_sq(kernel, f)
        vals = integrate_step(f, ens)[0]
        mc = vals.var()
        stderr = mc * np.sqrt(2.0 / (n_paths - 1))
        good = abs(mc - target) <= 3.0 * stderr
        records.append((good, f"isometry f#{i}: MC {mc:.5f} vs D-norm "
                              f"{target:.5f} (3se={3 * stderr:.5f}, "
                              f"{'pass' if good else 'FAIL'})"))
    return _result(records)


def suite_law_symmetry(H: float, n_paths: int, seed: int):
    _check_run("law-symmetry", n_paths, seed)
    grid = GridSpec(-1.0, 1.0, 201)
    drivers = {
        "fbm": simulate_fbm(grid, H, n_paths, seed),
        "rosenblatt": simulate("rosenblatt", grid, H, n_paths, seed, 1, 0,
                               TAIL_TOL, SUBSTEPS),
    }
    integrands = {
        "exp": lambda r: np.array([np.exp(-r)]),
        "rational": lambda r: np.array([1.0 / (1.0 + r * r)]),
    }
    records = []
    for dname, ens in drivers.items():
        for fno, (fname, fn) in enumerate(integrands.items()):
            reports = check_law_symmetries(fn, 1.0, ens, seed=seed + 31 * fno)
            records += [(rep.passed, f"law symmetry {dname}/{fname} {key}: "
                                     f"{rep}") for key, rep in reports.items()]
    return _result(records)


def _solution_at(spec, grid, times, n_paths, seed):
    """{t: X_t, shape (n_paths, n_modes)} of solve_mild at the given times
    only, each snapped to the grid as Ensemble.at snaps it."""
    rows = sorted({grid.index_of(t) for t in times})
    values = _mild_values(spec, grid, grid.times[rows], n_paths, seed)
    return {t: values[rows.index(grid.index_of(t))].T for t in times}


def suite_stationarity(H: float, n_paths: int, seed: int, x0="x-infinity"):
    _check_run("stationarity", n_paths, seed)
    spec = default_equation(H, x0=x0)
    base_times = (0.5, 1.0, 2.0)
    h = 1.0
    shifted_times = tuple(t + h for t in base_times)
    X = _solution_at(spec, GridSpec(0.0, 3.0, 151),
                     base_times + shifted_times, n_paths, seed)
    half = n_paths // 2
    base = np.column_stack([X[t][:half] for t in base_times])
    shifted = np.column_stack([X[t][half:] for t in shifted_times])
    rep = energy_two_sample(base, shifted, seed=seed)
    return _result([(rep.passed,
                     f"joint law at {base_times} vs shift h={h}: {rep}")])


def suite_limit(H: float, n_paths: int, seed: int):
    """Law(X_t) from a zero start approaches the law of x_infinity.

    Three checks: the gap Tr q_inf - Tr q_t between the exact
    covariances is positive and falls over LIMIT_TIMES; the energy test
    tells X at an early time from x_infinity; and it does not at the
    last time.  The energy distances at LIMIT_TIMES are printed too.
    """
    _check_run("limit", n_paths, seed)
    spec = default_equation(H)
    value, finite = check_limit_condition(spec)
    records = [(finite, f"limit condition integral: {value:.6f} "
                        f"({'finite' if finite else 'DIVERGENT'})")]
    tr_inf = np.trace(covariance_q_infinity(spec))
    gaps = [tr_inf - np.trace(covariance_qt(spec, t)) for t in LIMIT_TIMES]
    records += [(None, f"Tr q_inf - Tr q_{t}: {gap:.6f}")
                for t, gap in zip(LIMIT_TIMES, gaps)]
    good = gaps[-1] > 0.0 and all(b < a for a, b in zip(gaps, gaps[1:]))
    records.append((good, "covariance gap positive and falling: "
                          + ("pass" if good else "FAIL")))
    X = _solution_at(spec, GridSpec(0.0, LIMIT_TIMES[-1], 401),
                     (LIMIT_EARLY, *LIMIT_TIMES), n_paths, seed)
    target = sample_x_infinity(spec, 25.0, n_paths, seed + 1, dt=0.02).T
    records += [(None, f"energy distance Law(X_{t}) vs x_inf: "
                       f"{energy_statistic(X[t], target):.5f}")
                for t in LIMIT_TIMES]
    early = energy_two_sample(X[LIMIT_EARLY], target, seed=seed)
    good = not early.passed
    records.append((good, f"Law(X_{LIMIT_EARLY}) vs x_inf: "
                          f"energy={early.statistic:.6g} p={early.p_value:.4f} "
                          f"(n_perm={early.n_permutations}), rejected at level "
                          f"{early.level}: {'pass' if good else 'FAIL'}"))
    late = energy_two_sample(X[LIMIT_TIMES[-1]], target, seed=seed)
    records.append((late.passed, f"Law(X_{LIMIT_TIMES[-1]}) vs x_inf: {late}"))
    return _result(records)


def suite_criteria():
    records = []
    eps = 1e-6
    for H in (0.6, 0.75, 0.9):
        thr = H + 0.5
        below = shift_trace_criterion(thr - eps, H)["exists"]
        above = shift_trace_criterion(thr + eps, H)["exists"]
        good = (not below) and above
        records.append((good, f"threshold flip at beta={thr}+-{eps} (H={H}): "
                              f"{'pass' if good else 'FAIL'}"))
        beta = H + 1.0
        jc = j_closed_form(beta, H)
        jq = j_quadrature(beta, H, truncation=200.0)
        rel = abs(jc - jq.value) / jc
        good = rel <= 1e-5
        records.append((good, f"J closed {jc:.6f} vs quadrature {jq.value:.6f} "
                              f"(beta={beta}, H={H}): rel {rel:.2e} "
                              f"({'pass' if good else 'FAIL'})"))
    wiener = shift_trace_criterion(1.1, 0.75)
    good = wiener["wiener_exists"] and not wiener["exists"]
    records.append((good, "Wiener-vs-fBm contrast at beta=1.1, H=0.75: "
                          f"{'pass' if good else 'FAIL'}"))
    for d in (1, 2, 3):
        for H in (0.6, 0.7, 0.8, 0.9):
            rep = heat_admissibility(d, H)
            good = rep["admissible"] == (d < 4 * H) and rep["exponent_ok"]
            records.append((good, f"heat d={d} H={H}: admissible="
                                  f"{rep['admissible']} exponent "
                                  f"{rep['fitted_exponent']:.3f} "
                                  f"({'pass' if good else 'FAIL'})"))
    return _result(records)
