import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import fft, stats

from volterrasim import processes
from volterrasim.diagnostics import energy_two_sample
from volterrasim.errors import AlignmentError, ConfigError, \
    FactorizationError, QuadratureError
from volterrasim.kernels import fbm_cov
from volterrasim.processes import (
    CumulantSpec,
    Ensemble,
    GridSpec,
    RosenblattScheme,
    rosenblatt_cumulant,
    rosenblatt_discretization_tolerance,
    rosenblatt_grid_covariance,
    rosenblatt_normalizer,
    rosenblatt_sigma,
    rosenblatt_tail_bound,
    simulate,
    simulate_fbm,
    simulate_rosenblatt,
)
from volterrasim.rng import normal_matrix

from support import ensemble_from_csv


class TestGridSpec:
    def test_times_contain_zero(self):
        g = GridSpec(-1.0, 2.0, 301)
        assert 0.0 in g.times
        assert g.dt == pytest.approx(0.01)

    def test_index_of(self):
        g = GridSpec(0.0, 1.0, 101)
        assert g.index_of(0.5) == 50
        assert g.index_of(0.5 + 1e-12) == 50

    @pytest.mark.parametrize("grid", [
        (-2.0, 2.0, 401), (-1.3, 2.6, 40), (0.0, 1.0, 101),
        (1.0, 2.0, 11), (-3.0, -1.0, 41), (0.25, 7.5, 30)])
    def test_index_of_every_grid_time(self, grid):
        g = GridSpec(*grid)
        assert [g.index_of(t) for t in g.times] == list(range(g.n_points))

    def test_off_grid_rejected(self):
        g = GridSpec(0.0, 1.0, 11)
        with pytest.raises(AlignmentError):
            g.index_of(1.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            GridSpec(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            GridSpec(-0.35, 1.0, 10)  # would skip over zero
        # 2.5 points had times [0, 0.667, 1.333], past t_max = 1
        with pytest.raises(ConfigError, match="n_points"):
            GridSpec(0.0, 1.0, 2.5)


class TestEnsemble:
    def test_csv_roundtrip(self, tmp_path, fbm_ensemble):
        sub = Ensemble(fbm_ensemble.grid, fbm_ensemble.values[:, :5])
        path = tmp_path / "ens.csv"
        sub.to_csv(path)
        back = ensemble_from_csv(path)
        assert np.array_equal(back.values, sub.values)
        assert back.grid.n_points == sub.grid.n_points

    def test_values_read_only(self, fbm_ensemble):
        with pytest.raises(ValueError):
            fbm_ensemble.values[0, 0] = 1.0

    def test_callers_array_stays_writable(self):
        a = np.zeros((3, 2))
        ens = Ensemble(GridSpec(0, 1, 3), a)
        a[0, 0] = 1.0
        with pytest.raises(ValueError):
            ens.values[0, 0] = 1.0


def test_unknown_process_rejected():
    with pytest.raises(ConfigError):
        simulate("brownian", GridSpec(0, 1, 11), 0.7, 3, 1, 0, 0, 1e-2, 2)


class TestFbm:
    def test_zero_at_origin(self, fbm_ensemble):
        assert np.all(fbm_ensemble.at(0.0) == 0.0)

    def test_unit_variance_at_one(self, fbm_ensemble):
        v = fbm_ensemble.at(1.0).var()
        n = fbm_ensemble.n_paths
        assert abs(v - 1.0) <= 4.0 * np.sqrt(2.0 / (n - 1))

    def test_two_sided_covariance(self, fbm_ensemble):
        H = 0.7
        x, y = fbm_ensemble.at(-1.0), fbm_ensemble.at(1.0)
        target = 0.5 * (1.0 + 1.0 - 2.0 ** (2 * H))
        emp = np.mean(x * y)
        se = np.std(x * y) / np.sqrt(len(x))
        assert abs(emp - target) <= 4.0 * se

    def test_determinism_and_offset(self):
        g = GridSpec(0.0, 1.0, 21)
        a = simulate_fbm(g, 0.75, 10, seed=5)
        b = simulate_fbm(g, 0.75, 10, seed=5)
        assert np.array_equal(a.values, b.values)
        tail = simulate("fbm", g, 0.75, 4, 5, 0, 6, 1e-3, 4)
        assert np.array_equal(a.values[:, 6:], tail.values)

    def test_seed_matters(self):
        g = GridSpec(0.0, 1.0, 21)
        a = simulate_fbm(g, 0.75, 10, seed=5)
        c = simulate_fbm(g, 0.75, 10, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_covariance_matrix_psd(self):
        t = np.linspace(-2, 2, 41)
        t = t[t != 0]
        C = fbm_cov(0, t[:, None], 0, t[None, :], 0.8)
        w = np.linalg.eigvalsh(C)
        assert w.min() > -1e-10

    def test_large_grid_lag_one_increment_variance(self):
        # a grid whose dense covariance matrix would take 3.2 GB
        H, n = 0.7, 20
        grid = GridSpec(0.0, 1.0, 20001)
        ens = simulate_fbm(grid, H, n, seed=8)
        per_path = np.mean(np.diff(ens.values, axis=0) ** 2, axis=0)
        target = grid.dt ** (2 * H)
        se = per_path.std(ddof=1) / np.sqrt(n)
        assert abs(per_path.mean() - target) <= 4.0 * se
        assert se < 0.05 * target

    @pytest.mark.parametrize("H", [0.55, 0.7, 0.95])
    def test_circulant_map_has_exact_covariance(self, monkeypatch, H):
        # the map from the m = 2 (n_points - 1) normals of a path to the
        # path, applied to the m unit vectors, spans more than one block
        grid = GridSpec(-1.0, 1.5, 51)
        m = 2 * (grid.n_points - 1)
        assert m > processes.PATH_BLOCK
        monkeypatch.setattr(
            processes, "normal_matrix",
            lambda seed, stream, n_rows, n_paths, path_offset=0:
            np.eye(n_rows)[:, path_offset:path_offset + n_paths])
        T = simulate_fbm(grid, H, m, seed=0).values
        t = grid.times
        C = fbm_cov(0, t[:, None], 0, t[None, :], H)
        assert np.max(np.abs(T @ T.T - C)) <= 1e-12 * np.max(np.abs(C))

    def test_indefinite_embedding_raises(self):
        # the circulant with this row has eigenvalues 5.5, 0.5, 0.5, -2.5
        with pytest.raises(FactorizationError):
            processes._circulant_sqrt(np.array([1.0, 2.0, 0.5, 2.0]))
        # rounding-sized negatives are set to zero
        scale = processes._circulant_sqrt(np.array([1.0, -1.0 - 1e-13]))
        assert scale[0] == 0.0 and scale[1] == pytest.approx(1.0)


class TestRosenblatt:
    def test_sigma_and_normalizer(self):
        H = 0.75
        assert rosenblatt_sigma(H) == pytest.approx(
            np.sqrt(0.5 * H * (2 * H - 1)))
        assert rosenblatt_normalizer(H) > 0.0

    def test_tail_bound_decreases_in_depth(self):
        b1 = rosenblatt_tail_bound(0.75, 2.0, 1e6)
        b2 = rosenblatt_tail_bound(0.75, 2.0, 1e8)
        assert 0 < b2 < b1

    def test_scheme_respects_tolerance(self, rosenblatt_ensemble):
        ens, scheme = rosenblatt_ensemble
        assert scheme.tail_bound(ens.grid) <= scheme.tail_tol

    def test_variance_matches_grid_covariance(self, rosenblatt_ensemble):
        ens, scheme = rosenblatt_ensemble
        C = rosenblatt_grid_covariance(ens.grid, scheme)
        i = ens.grid.index_of(1.0)
        x = ens.values[i]
        se = np.std(x * x) / np.sqrt(len(x))
        assert abs(x.var() - C[i, i]) <= 4.0 * se

    def test_negative_time_cross_covariance_sign(self, rosenblatt_ensemble):
        # E R_{-1} R_1 = (2 - 2^{2H})/2 < 0 for the two-sided process
        ens, scheme = rosenblatt_ensemble
        x, y = ens.at(-1.0), ens.at(1.0)
        emp = np.mean(x * y)
        assert emp < 0.0
        C = rosenblatt_grid_covariance(ens.grid, scheme)
        i, j = ens.grid.index_of(-1.0), ens.grid.index_of(1.0)
        assert C[i, j] < 0.0

    def test_positive_skewness(self, rosenblatt_ensemble):
        ens, _ = rosenblatt_ensemble
        assert stats.skew(ens.at(1.0)) > 0.5
        # reflexivity: R_0 - R_{-1} has the same (positively skewed) law
        assert stats.skew(-ens.at(-1.0)) > 0.5

    def test_discretization_tolerance_small(self, rosenblatt_ensemble):
        ens, scheme = rosenblatt_ensemble
        tol = rosenblatt_discretization_tolerance(ens.grid, scheme)
        assert tol < 0.05

    def test_determinism_and_offset(self, rosenblatt_ensemble):
        ens, scheme = rosenblatt_ensemble
        again = simulate("rosenblatt", ens.grid, 0.75, 3, 321, 0, 1,
                         scheme.tail_tol, scheme.substeps)
        assert np.array_equal(ens.values[:, 1:4], again.values)

    @pytest.mark.parametrize("edges", [None, np.concatenate([
        -np.geomspace(1e4, 2.0, 40), np.linspace(-1.9, 1.0, 60)])])
    def test_matches_dense_chaos_product(self, edges):
        # the old sampler: the full weight matrix a times the normals; the
        # hand-built chaos grid has no cells of width du, so no near block
        grid = GridSpec(-1.0, 1.0, 41)
        if edges is None:
            scheme = RosenblattScheme.for_grid(grid, 0.75, tail_tol=1e-2,
                                               substeps=3)
        else:
            scheme = RosenblattScheme(0.75, edges, substeps=3, tail_tol=1.0)
        u, du, _ = processes._time_refinement(grid, scheme.substeps)
        a = processes._chaos_weights(scheme, u)
        n = 70
        M = a @ normal_matrix(5, 2, a.shape[1], n)
        contrib = du * (M * M - np.sum(a * a, axis=1)[:, None])
        prefix = np.vstack([np.zeros(n), np.cumsum(contrib, axis=0)])
        at_edges = prefix[::scheme.substeps]
        dense = rosenblatt_normalizer(0.75) * (at_edges - at_edges[grid.index_of(0.0)])
        ens = processes._collect(grid, n, processes._rosenblatt_blocks(
            grid, scheme, n, 5, 2, 0))
        assert np.max(np.abs(ens.values - dense)) <= 1e-9

    @pytest.mark.parametrize("grid, substeps, tail_tol", [
        (GridSpec(-3.0, 0.0, 11), 1, 1e-3),  # 1 is no whole number of cells
        (GridSpec(-25.0, 0.0, 501), 2, 1e-2),  # an arange that piles up
    ])
    def test_chaos_grid_reaches_t_max(self, grid, substeps, tail_tol):
        scheme = RosenblattScheme.for_grid(grid, 0.75, tail_tol=tail_tol,
                                           substeps=substeps)
        e = scheme.y_edges
        assert e[-1] == grid.t_max
        dy = grid.dt / substeps
        near = e[e >= grid.t_min - 1.0 - 1e-9]
        assert np.allclose(np.diff(near), dy, rtol=1e-9, atol=0.0)
        assert e[0] <= grid.t_min - 1.0

    def test_scheme_validation(self):
        with pytest.raises(ConfigError):
            RosenblattScheme(H=0.75, y_edges=np.linspace(0, 1, 5),
                             substeps=2, tail_tol=1e-3)
        for tail_tol in (1e-30, 1e-300):
            # unreachable tolerance; at 1e-300 the depth itself overflows
            with warnings.catch_warnings(), pytest.raises(ConfigError):
                warnings.simplefilter("error")
                RosenblattScheme.for_grid(GridSpec(0, 1, 11), 0.75,
                                          tail_tol=tail_tol)


class TestBatchSplit:
    """A path depends only on its index, not on its block of 64."""

    @pytest.mark.parametrize("process", ["fbm", "rosenblatt"])
    def test_split_matches_whole(self, process):
        def run(n, offset):
            return simulate(process, GridSpec(-1.0, 1.0, 41), 0.75, n, 4,
                            1, offset, 1e-2, 2).values

        whole = run(70, 0)
        assert np.array_equal(whole, np.hstack([run(3, 0), run(67, 3)]))
        assert np.array_equal(whole[:, 60:70], run(10, 60))


class TestPathBlocks:
    """simulate's block generator, which the solvers read one block at a
    time, gives simulate's bytes."""

    @pytest.mark.parametrize("process", ["fbm", "rosenblatt"])
    @pytest.mark.parametrize("grid", [GridSpec(-1.0, 1.0, 41),
                                      GridSpec(0.5, 2.0, 31)],
                             ids=["through-0", "without-0"])
    def test_blocks_join_to_simulate(self, process, grid):
        n = 2 * processes.PATH_BLOCK + 5
        args = (process, grid, 0.75, n, 4, 2, 7, 1e-2, 2)
        blocks = list(processes._blocks(*args))
        assert [p0 for p0, _ in blocks] == \
            list(range(0, n, processes.PATH_BLOCK))
        joined = np.hstack([block for _, block in blocks])
        assert joined.shape == (grid.n_points, n)
        assert joined.tobytes() == simulate(*args).values.tobytes()


class TestAnchoring:
    """R and b vanish at t = 0 also for grids that do not contain it."""

    @pytest.mark.parametrize("process", ["fbm", "rosenblatt"])
    @pytest.mark.parametrize("grid, full, rows", [
        (GridSpec(1.0, 2.0, 11), GridSpec(0.0, 2.0, 21), slice(10, None)),
        (GridSpec(-2.0, -1.0, 11), GridSpec(-2.0, 0.0, 21), slice(0, 11)),
    ])
    def test_cut_from_the_lattice_through_zero(self, process, grid, full,
                                               rows):
        part = simulate(process, grid, 0.75, 5, 3, 0, 0, 1e-2, 2)
        whole = simulate(process, full, 0.75, 5, 3, 0, 0, 1e-2, 2)
        assert np.array_equal(part.values, whole.values[rows])
        assert np.array_equal(part.grid.times, grid.times)

    @pytest.mark.parametrize("process", ["fbm", "rosenblatt"])
    def test_variance_at_grid_start(self, process):
        # anchored at t_min instead, Var R_1 would be 0 (and 1.09 at t = 2)
        H, n = 0.75, 2000
        ens = simulate(process, GridSpec(1.0, 2.0, 11), H, n, 6, 0, 0,
                       1e-2, 2)
        target = {1.0: 1.0, 2.0: 2.0 ** (2 * H)}
        if process == "rosenblatt":
            # the exact variances of the discretized law
            full = GridSpec(0.0, 2.0, 21)
            C = rosenblatt_grid_covariance(full, RosenblattScheme.for_grid(
                full, H, tail_tol=1e-2, substeps=2))
            target = {1.0: C[10, 10], 2.0: C[20, 20]}
        for t in (1.0, 2.0):
            x = ens.at(t)
            se = np.std(x * x) / np.sqrt(n)
            assert abs(np.mean(x * x) - target[t]) <= 4.0 * se

    def test_off_lattice_grid_refused(self):
        with pytest.raises(ConfigError, match="whole number"):
            simulate("fbm", GridSpec(0.35, 1.0, 10), 0.7, 3, 1, 0, 0,
                     1e-2, 2)

    @pytest.mark.parametrize("sampler", [
        lambda g: simulate_fbm(g, 0.7, 3, seed=1),
        lambda g: simulate_rosenblatt(
            g, RosenblattScheme.for_grid(g, 0.7, tail_tol=1e-2), 3, seed=1),
    ])
    def test_samplers_need_zero_on_the_grid(self, sampler):
        with pytest.raises(ConfigError, match="t = 0"):
            sampler(GridSpec(1.0, 2.0, 11))


class TestCumulants:
    def test_kappa2_is_variance(self):
        spec = CumulantSpec(intervals=((0.0, 1.0),), thetas=(1.0,), order=2)
        assert rosenblatt_cumulant(spec, 0.75) == pytest.approx(1.0, rel=1e-3)

    def test_kappa2_scaling(self, monkeypatch):
        # Var(R_2) = 2^{2H}
        H = 0.7
        spec = CumulantSpec(intervals=((0.0, 2.0),), thetas=(1.0,), order=2)
        # slower O(w^{2H-1}) rate at H = 0.7 needs a finer mesh
        monkeypatch.setattr(processes, "CUMULANT_NODES", 1024)
        monkeypatch.setattr(processes, "CUMULANT_RTOL", 2e-2)
        val = rosenblatt_cumulant(spec, H)
        assert val == pytest.approx(2 ** (2 * H), rel=1e-3)

    def test_kappa3_positive(self):
        spec = CumulantSpec(intervals=((0.0, 1.0),), thetas=(1.0,), order=3)
        assert rosenblatt_cumulant(spec, 0.75) > 0.0

    def test_cumulants_shift_invariant(self):
        H = 0.8
        k3 = rosenblatt_cumulant(
            CumulantSpec(((0.0, 1.0),), (1.0,), 3), H)
        k3_shifted = rosenblatt_cumulant(
            CumulantSpec(((5.0, 6.0),), (1.0,), 3), H)
        assert k3 == pytest.approx(k3_shifted, rel=1e-6)

    @staticmethod
    def _separated_variance(H):
        # Var((R_1 - R_0) - (R_3 - R_2)), the same as for fBm
        return 2.0 - 2.0 * fbm_cov(0.0, 1.0, 2.0, 3.0, H)

    def test_separated_intervals(self):
        # the gap (1, 2) must not shift cells off the endpoints 2 and 3
        spec = CumulantSpec(((0.0, 1.0), (2.0, 3.0)), (1.0, -1.0), 2)
        exact = self._separated_variance(0.8)
        assert exact == pytest.approx(1.263320, abs=1e-6)
        assert rosenblatt_cumulant(spec, 0.8) == pytest.approx(exact,
                                                               rel=5e-3)

    def test_separated_intervals_raise_or_converge(self):
        spec = CumulantSpec(((0.0, 1.0), (2.0, 3.0)), (1.0, -1.0), 2)
        exact = self._separated_variance(0.75)
        try:
            val = rosenblatt_cumulant(spec, 0.75)
        except QuadratureError:
            return
        assert val == pytest.approx(exact, rel=5e-3)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CumulantSpec(((0.0, 1.0),), (1.0,), 5)
        with pytest.raises(ValueError):
            CumulantSpec(((1.0, 0.0),), (1.0,), 2)
        with pytest.raises(ValueError):
            CumulantSpec(((0.0, 1.0),), (1.0, 2.0), 2)
        for bad, field in [
                (dict(intervals=((0.0, math.inf),)), "intervals"),
                (dict(intervals=((-math.inf, 1.0),)), "intervals"),
                (dict(intervals=((-1e308, 0.0), (0.0, 1e308)),
                      thetas=(1.0, 1.0)), "intervals"),
                (dict(thetas=(math.nan,)), "thetas"),
                (dict(thetas=(-math.inf,)), "thetas"),
                (dict(order=2.5), "order"),
                (dict(order=2.0), "order")]:
            kw = dict(intervals=((0.0, 1.0),), thetas=(1.0,), order=2) | bad
            with pytest.raises(ValueError, match=field):
                CumulantSpec(**kw)

    @pytest.mark.parametrize("H, intervals, thetas, kappa2", [
        (0.75, ((0.0, 1.0), (1.0, 2.0)), (1.0, 1.0), 2.828417862395233),
        (0.8, ((0.0, 1.0), (0.5, 2.0)), (1.0, -0.5), 0.46256310094473757)])
    def test_kappa2_pinned(self, H, intervals, thetas, kappa2):
        # both endpoints 1 and 0.5 lie on the lattice
        spec = CumulantSpec(intervals, thetas, 2)
        assert rosenblatt_cumulant(spec, H) == pytest.approx(kappa2, rel=1e-12)

    def test_kappa4_value(self):
        # kappa_k = 2^(k-1) (k-1)! sum lambda^k for a second-chaos law, so
        # Cauchy-Schwarz puts kappa_4 in [3 kappa_3^2 / (2 kappa_2), 12 kappa_2^2]
        H = 0.75
        k2, k3, k4 = (rosenblatt_cumulant(
            CumulantSpec(((0.0, 1.0),), (1.0,), k), H) for k in (2, 3, 4))
        assert 1.5 * k3 ** 2 / k2 < k4 < 12.0 * k2 ** 2
        # the dense matrix-power value
        assert k4 == pytest.approx(9.192276127903712, rel=1e-12)
        k4_long = rosenblatt_cumulant(CumulantSpec(((0.0, 2.0),), (1.0,), 4), H)
        assert k4_long == pytest.approx(2.0 ** (4 * H) * k4, rel=1e-12)

    def test_order2_memory_stays_linear(self, monkeypatch):
        spec = CumulantSpec(((0.0, 1.0),), (1.0,), 2)
        monkeypatch.setattr(processes, "CUMULANT_NODES", 1024)
        tracemalloc.start()
        try:
            rosenblatt_cumulant(spec, 0.75)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 2049 x 2049 link matrix alone would take 33.6 MB
        assert peak < 16e6


def _dense_cyclic_sum(spec, H, edges):
    """Tr((P_theta A)^k) by dense matrix powers."""
    mids = 0.5 * (edges[:-1] + edges[1:])
    w = np.diff(edges)
    weight = sum(th * ((mids > s) & (mids < t))
                 for (s, t), th in zip(spec.intervals, spec.thetas))
    A = processes._cell_averaged_link(edges, H, 0, len(w))
    return np.trace(np.linalg.matrix_power((w * weight)[:, None] * A,
                                           spec.order))


class TestCyclicSum:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_matrix_power(self, seed):
        rng = np.random.default_rng(seed)
        H = rng.uniform(0.55, 0.95)
        n_int = int(rng.integers(1, 4))
        ends = np.sort(rng.uniform(-1.0, 2.0, size=(n_int, 2)), axis=1)
        thetas = rng.normal(size=n_int)  # overlapping, either sign
        lo, hi = ends.min(), ends.max()
        # a random mesh has no lattice cell; on the lattice meshes the
        # inner endpoints and a few random points cut lattice cells, and
        # the wider lattice has cells of weight 0 beyond the hull
        random_mesh = np.unique(np.concatenate([
            ends.ravel(), rng.uniform(lo, hi, 304 - 2 * n_int)]))
        assert len(random_mesh) == 304
        lattice = np.linspace(lo, hi, 41)
        wide = np.linspace(lo - 0.3, hi + 0.2, 61)
        cuts = np.concatenate([ends.ravel(), rng.uniform(lo, hi, 5)])
        meshes = [(random_mesh, lattice), (np.union1d(lattice, cuts), lattice),
                  (np.union1d(wide, cuts), wide)]
        for order in (2, 3, 4):
            spec = CumulantSpec(tuple(map(tuple, ends)), tuple(thetas), order)
            for edges, lat in meshes:
                assert processes._cyclic_sum(spec, H, edges, lat) == \
                    pytest.approx(_dense_cyclic_sum(spec, H, edges), rel=1e-12)

    def test_lattice_cells(self):
        lattice = np.linspace(0.0, 1.0, 5)
        edges = np.union1d(lattice, [0.1, 0.3, 0.6])
        np.testing.assert_array_equal(processes._lattice_cells(edges, lattice),
                                      [-1, -1, -1, -1, -1, -1, 3])

    def test_link_rows_match_whole(self):
        edges = np.sort(np.random.default_rng(1).uniform(-1.0, 1.0, 50))
        whole = processes._cell_averaged_link(edges, 0.7, 0, 49)
        np.testing.assert_array_equal(
            processes._cell_averaged_link(edges, 0.7, 11, 30), whole[11:30])


def _increments(ens, intervals, paths):
    return np.column_stack([(ens.at(t) - ens.at(s))[paths]
                            for s, t in intervals])


def test_increment_stationarity_fbm(fbm_ensemble):
    # shifted increments on the other half of the paths, Bonferroni over
    # the two shifts
    half = slice(0, fbm_ensemble.n_paths // 2)
    rest = slice(fbm_ensemble.n_paths // 2, None)
    base = _increments(fbm_ensemble, [(0.0, 0.5)], half)
    for j, h in enumerate((0.25, 0.5)):
        other = _increments(fbm_ensemble, [(h, 0.5 + h)], rest)
        assert energy_two_sample(base, other, level=0.005,
                                 seed=17 + j).passed


def test_increment_reflexivity_fbm(fbm_ensemble):
    # b_t - b_s has the law of b_{-s} - b_{-t}
    intervals = [(0.0, 0.5), (0.5, 1.0)]
    half = slice(0, fbm_ensemble.n_paths // 2)
    rest = slice(fbm_ensemble.n_paths // 2, None)
    base = _increments(fbm_ensemble, intervals, half)
    other = _increments(fbm_ensemble, [(-t, -s) for s, t in intervals], rest)
    assert energy_two_sample(base, other, seed=18).passed


def test_fast_len_is_scipys_next_fast_len():
    assert [processes._fast_len(n) for n in range(1, 20000)] == \
        [fft.next_fast_len(n, real=True) for n in range(1, 20000)]
