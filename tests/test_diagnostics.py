import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist, squareform

from volterrasim import diagnostics
from volterrasim.diagnostics import energy_statistic, energy_two_sample
from volterrasim.errors import ConfigError
from volterrasim.rng import substream


@pytest.fixture(scope="module")
def gauss_pair():
    rng = substream(1000, 0)
    return rng.standard_normal((300, 2)), rng.standard_normal((300, 2))


def loop_energy_test(X, Y, n_perm, seed):
    """(statistic, p-value) from one np.ix_ gather per permutation.

    The same cumulative shuffles of substream(seed, 0) as
    energy_two_sample, with each statistic from its block means.
    """
    D = squareform(pdist(np.vstack([X, Y])))
    nx = len(X)

    def stat(ix, iy):
        dxx = D[np.ix_(ix, ix)].sum() / (len(ix) * (len(ix) - 1))
        dyy = D[np.ix_(iy, iy)].sum() / (len(iy) * (len(iy) - 1))
        return 2.0 * D[np.ix_(ix, iy)].mean() - dxx - dyy

    labels = np.arange(len(D))
    observed = stat(labels[:nx], labels[nx:])
    rng = substream(seed, 0)
    count = 0
    for _ in range(n_perm):
        rng.shuffle(labels)
        count += stat(labels[:nx], labels[nx:]) >= observed
    return observed, (count + 1) / (n_perm + 1)


def brute_energy(X, Y):
    """2 E|X-Y| - E|X-X'| - E|Y-Y'| from explicit pairwise distances."""
    def dist(A, B):
        return np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1)

    nx, ny = len(X), len(Y)
    return (2.0 * dist(X, Y).mean() - dist(X, X).sum() / (nx * (nx - 1))
            - dist(Y, Y).sum() / (ny * (ny - 1)))


def full_matrix_energy_test(X, Y, n_perm, seed):
    """(statistic, p-value) of energy_two_sample from one full cdist matrix.

    The same shuffles, indicator matrix and block sums, with the whole
    n x n distance matrix in one product and one row sum.
    """
    D = cdist(np.vstack([X, Y]), np.vstack([X, Y]))
    nx, ny = len(X), len(Y)
    labels = np.arange(nx + ny)
    rows = np.zeros((n_perm + 1, nx + ny))
    rows[0, :nx] = 1.0
    rng = substream(seed, 0)
    for k in range(1, n_perm + 1):
        rng.shuffle(labels)
        rows[k, labels[:nx]] = 1.0
    in_x = rows.T
    in_y = 1.0 - in_x
    to_x = D @ in_x
    to_y = D.sum(axis=1)[:, None] - to_x
    sxy = np.einsum("ik,ik->k", in_y, to_x)
    sxx = np.einsum("ik,ik->k", in_x, to_x)
    syy = np.einsum("ik,ik->k", in_y, to_y)
    stats = 2.0 * (sxy / (nx * ny)) - sxx / (nx * (nx - 1)) \
        - syy / (ny * (ny - 1))
    p = (np.count_nonzero(stats[1:] >= stats[0]) + 1) / (n_perm + 1)
    return float(stats[0]), float(p)


def sample_pair(nx, ny, dim, shift, seed, kind="normal"):
    rng = substream(seed, 1)
    if kind == "discrete":
        # few distinct integer values: ties among permuted statistics are
        # common, and integer distances make every block sum exact
        return (rng.integers(0, 3, (nx, dim)).astype(float),
                rng.integers(0, 3, (ny, dim)).astype(float) + shift)
    if kind == "duplicated":
        # every row appears twice within its sample
        X = np.repeat(rng.standard_normal((nx // 2, dim)), 2, axis=0)
        Y = np.repeat(rng.standard_normal((ny // 2, dim)), 2, axis=0)
        return X, Y + shift
    return rng.standard_normal((nx, dim)), rng.standard_normal((ny, dim)) + shift


class TestEnergyStatistic:
    def test_near_zero_for_identical_samples(self):
        rng = substream(2000, 0)
        X = rng.standard_normal((400, 2))
        # cross-mean includes the zero diagonal, so the statistic is a
        # small non-positive O(1/n) artifact rather than exactly zero
        stat = energy_statistic(X, X)
        assert -0.05 < stat <= 0.0

    def test_positive_for_shifted_samples(self, gauss_pair):
        X, _ = gauss_pair
        assert energy_statistic(X, X + 5.0) > 1.0

    # the last two span more than one row block of distances (256 rows)
    @pytest.mark.parametrize("nx, ny, dim", [(40, 70, 3), (55, 30, 1),
                                             (255, 2, 2), (300, 213, 2)])
    def test_matches_brute_force(self, nx, ny, dim):
        X, Y = sample_pair(nx, ny, dim, 0.4, seed=11)
        assert energy_statistic(X, Y) == pytest.approx(brute_energy(X, Y),
                                                       rel=1e-12)

    @pytest.mark.parametrize("test", [energy_statistic, energy_two_sample])
    def test_samples_must_share_dimension(self, gauss_pair, test):
        X, Y = gauss_pair
        with pytest.raises(ValueError, match="samples must share dimension"):
            test(X, Y[:, :1])

    @pytest.mark.parametrize("test", [energy_statistic, energy_two_sample])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_refused(self, gauss_pair, test, bad):
        X, Y = gauss_pair
        holed = X.copy()
        holed[3, 0] = bad
        for pair in ((holed, Y), (Y, holed)):
            with pytest.raises(ConfigError, match="samples must be finite"):
                test(*pair)


class TestEnergyTwoSample:
    def test_same_law_passes(self, gauss_pair):
        X, Y = gauss_pair
        rep = energy_two_sample(X, Y, seed=3)
        assert rep.passed
        assert rep.p_value > 0.01

    def test_different_law_fails(self, gauss_pair):
        X, Y = gauss_pair
        rep = energy_two_sample(X, Y + 1.0, seed=3)
        assert not rep.passed
        assert rep.p_value == pytest.approx(1.0 / 201.0)

    def test_deterministic_and_symmetric(self, gauss_pair):
        X, Y = gauss_pair
        a = energy_two_sample(X, Y, seed=9)
        b = energy_two_sample(X, Y, seed=9)
        assert a.p_value == b.p_value
        # swapping the samples keeps the statistic; the p-value may move,
        # because the same shuffles then label other observations
        c = energy_two_sample(Y, X, seed=9)
        assert c.statistic == pytest.approx(a.statistic, rel=1e-12)

    def test_constant_samples_trivially_equal(self):
        X = np.zeros((60, 1))
        rep = energy_two_sample(X, X, seed=0)
        assert rep.passed and rep.p_value == 1.0

    def test_input_validation(self, gauss_pair):
        X, Y = gauss_pair
        with pytest.raises(ValueError):
            energy_two_sample(X, Y[:, :1], seed=0)
        with pytest.raises(ValueError):
            energy_two_sample(X[:10], Y, seed=0)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.1, 1.5])
    def test_rejects_level_outside_unit_interval(self, gauss_pair, level):
        X, Y = gauss_pair
        with pytest.raises(ValueError, match="level"):
            energy_two_sample(X, Y, level=level, seed=0)

    def test_report_str(self, gauss_pair):
        X, Y = gauss_pair
        s = str(energy_two_sample(X, Y, seed=3))
        assert "p=" in s and ("pass" in s or "FAIL" in s)


class TestAgainstPermutationLoop:
    """energy_two_sample against the one-gather-per-permutation loop."""

    @pytest.mark.parametrize(
        "nx, ny, dim, shift, n_perm, kind",
        [(60, 90, 3, 0.0, 200, "normal"),
         (90, 60, 3, 0.5, 200, "normal"),
         (80, 80, 1, 0.2, 200, "normal"),
         (100, 100, 12, 0.0, 200, "normal"),
         (100, 100, 12, 0.3, 1, "normal"),
         (60, 90, 2, 0.2, 200, "duplicated"),
         (70, 80, 1, 0.0, 200, "discrete"),
         (70, 80, 1, 0.0, 1, "discrete")])
    def test_same_p_value_and_statistic(self, monkeypatch, nx, ny, dim, shift,
                                        n_perm, kind):
        X, Y = sample_pair(nx, ny, dim, shift, seed=nx + dim, kind=kind)
        observed, p = loop_energy_test(X, Y, n_perm, seed=5)
        monkeypatch.setattr(diagnostics, "N_PERM", n_perm)
        rep = energy_two_sample(X, Y, seed=5)
        assert rep.p_value == p
        assert rep.statistic == pytest.approx(observed, rel=1e-9)

    def test_same_verdict_for_every_blas_thread_count(self):
        # the statistics come out of a matrix product, whose blocking may
        # follow the thread count; the p-value must not
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = (
            "from volterrasim.diagnostics import energy_two_sample\n"
            "from volterrasim.rng import substream\n"
            "rng = substream(77, 0)\n"
            "X = rng.standard_normal((300, 12))\n"
            "Y = rng.standard_normal((300, 12)) + 0.05\n"
            "rep = energy_two_sample(X, Y, seed=2)\n"
            "print(rep.statistic.hex(), rep.p_value.hex())\n")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.abspath(src))
            res = subprocess.run([sys.executable, "-c", code], env=env,
                                 check=True, capture_output=True, text=True)
            outs.append([float.fromhex(x) for x in res.stdout.split()])
        (stat1, p1), (stat2, p2) = outs
        assert p1 == p2
        assert stat2 == pytest.approx(stat1, rel=1e-12)


class TestDistancesByRowBlock:
    def test_large_test_holds_no_full_distance_matrix(self, monkeypatch):
        # one 6000 x 6000 distance matrix is 275 MiB; traced peaks of
        # this call: 279 MiB with the whole matrix, 27 MiB by row blocks
        X, Y = sample_pair(3000, 3000, 3, 0.05, seed=21)
        assert (len(X) + len(Y)) % diagnostics.ROW_BLOCK != 0
        monkeypatch.setattr(diagnostics, "N_PERM", 20)
        tracemalloc.start()
        try:
            rep = energy_two_sample(X, Y, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20
        stat, p = full_matrix_energy_test(X, Y, 20, seed=4)
        assert rep.statistic.hex() == stat.hex()
        assert rep.p_value == p
