"""Statistical comparison of ensemble laws.

The workhorse is the energy two-sample test with permutation
calibration; it backs every equality-in-law claim checked by the
package.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, _check_count, check_finite
from .rng import substream

ROW_BLOCK = 128  # distance-matrix rows made and used together
MIN_OBSERVATIONS = 50  # the fewest rows energy_two_sample takes per sample
N_PERM = 200  # shuffles that calibrate energy_two_sample's p-value


@dataclass(frozen=True)
class TwoSampleReport:
    statistic: float
    p_value: float
    n_permutations: int
    level: float

    @property
    def passed(self) -> bool:
        return self.p_value >= self.level

    def __str__(self):
        verdict = "pass" if self.passed else "FAIL"
        return (f"energy={self.statistic:.6g} p={self.p_value:.4f} "
                f"(n_perm={self.n_permutations}, level={self.level}): {verdict}")


def energy_statistic(X: np.ndarray, Y: np.ndarray) -> float:
    """E-distance 2 E|X-Y| - E|X-X'| - E|Y-Y'| from sample means."""
    Z, nx = _stack(X, Y)
    in_x = np.zeros((len(Z), 1))
    in_x[:nx] = 1.0
    return float(_energy_columns(Z, in_x)[0])


def _stack(X, Y):
    """(the rows of X stacked over those of Y, len(X)); ConfigError if a
    value is not finite."""
    X = np.atleast_2d(np.asarray(X, float))
    Y = np.atleast_2d(np.asarray(Y, float))
    if X.shape[1] != Y.shape[1]:
        raise ConfigError("samples must share dimension")
    Z = np.vstack([X, Y])
    check_finite("samples", Z)
    return Z, len(X)


def _energy_columns(Z, in_x):
    """E-statistic of each labelling in the columns of the 0/1 matrix in_x.

    Column k marks with 1 the rows of Z labelled X; every column marks
    the same number of them.  The block sums follow from one product
    with the distance matrix D of the rows of Z: (D in_x)[i, k] is the
    distance from row i to the X group of labelling k, and its row sum
    less that is the distance to the Y group.  Summing these over the X
    rows of column k gives the XX block and over the Y rows the XY and
    YY blocks.  D is made ROW_BLOCK rows at a time, each block used for
    its rows of the product and of the row sums, so it never exists
    whole.
    """
    in_y = 1.0 - in_x
    nx = int(in_x[:, 0].sum())
    ny = len(Z) - nx
    to_x = np.empty(in_x.shape)
    to_all = np.empty((len(Z), 1))
    for r0 in range(0, len(Z), ROW_BLOCK):
        rows = slice(r0, r0 + ROW_BLOCK)
        D = cdist(Z[rows], Z)
        np.matmul(D, in_x, out=to_x[rows])
        D.sum(axis=1, out=to_all[rows, 0])
    to_y = to_all - to_x
    sxy = np.einsum("ik,ik->k", in_y, to_x)
    sxx = np.einsum("ik,ik->k", in_x, to_x)
    syy = np.einsum("ik,ik->k", in_y, to_y)
    dxx = sxx / (nx * (nx - 1)) if nx > 1 else 0.0
    dyy = syy / (ny * (ny - 1)) if ny > 1 else 0.0
    return 2.0 * (sxy / (nx * ny)) - dxx - dyy


def energy_two_sample(X, Y, level: float = 0.01,
                      seed: int = 0) -> TwoSampleReport:
    """Permutation-calibrated energy test; deterministic given seed.

    Rows are observations.  Distances are computed once.  The observed
    labelling and the N_PERM cumulative shuffles of substream(seed, 0)
    fill the rows of one 0/1 indicator matrix, and the products of the
    distance matrix's row blocks with its transpose give the statistic
    of every labelling (see _energy_columns).  The p-value counts the
    shuffles whose statistic reaches the observed one.
    """
    if not 0.0 < level < 1.0:
        raise ConfigError("need 0 < level < 1")
    Z, nx = _stack(X, Y)
    ny = len(Z) - nx
    _check_count("observations per sample", min(nx, ny), MIN_OBSERVATIONS)
    rng = substream(seed, 0)
    labels = np.arange(nx + ny)
    in_x = np.zeros((N_PERM + 1, nx + ny))
    in_x[0, :nx] = 1.0
    for k in range(1, N_PERM + 1):
        rng.shuffle(labels)
        in_x[k, labels[:nx]] = 1.0
    stats = _energy_columns(Z, in_x.T)
    count = np.count_nonzero(stats[1:] >= stats[0])
    p = (count + 1) / (N_PERM + 1)
    return TwoSampleReport(float(stats[0]), float(p), N_PERM, level)
