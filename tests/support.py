"""Helpers that only the tests use: phi's dispatcher and a CSV reader."""

import numpy as np

from volterrasim.kernels import VolterraKernel, phi_quadrature
from volterrasim.processes import Ensemble, GridSpec


def phi(kernel: VolterraKernel, u: float, v: float) -> float:
    """Two-point function phi(u, v); closed form when available."""
    if u == v:
        raise ValueError("phi is defined off the diagonal only (u != v)")
    closed = kernel.phi_closed_form(u, v)
    if closed is not None:
        return closed
    return phi_quadrature(kernel, u, v)


def ensemble_from_csv(path) -> Ensemble:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    data = np.atleast_2d(data)
    times = data[:, 0]
    grid = GridSpec(float(times[0]), float(times[-1]), len(times))
    return Ensemble(grid, data[:, 1:])
