"""Helpers that only the tests use: phi's dispatcher, a CSV reader and two
generic kernels."""

import numpy as np

from volterrasim.kernels import FbmKernel, VolterraKernel, phi_quadrature
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


def generic_fbm_clone(H):
    """The fBm kernel wrapped as a generic kernel with no closed forms."""
    base = FbmKernel(H)
    return VolterraKernel(alpha=base.alpha, eval=base.eval, deriv=base.deriv,
                          regularity_const=base.regularity_const)


TEMPERED_ALPHA = 0.2


def tempered_kernel():
    """K(t, r) = (t - r)^alpha e^-(t - r): regular, but not fBm."""
    a = TEMPERED_ALPHA

    def k_eval(t, r):
        d = np.maximum(np.asarray(t - r, float), 0.0)
        return d ** a * np.exp(-d)

    def k_deriv(u, r):
        w = u - r
        return np.exp(-w) * w ** (a - 1.0) * (a - w)

    return VolterraKernel(alpha=a, eval=k_eval, deriv=k_deriv,
                          regularity_const=0.31)
