import numpy as np
import pytest

from volterrasim import criteria, diagnostics, kernels, processes
from volterrasim.processes import GridSpec, RosenblattScheme, simulate_fbm, \
    simulate_rosenblatt


@pytest.fixture(scope="session")
def fbm_ensemble():
    """Shared two-sided fBm ensemble (H = 0.7) reused across test modules."""
    grid = GridSpec(-1.0, 1.0, 201)
    return simulate_fbm(grid, 0.7, 1500, seed=123)


@pytest.fixture(scope="session")
def rosenblatt_ensemble():
    """Shared two-sided Rosenblatt ensemble (H = 0.75)."""
    grid = GridSpec(-1.0, 1.0, 101)
    scheme = RosenblattScheme.for_grid(grid, 0.75, tail_tol=1e-2, substeps=2)
    return simulate_rosenblatt(grid, scheme, 1500, seed=321), scheme


# where quadrature and sampling run
HEAVY_LAYERS = ((kernels, "_tanhsinh"), (criteria, "_j_levels"),
                (processes, "_cyclic_sum"), (np.random, "Philox"),
                (diagnostics, "_energy_columns"))


def _reached(*args, **kwargs):
    raise AssertionError("a heavy layer ran")


@pytest.fixture
def heavy_layers(monkeypatch):
    """Every layer of HEAVY_LAYERS patched to fail if reached."""
    for owner, name in HEAVY_LAYERS:
        monkeypatch.setattr(owner, name, _reached)
