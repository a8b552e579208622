import numpy as np
import pytest

from gauss_deficit.numerics import Grid1D, default_grid, gauss_hermite_rule


@pytest.fixture(scope="session")
def grid():
    return default_grid()


@pytest.fixture(scope="session")
def small_grid():
    """A coarser grid for O(N^2) Hopf-Lax sweeps."""
    return Grid1D(-12.0, 12.0, 1025)


@pytest.fixture(scope="session")
def rule():
    return gauss_hermite_rule(96)


def gauss_log(x):
    x = np.asarray(x, float)
    return -0.5 * x * x - 0.5 * np.log(2.0 * np.pi)
