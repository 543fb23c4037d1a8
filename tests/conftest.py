import math

import numpy as np
import pytest

from membrane_rd import ModelParams, build_grid, initial_data, steady_state


@pytest.fixture(scope="session")
def paper_steady():
    """Equilibrium of the reference experiment (total mass 4/5, alpha = 1)."""
    return steady_state(0.8, eps=1.0, alpha=1.0)


@pytest.fixture(scope="session")
def paper_jac(paper_steady):
    return paper_steady.jac


@pytest.fixture
def default_params():
    return ModelParams()


def make_params(**kw):
    return ModelParams(**kw)


def fig3_state(params):
    grid = build_grid(params)
    u0, v0 = initial_data(params, grid)
    return grid, u0, v0


def q_root_oracle(K, n_roots, L=1.0):
    """Roots of xi*tan(xi/2) = 2K by fine scan + interval halving.

    Independent of the package's change of variable and branch bracketing:
    scans the xi axis directly, keeps only upward sign changes (downward
    ones are tangent poles), then halves the bracketing interval.
    """
    q = lambda xi: xi * math.tan(xi / 2.0) - 2.0 * K
    roots = []
    xi_grid = np.arange(1e-6, 2 * (n_roots + 2) * math.pi, 1e-4)
    vals = np.array([xi * math.tan(xi / 2.0) - 2.0 * K for xi in xi_grid])
    idx = np.nonzero((vals[:-1] < 0) & (vals[1:] >= 0))[0]
    for i in idx[:n_roots]:
        lo, hi = xi_grid[i], xi_grid[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if q(mid) < 0:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)
