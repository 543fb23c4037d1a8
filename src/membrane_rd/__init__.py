"""Turing instability for a two-species reaction-diffusion system with a membrane.

The package splits into the layers one would use interactively:

- :mod:`membrane_rd.model`: reactions, parameters, steady state.
- :mod:`membrane_rd.stability`: dispersion relation and the unstable range.
- :mod:`membrane_rd.spectrum`: membrane-Laplacian eigenvalues/eigenfunctions.
- :mod:`membrane_rd.fdm`: theta-method time stepper on the split grid.
- :mod:`membrane_rd.cli`: `membrane-rd` command line front end.
"""

from .model import (
    Jacobian,
    ModelParams,
    PERMEABILITY_INF,
    SteadyState,
    conserved_mass,
    h,
    h_prime,
    initial_data,
    reaction,
    steady_state,
)
from .stability import (
    DispersionResult,
    InstabilityRange,
    dispersion,
    instability_range,
    mode_eigenvector,
    ode_stability,
    p_polynomial,
    theta_critical,
)
from .spectrum import (
    EigenMode,
    count_unstable,
    discrete_spectrum_oracle,
    eigenfunction,
    eigenvalues,
    project,
)
from .fdm import (
    BlowUpError,
    Grid,
    SimResult,
    assemble,
    build_grid,
    midpoint_grid,
    run,
    run_batch,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError", "DispersionResult", "EigenMode", "Grid",
    "InstabilityRange", "Jacobian", "ModelParams", "PERMEABILITY_INF",
    "SimResult", "SteadyState", "assemble", "build_grid",
    "conserved_mass", "count_unstable", "discrete_spectrum_oracle",
    "dispersion", "eigenfunction", "eigenvalues", "h", "h_prime",
    "initial_data", "instability_range", "midpoint_grid", "mode_eigenvector",
    "ode_stability", "p_polynomial", "project", "reaction", "run",
    "run_batch", "steady_state", "step", "theta_critical",
]
