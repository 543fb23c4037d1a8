"""Theta-method time stepper on the two-segment grid with a duplicated membrane trace.

Each side carries N+1 cell-averaged unknowns at spacing dx; the membrane
value appears twice (left trace u_{N_l}, right trace u_{N_l+1} in global
0-based numbering), which is what lets the scheme impose the transmission
conditions on a jump.  Ghost points are eliminated into the boundary and
membrane rows, giving globally tridiagonal update matrices

    lhs U^{n+1} = rhs U^n + dt F^n

with interior rows (-mu*T, 1+2*mu*T, -mu*T), one-sided Neumann end rows,
and membrane rows coupling the two traces through kappa = dt*k/dx.  The
row and column sums of both matrices are exactly 1, so constants are fixed
points of the pure-diffusion update and dx*sum(U+V) is conserved.

The step is evaluated in increment form,

    (I + T*C) (U^{n+1} - U^n) = dt F^n - C U^n,

algebraically identical to the matrix form above (lhs = I + T*C,
rhs = I - (1-T)*C), with C U computed as a difference of face fluxes.  That
makes the discrete mass telescope exactly in floating point instead of to
solver accuracy.

Both species are stepped as one stacked state w = [U; V] of length 2n.  Its
2n-1 faces are the u faces, an exact 0.0 at the U/V junction, then the v
faces, so C is block diagonal and I + T*C has a single banded Cholesky
factor, computed once per run.  The junction face carries a zero flux, adds
nothing to the diagonal and makes the factor's coupling entry zero, so the
flux difference, the factor and its two substitutions do the same
floating-point operations on every entry as separate U and V steps: the
stacked step is bitwise equal to them.  The step loop writes into
preallocated buffers and calls LAPACK ``pbtrs`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky_banded, get_lapack_funcs

from .model import ModelParams, SteadyState, conserved_mass, reaction, steady_state


class BlowUpError(RuntimeError):
    """The state left the range of finite floats."""

    def __init__(self, message, step_index=None, t=None):
        super().__init__(message)
        self.step_index = step_index
        self.t = t


@dataclass(frozen=True, eq=False)
class Grid:
    """Two-segment grid; ``centers`` holds x_m twice (left trace, right trace)."""

    N_l: int
    N_r: int
    dx: float
    x_m: float
    L: float
    centers: np.ndarray

    @property
    def n_points(self) -> int:
        return self.N_l + self.N_r + 2

    @property
    def membrane_index(self) -> tuple[int, int]:
        return self.N_l, self.N_l + 1

    @property
    def left(self) -> slice:
        return slice(0, self.N_l + 1)

    @property
    def right(self) -> slice:
        return slice(self.N_l + 1, self.n_points)


@dataclass(frozen=True, eq=False)
class Field:
    """Discrete state of one species on the two-segment grid."""

    values: np.ndarray
    species: str

    def check(self, grid: Grid) -> "Field":
        if self.values.shape != (grid.n_points,):
            raise ValueError(
                f"{self.species}: length {self.values.shape} does not match "
                f"grid ({grid.n_points} points)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"{self.species}: non-finite entries")
        return self


@dataclass(frozen=True, eq=False)
class StepOperator:
    """Assembled tridiagonal operator for one species.

    ``lhs`` = I + T*C uses banded (3, n) storage: row 0 the super-diagonal
    (shifted right), row 1 the diagonal, row 2 the sub-diagonal (shifted
    left).  ``faces`` are the n-1 face coefficients of C = dt*H (mesh
    ratios inside the segments, kappa at the membrane face), without the
    scheme weight.
    """

    species: str
    lhs: np.ndarray
    faces: np.ndarray
    mu_l: float
    mu_r: float
    kappa: float
    theta_weight: float


def _checked_dx(params: ModelParams) -> float:
    N_l, N_r = params.N_l, params.N_r
    if N_l < 2 or N_r < 2:
        raise ValueError("need at least 2 cells per side")
    dx_l = params.x_m / (N_l + 1)
    dx_r = (params.L - params.x_m) / (N_r + 1)
    if abs(dx_l - dx_r) > 1e-12 * max(dx_l, dx_r):
        raise ValueError(
            f"segment steps disagree: (x_m)/(N_l+1) = {dx_l!r} but "
            f"(L-x_m)/(N_r+1) = {dx_r!r}"
        )
    return dx_l


def build_grid(params: ModelParams) -> Grid:
    """State grid; both segments must share the same dx.

    The left unknowns sit at dx, 2*dx, ..., x_m and the right unknowns at
    x_m, x_m + dx, ..., L - dx: the membrane carries one unknown per side,
    both located at x_m.
    """
    dx = _checked_dx(params)
    N_l, N_r = params.N_l, params.N_r
    centers = np.concatenate([
        (np.arange(N_l + 1) + 1) * dx,
        params.x_m + np.arange(N_r + 1) * dx,
    ])
    return Grid(N_l=N_l, N_r=N_r, dx=dx, x_m=params.x_m, L=params.L,
                centers=centers)


def midpoint_grid(params: ModelParams) -> Grid:
    """Quadrature grid: midpoints of cells that tile each segment exactly.

    The state grid trades quadrature accuracy for a duplicated membrane
    trace (its end cells overhang the segments by dx/2, making the plain
    dx*sum rule first-order).  For integrals of smooth functions, sample on
    this staggered layout instead: dx*sum is then the composite midpoint
    rule on (0, x_m) and (x_m, L), accurate to O(dx^2).
    """
    dx = _checked_dx(params)
    N_l, N_r = params.N_l, params.N_r
    centers = np.concatenate([
        (np.arange(N_l + 1) + 0.5) * dx,
        params.x_m + (np.arange(N_r + 1) + 0.5) * dx,
    ])
    return Grid(N_l=N_l, N_r=N_r, dx=dx, x_m=params.x_m, L=params.L,
                centers=centers)


def _face_coefficients(params: ModelParams, D_l: float, D_r: float,
                       k: float) -> np.ndarray:
    grid_n = params.N_l + params.N_r + 2
    dx, dt = params.dx, params.dt
    faces = np.empty(grid_n - 1)
    faces[: params.N_l] = D_l * dt / dx**2
    faces[params.N_l] = k * dt / dx
    faces[params.N_l + 1:] = D_r * dt / dx**2
    return faces


def _banded_from_faces(faces: np.ndarray, weight: float) -> np.ndarray:
    # I + weight*C in (3, n) banded storage
    n = faces.size + 1
    ab = np.zeros((3, n))
    ab[1] = 1.0
    ab[1, :-1] += weight * faces
    ab[1, 1:] += weight * faces
    ab[0, 1:] = -weight * faces
    ab[2, :-1] = -weight * faces
    return ab


def assemble(params: ModelParams, species: str) -> StepOperator:
    """Tridiagonal theta-method operator for species 'u' or 'v'."""
    if species == "u":
        D_l, D_r, k = params.D_ul, params.D_ur, params.k_u
    elif species == "v":
        D_l, D_r, k = params.D_vl, params.D_vr, params.k_v
    else:
        raise ValueError(f"species must be 'u' or 'v', got {species!r}")
    T = params.Theta_scheme
    faces = _face_coefficients(params, D_l, D_r, k)
    return StepOperator(
        species=species, lhs=_banded_from_faces(faces, T), faces=faces,
        mu_l=D_l * params.dt / params.dx**2,
        mu_r=D_r * params.dt / params.dx**2,
        kappa=k * params.dt / params.dx,
        theta_weight=T,
    )


def _stepper(operators, params: ModelParams, mode: str,
             linearization: SteadyState | None):
    """The step kernel for the stacked state w = [U; V].

    Returns ``advance(w, w_new)``, which writes the step from w into w_new
    and returns the rate max|w_new - w| / dt, or raises BlowUpError if
    w_new is not finite.  It reuses the buffers made here; callers silence
    floating-point warnings once around their loop.
    """
    dt = params.dt
    if mode == "nonlinear":
        eps, alpha = params.eps, params.alpha

        def react(U, V):
            return reaction(U, V, eps, alpha)
    elif mode == "linearized":
        if linearization is None:
            raise ValueError("linearized mode needs the steady state")
        ss = linearization

        def react(U, V):
            du = U - ss.u_bar
            dv = V - ss.v_bar
            return ss.jac.fu * du + ss.jac.fv * dv, ss.jac.gu * du + ss.jac.gv * dv
    elif mode == "diffusion":
        react = None
    else:
        raise ValueError(f"mode must be nonlinear|linearized|diffusion, got {mode!r}")

    op_u, op_v = operators
    n = op_u.faces.size + 1
    faces = np.concatenate([op_u.faces, [0.0], op_v.faces])
    # the v block's unused corner lhs[0, 0] == 0 is the junction coupling
    chol = cholesky_banded(np.hstack([op_u.lhs[:2], op_v.lhs[:2]]), lower=False)
    pbtrs, = get_lapack_funcs(("pbtrs",), (chol,))
    flux = np.empty(2 * n - 1)
    flux_hi, flux_lo = flux[1:], flux[:-1]
    rhs = np.empty(2 * n)
    rhs_u, rhs_v, rhs_inner = rhs[:n], rhs[n:], rhs[1:-1]
    work = np.empty(2 * n)
    work_u = work[:n]

    def advance(w, w_new):
        if react is not None:
            f, g = react(w[:n], w[n:])
        # rhs = -C w as a telescoping difference of the face fluxes
        np.subtract(w[1:], w[:-1], out=flux)
        np.multiply(faces, flux, out=flux)
        rhs[0] = flux[0]
        np.subtract(flux_hi, flux_lo, out=rhs_inner)
        rhs[-1] = -flux[-1]
        if react is not None:
            np.add(rhs_u, np.multiply(f, dt, out=work_u), out=rhs_u)
            np.add(rhs_v, np.multiply(g, dt, out=work_u), out=rhs_v)
        x, info = pbtrs(chol, rhs, overwrite_b=1)
        if info:
            raise (LinAlgError if info > 0 else ValueError)(f"pbtrs: info = {info}")
        np.add(w, x, out=w_new)
        np.subtract(w_new, w, out=work)
        rate = float(np.abs(work, out=work).max()) / dt
        # a non-finite entry of w_new makes the rate inf or nan
        if not math.isfinite(rate) and not np.isfinite(w_new).all():
            raise BlowUpError("non-finite state after step")
        return rate

    return advance


def step(state, operators, params: ModelParams, mode: str = "nonlinear", *,
         linearization: SteadyState | None = None):
    """One theta-method step; the reaction is evaluated explicitly at time n.

    mode 'nonlinear' uses the full reactions, 'linearized' the Jacobian at
    the equilibrium applied to deviations, 'diffusion' switches the
    reactions off.  Returns the new (U, V).
    """
    advance = _stepper(operators, params, mode, linearization)
    w = np.concatenate(state, dtype=float)
    w_new = np.empty_like(w)
    # blow-up is detected by the kernel; keep the overflow path silent
    with np.errstate(over="ignore", invalid="ignore"):
        advance(w, w_new)
    n = w.size // 2
    return w_new[:n], w_new[n:]


@dataclass(eq=False)
class SimResult:
    """Outcome of one time integration."""

    params: ModelParams
    grid: Grid
    mode: str
    u: Field
    v: Field
    t_final: float
    n_steps: int
    converged: bool
    jump: tuple[float, float]
    snapshots: list          # (t, U, V) copies at geometrically spaced times
    mass_series: list        # (t, dx*sum(U+V)) at the snapshot times
    mass_drift: float        # max |mass - mass0| / |mass0| over the series

    @property
    def mass_initial(self) -> float:
        return self.mass_series[0][1]


def _snapshot_times(T: float) -> list[float]:
    return [T / 2**j for j in range(6, -1, -1)]


def run(params: ModelParams, initial, T: float, mode: str = "nonlinear", *,
        steady_tol: float = 1e-8, steady_stop: bool = True,
        linearization: SteadyState | None = None) -> SimResult:
    """Integrate to time T, or stop earlier once max|dU, dV|/dt < steady_tol.

    ``initial`` is the (u0, v0) pair on the grid of ``params``.  Snapshots
    (with the running mass) are recorded at t = 0 and at the geometric
    times T/64, T/32, ..., T.  Blow-up raises BlowUpError with the step
    index attached.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    grid = build_grid(params)
    U = np.array(initial[0], dtype=float)
    V = np.array(initial[1], dtype=float)
    Field(U, "u").check(grid)
    Field(V, "v").check(grid)
    operators = (assemble(params, "u"), assemble(params, "v"))
    if mode == "linearized" and linearization is None:
        M = conserved_mass(U, V, grid)
        linearization = steady_state(M, params.eps, params.alpha)

    advance = _stepper(operators, params, mode, linearization)

    dt = params.dt
    n_steps = int(np.ceil(T / dt - 1e-9))
    targets = _snapshot_times(T)
    mass0 = grid.dx * float(np.sum(U) + np.sum(V))
    snapshots = [(0.0, U.copy(), V.copy())]
    mass_series = [(0.0, mass0)]
    n = grid.n_points
    w = np.concatenate([U, V])
    w_new = np.empty_like(w)
    converged = False
    t = 0.0
    it = 0
    next_target = 0
    try:
        # blow-up is detected by the kernel; keep the overflow path silent
        with np.errstate(over="ignore", invalid="ignore"):
            for it in range(1, n_steps + 1):
                rate = advance(w, w_new)
                w, w_new = w_new, w
                t = it * dt
                if next_target < len(targets) and t >= targets[next_target] - 1e-12:
                    U, V = w[:n].copy(), w[n:].copy()
                    snapshots.append((t, U, V))
                    mass_series.append((t, grid.dx * float(np.sum(U) + np.sum(V))))
                    while (next_target < len(targets)
                           and t >= targets[next_target] - 1e-12):
                        next_target += 1
                converged = rate < steady_tol
                if converged and steady_stop:
                    break
    except BlowUpError as exc:
        raise BlowUpError(str(exc), step_index=it, t=it * dt) from None

    U, V = w[:n].copy(), w[n:].copy()
    if snapshots[-1][0] != t:
        snapshots.append((t, U.copy(), V.copy()))
        mass_series.append((t, grid.dx * float(np.sum(U) + np.sum(V))))
    drift = max(abs(m - mass0) for _, m in mass_series) / abs(mass0)
    i, j = grid.membrane_index
    return SimResult(
        params=params, grid=grid, mode=mode,
        u=Field(U, "u"), v=Field(V, "v"),
        t_final=t, n_steps=it, converged=converged,
        jump=(abs(U[j] - U[i]), abs(V[j] - V[i])),
        snapshots=snapshots, mass_series=mass_series, mass_drift=drift,
    )


# ---------------------------------------------------------------- diagnostics

def membrane_jump(values: np.ndarray, grid: Grid) -> float:
    """|right trace - left trace| at the membrane."""
    i, j = grid.membrane_index
    return abs(float(values[j] - values[i]))


def side_variation(values: np.ndarray, grid: Grid) -> tuple[float, float]:
    """(max - min) of the profile on each side of the membrane."""
    lv = values[grid.left]
    rv = values[grid.right]
    return float(np.ptp(lv)), float(np.ptp(rv))


def sign_changes(values: np.ndarray, level: float, grid: Grid) -> tuple[int, int]:
    """Interior sign changes of values - level on each side (zeros skipped)."""

    def count(seg: np.ndarray) -> int:
        s = np.sign(seg - level)
        s = s[s != 0]
        return int(np.sum(s[1:] != s[:-1]))

    return count(values[grid.left]), count(values[grid.right])


def kedem_katchalsky_residual(U: np.ndarray, grid: Grid, D_l: float, D_r: float,
                              k: float) -> tuple[float, float]:
    """Defect of the transmission law under one-sided difference quotients.

    Returns |D_l (u_m - u_{m-1})/dx - k*jump| and the right-side analogue;
    both are O(dx) for a converged profile.
    """
    i, j = grid.membrane_index
    jump = float(U[j] - U[i])
    flux_l = D_l * float(U[i] - U[i - 1]) / grid.dx
    flux_r = D_r * float(U[j + 1] - U[j]) / grid.dx
    return abs(flux_l - k * jump), abs(flux_r - k * jump)
