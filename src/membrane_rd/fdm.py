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

One kernel steps B >= 1 parameter sets (members) at once, as one stacked
state w = [U_1 ... U_B, V_1 ... V_B].  Its faces are each block's own faces
with an exact 0.0 at every block junction, so C is block diagonal.  I + T*C
is symmetric positive definite and tridiagonal, factored once per member as
L D L^T by LAPACK ``pttrf``: a diagonal D and the unit sub-diagonal of L.
The batch factor joins the members' D and sub-diagonals with the same exact
0.0 at every junction, and each step is one ``pttrs``, solving in place.
A junction face carries a zero flux and adds nothing to the diagonal, and
a zero sub-diagonal entry adds b*0 to both substitutions, so the flux
difference and the solve do the same floating-point operations on every
entry as a member stepped alone.  Each member's dt, eps, alpha (or its
linearisation) enter per entry, and its rate max|dU, dV|/dt is the max
over its two blocks; B = 1 uses scalars and one max instead.  A member
that converges or takes its last step leaves the batch, and the kernel is
rebuilt from the rest.  The one exception to block independence is
0 * inf = nan at a junction: a blow-up spreads into the other blocks, so
the step is then repeated for each member alone to find who blew up, and
redone without them.  Hence `run_batch` gives every member bit for bit the
result of `run`, which is the same kernel at B = 1; `step` is one call of
it.  The step loop writes into preallocated buffers.

A membrane permeability at or above ``PERMEABILITY_INF`` is stepped as
that sentinel, the transparent membrane: a larger k would swamp the 1 of
I + T*C in rounding and lose mass without changing the physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, get_lapack_funcs

from .model import (
    PERMEABILITY_INF,
    ModelParams,
    SteadyState,
    conserved_mass,
    reaction,
    steady_state,
)

_pttrf, _pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=np.float64)


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
class StepOperator:
    """Assembled tridiagonal operator for one species.

    ``lhs`` = I + T*C uses banded (3, n) storage: row 0 the super-diagonal
    (shifted right), row 1 the diagonal, row 2 the sub-diagonal (shifted
    left).  ``faces`` are the n-1 face coefficients of C = dt*H (mesh
    ratios D*dt/dx^2 inside the segments, dt*k/dx at the membrane face),
    without the scheme weight.
    """

    lhs: np.ndarray
    faces: np.ndarray


def _grid(params: ModelParams, offset_l: float, offset_r: float) -> Grid:
    # point i of a side sits at the side's start + (i + offset)*dx, at the
    # dx the stepper's faces use
    dx, N_l, N_r = params.dx, params.N_l, params.N_r
    centers = np.concatenate([
        (np.arange(N_l + 1) + offset_l) * dx,
        params.x_m + (np.arange(N_r + 1) + offset_r) * dx,
    ])
    return Grid(N_l=N_l, N_r=N_r, dx=dx, x_m=params.x_m, L=params.L,
                centers=centers)


def build_grid(params: ModelParams) -> Grid:
    """State grid at the step and cell counts of ``params``.

    The left unknowns sit at dx, 2*dx, ..., x_m and the right unknowns at
    x_m, x_m + dx, ..., L - dx: the membrane carries one unknown per side,
    both located at x_m.
    """
    return _grid(params, 1.0, 0.0)


def midpoint_grid(params: ModelParams) -> Grid:
    """Quadrature grid: midpoints of cells that tile each segment exactly.

    The state grid trades quadrature accuracy for a duplicated membrane
    trace (its end cells overhang the segments by dx/2, making the plain
    dx*sum rule first-order).  For integrals of smooth functions, sample on
    this staggered layout instead: dx*sum is then the composite midpoint
    rule on (0, x_m) and (x_m, L), accurate to O(dx^2).
    """
    return _grid(params, 0.5, 0.5)


def _face_coefficients(params: ModelParams, D_l: float, D_r: float,
                       k: float) -> np.ndarray:
    grid_n = params.N_l + params.N_r + 2
    dx, dt = params.dx, params.dt
    faces = np.empty(grid_n - 1)
    faces[: params.N_l] = D_l * dt / dx**2
    faces[params.N_l] = min(k, PERMEABILITY_INF) * dt / dx
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
    faces = _face_coefficients(params, D_l, D_r, k)
    return StepOperator(lhs=_banded_from_faces(faces, params.Theta_scheme),
                        faces=faces)


MODES = ("nonlinear", "linearized", "diffusion")


@dataclass(frozen=True, eq=False)
class _Member:
    """One parameter set made ready for the step kernel."""

    params: ModelParams
    n: int                      # unknowns per species
    faces_u: np.ndarray
    faces_v: np.ndarray
    diag: np.ndarray            # I + T*C on [U; V] = L D L^T: the 2n entries of D
    sub: np.ndarray             # and the 2n-1 of L's sub-diagonal, 0.0 at the U/V seam
    linearization: SteadyState | None


def _member(operators, params: ModelParams,
            linearization: SteadyState | None) -> _Member:
    op_u, op_v = operators
    # the v block's unused corner lhs[0, 0] == 0 is the U/V coupling
    lhs = np.hstack([op_u.lhs[:2], op_v.lhs[:2]])
    if not np.isfinite(lhs).all():
        raise ValueError("array must not contain infs or NaNs")
    diag, sub, info = _pttrf(lhs[1], lhs[0, 1:])
    if info:
        raise (LinAlgError if info > 0 else ValueError)(
            f"pttrf: info = {info}, I + T*C is not positive definite")
    return _Member(params=params, n=op_u.faces.size + 1, faces_u=op_u.faces,
                   faces_v=op_v.faces, diag=diag, sub=sub,
                   linearization=linearization)


def _join(blocks) -> np.ndarray:
    # the blocks end to end with an exact 0.0 between neighbours
    junction = np.zeros(1)
    return np.concatenate([a for blk in blocks for a in (junction, blk)][1:])


def _kernel(members: list[_Member], mode: str):
    """The step kernel for the stacked state [U_1 ... U_B, V_1 ... V_B].

    Returns ``(advance, rates)``.  ``advance(w, w_new)`` writes the step
    from w into w_new, fills ``rates[b]`` with member b's
    max|w_new - w| / dt_b over both its blocks and returns the smallest
    rate; it raises BlowUpError if w_new is not finite.  It reuses the
    buffers made here; callers silence floating-point warnings once around
    their loop.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be nonlinear|linearized|diffusion, got {mode!r}")
    B = len(members)
    sizes = [m.n for m in members]
    nu = sum(sizes)

    def spread(values):
        # one constant per member: a scalar at B = 1, else one per entry of U
        return values[0] if B == 1 else np.repeat(values, sizes)

    dt = spread([m.params.dt for m in members])
    if mode == "nonlinear":
        eps = spread([m.params.eps for m in members])
        alpha = spread([m.params.alpha for m in members])
    elif mode == "linearized":
        if any(m.linearization is None for m in members):
            raise ValueError("linearized mode needs the steady state")
        lins = [m.linearization for m in members]
        u_bar = spread([s.u_bar for s in lins])
        v_bar = spread([s.v_bar for s in lins])
        fu, fv, gu, gv = (spread([getattr(s.jac, d) for s in lins])
                          for d in ("fu", "fv", "gu", "gv"))

    faces = _join([m.faces_u for m in members] + [m.faces_v for m in members])
    # a member's factor is block diagonal, so the batch factor is theirs side
    # by side, joined like the faces
    diag = np.concatenate([m.diag[:m.n] for m in members]
                          + [m.diag[m.n:] for m in members])
    sub = _join([m.sub[:m.n - 1] for m in members]
                + [m.sub[m.n:] for m in members])
    flux = np.empty(2 * nu - 1)
    flux_hi, flux_lo = flux[1:], flux[:-1]
    rhs = np.empty(2 * nu)
    rhs_u, rhs_v, rhs_inner = rhs[:nu], rhs[nu:], rhs[1:-1]
    work = np.empty(2 * nu)
    work_u, work_v = work[:nu], work[nu:]
    rates = np.empty(B)
    if B > 1:
        starts = np.cumsum([0] + sizes + sizes[:-1])
        block_max = np.empty(2 * B)
        dts = np.array([m.params.dt for m in members])

    def advance(w, w_new):
        # rhs = -C w as a telescoping difference of the face fluxes
        np.subtract(w[1:], w[:-1], out=flux)
        np.multiply(faces, flux, out=flux)
        rhs[0] = flux[0]
        np.subtract(flux_hi, flux_lo, out=rhs_inner)
        rhs[-1] = -flux[-1]
        if mode == "nonlinear":
            f = reaction(w[:nu], w[nu:], eps, alpha, out=(work_u, work_v))
            np.multiply(f, dt, out=f)
            np.add(rhs_u, f, out=rhs_u)
            np.subtract(rhs_v, f, out=rhs_v)  # g = -f
        elif mode == "linearized":
            du = w[:nu] - u_bar
            dv = w[nu:] - v_bar
            np.add(rhs_u, (fu * du + fv * dv) * dt, out=rhs_u)
            np.add(rhs_v, (gu * du + gv * dv) * dt, out=rhs_v)
        x, info = _pttrs(diag, sub, rhs, overwrite_b=1)  # x is rhs, solved in place
        if info:
            raise ValueError(f"pttrs: info = {info}")
        np.add(w, x, out=w_new)
        np.subtract(w_new, w, out=work)
        np.abs(work, out=work)
        if B == 1:
            lo = hi = rates[0] = float(work.max()) / dt
        else:
            np.maximum.reduceat(work, starts, out=block_max)
            np.maximum(block_max[:B], block_max[B:], out=rates)
            np.divide(rates, dts, out=rates)
            lo, hi = rates.min(), rates.max()
        # a non-finite entry of w_new makes its member's rate inf or nan
        if not math.isfinite(hi) and not np.isfinite(w_new).all():
            raise BlowUpError("non-finite state after step")
        return lo

    return advance, rates


def step(state, operators, params: ModelParams, mode: str = "nonlinear", *,
         linearization: SteadyState | None = None):
    """One theta-method step; the reaction is evaluated explicitly at time n.

    mode 'nonlinear' uses the full reactions, 'linearized' the Jacobian at
    the equilibrium applied to deviations, 'diffusion' switches the
    reactions off.  Returns the new (U, V).
    """
    advance, _ = _kernel([_member(operators, params, linearization)], mode)
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
    u: np.ndarray            # final state on the grid
    v: np.ndarray
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


def _snapshot_steps(T: float, dt: float, n_steps: int) -> list[int]:
    """Steps that record a snapshot, latest first.

    The snapshot for time s is taken at the first step with
    it*dt >= s - 1e-12; one step that passes several times records once.
    """
    steps = []
    for s in _snapshot_times(T):
        threshold = s - 1e-12
        it = max(1, math.ceil(threshold / dt))
        while it > 1 and (it - 1) * dt >= threshold:
            it -= 1
        while it * dt < threshold:
            it += 1
        if it <= n_steps and (not steps or steps[-1] != it):
            steps.append(it)
    return steps[::-1]


@dataclass(eq=False)
class _Run:
    """A batch member's record while it steps."""

    index: int
    member: _Member
    grid: Grid
    n_steps: int
    snapshot_steps: list     # latest first
    U: np.ndarray            # its state when the batch last changed
    V: np.ndarray
    snapshots: list
    mass_series: list

    @property
    def next_event(self) -> int:
        return self.snapshot_steps[-1] if self.snapshot_steps else self.n_steps

    def record(self, t: float, U: np.ndarray, V: np.ndarray):
        U, V = U.copy(), V.copy()
        self.snapshots.append((t, U, V))
        self.mass_series.append((t, self.grid.dx * float(np.sum(U) + np.sum(V))))

    def result(self, mode: str, it: int, U, V, converged: bool) -> SimResult:
        t = it * self.member.params.dt
        U, V = U.copy(), V.copy()
        if self.snapshots[-1][0] != t:
            self.record(t, U, V)
        mass0 = self.mass_series[0][1]
        drift = max(abs(m - mass0) for _, m in self.mass_series) / abs(mass0)
        return SimResult(
            params=self.member.params, grid=self.grid, mode=mode,
            u=U, v=V,
            t_final=t, n_steps=it, converged=converged,
            jump=(membrane_jump(U, self.grid), membrane_jump(V, self.grid)),
            snapshots=self.snapshots, mass_series=self.mass_series,
            mass_drift=drift,
        )


def _start(index: int, params: ModelParams, initial, T: float, mode: str,
           linearization: SteadyState | None) -> _Run:
    grid = build_grid(params)
    U = np.array(initial[0], dtype=float)
    V = np.array(initial[1], dtype=float)
    for species, values in (("u", U), ("v", V)):
        if values.shape != (grid.n_points,):
            raise ValueError(f"{species}: length {values.shape} does not match "
                             f"grid ({grid.n_points} points)")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{species}: non-finite entries")
    operators = (assemble(params, "u"), assemble(params, "v"))
    if mode == "linearized" and linearization is None:
        M = conserved_mass(U, V, grid)
        linearization = steady_state(M, params.eps, params.alpha)
    n_steps = int(np.ceil(T / params.dt - 1e-9))
    r = _Run(
        index=index, member=_member(operators, params, linearization),
        grid=grid, n_steps=n_steps,
        snapshot_steps=_snapshot_steps(T, params.dt, n_steps), U=U, V=V,
        snapshots=[], mass_series=[],
    )
    r.record(0.0, U, V)
    return r


def run_batch(params_list, initials, T: float, mode: str = "nonlinear", *,
              steady_tol: float = 1e-8, steady_stop: bool = True,
              linearizations=None) -> list:
    """Integrate B parameter sets to time T in one stacked kernel.

    ``initials`` holds one (u0, v0) pair per member on its grid, and
    ``linearizations`` one steady state or None per member (None derives
    it from the member's mass in 'linearized' mode).  Every member keeps
    its own dt, snapshot times and stop: once it converges (max|dU, dV|/dt
    < steady_tol, with ``steady_stop``) or takes its last step, its blocks
    leave the batch and the kernel is rebuilt from the rest.  Returns one
    entry per member, in order: a SimResult equal bit for bit to what
    ``run`` gives for it, or the ValueError its input raised, or the
    BlowUpError of its blow-up, with the step index and time ``run`` gives.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if mode not in MODES:
        raise ValueError(f"mode must be nonlinear|linearized|diffusion, got {mode!r}")
    if linearizations is None:
        linearizations = [None] * len(params_list)
    if not len(params_list) == len(initials) == len(linearizations):
        raise ValueError("need one initial state and linearization per member")
    results = [None] * len(params_list)
    active = []
    for b, (params, initial, lin) in enumerate(
            zip(params_list, initials, linearizations)):
        try:
            r = _start(b, params, initial, T, mode, lin)
        except ValueError as exc:  # a member's own input fails that member only
            results[b] = exc
            continue
        if r.n_steps:
            active.append(r)
        else:
            results[b] = r.result(mode, 0, r.U, r.V, False)

    it = 0
    # blow-up is detected by the kernel; keep the overflow path silent
    with np.errstate(over="ignore", invalid="ignore"):
        while active:
            advance, rates = _kernel([r.member for r in active], mode)
            w = np.concatenate([r.U for r in active] + [r.V for r in active])
            w_new = np.empty_like(w)
            ends = np.cumsum([r.member.n for r in active]).tolist()
            nu = ends[-1]
            spans = list(zip([0] + ends[:-1], ends))

            def blocks(i):
                a, b = spans[i]
                return w[a:b], w[nu + a:nu + b]

            next_event = min(r.next_event for r in active)
            left = []
            while not left:
                it += 1
                try:
                    lo = advance(w, w_new)
                except BlowUpError as exc:
                    # 0 * inf at a junction carries a blow-up into the other
                    # blocks: step each member alone from w to find the ones
                    # that blew up, then redo the step without them
                    for i, r in enumerate(active):
                        alone, _ = _kernel([r.member], mode)
                        try:
                            alone(np.concatenate(blocks(i)), np.empty(2 * r.member.n))
                        except BlowUpError as own:
                            results[r.index] = BlowUpError(
                                str(own), step_index=it, t=it * r.member.params.dt)
                            left.append(i)
                    if not left:
                        raise exc
                    it -= 1
                    break
                w, w_new = w_new, w
                if it < next_event and not (steady_stop and lo < steady_tol):
                    continue
                for i, r in enumerate(active):
                    U, V = blocks(i)
                    if r.snapshot_steps and r.snapshot_steps[-1] == it:
                        r.snapshot_steps.pop()
                        r.record(it * r.member.params.dt, U, V)
                    rate = float(rates[i])
                    if it == r.n_steps or (steady_stop and rate < steady_tol):
                        results[r.index] = r.result(mode, it, U, V, rate < steady_tol)
                        left.append(i)
                next_event = min(r.next_event for r in active)
            for i, r in enumerate(active):
                r.U, r.V = (x.copy() for x in blocks(i))
            active = [r for i, r in enumerate(active) if i not in left]
    return results


def run(params: ModelParams, initial, T: float, mode: str = "nonlinear", *,
        steady_tol: float = 1e-8, steady_stop: bool = True,
        linearization: SteadyState | None = None) -> SimResult:
    """Integrate to time T, or stop earlier once max|dU, dV|/dt < steady_tol.

    ``initial`` is the (u0, v0) pair on the grid of ``params``.  Snapshots
    (with the running mass) are recorded at t = 0 and at the geometric
    times T/64, T/32, ..., T.  Blow-up raises BlowUpError with the step
    index attached.  This is ``run_batch`` with one member.
    """
    result, = run_batch([params], [initial], T, mode, steady_tol=steady_tol,
                        steady_stop=steady_stop, linearizations=[linearization])
    if isinstance(result, Exception):
        raise result
    return result


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
