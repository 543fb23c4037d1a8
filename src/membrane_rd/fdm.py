"""Theta-method time stepper on the two-segment grid with a duplicated membrane trace.

Each side carries N+1 cell-averaged unknowns at spacing dx; the membrane
value appears twice (left trace u_{N_l}, right trace u_{N_l+1} in global
0-based numbering), which is what lets the scheme impose the transmission
conditions on a jump.  The operator of a species is its n-1 face
coefficients f, the only record of it: the diffusive mesh ratios D*dt/dx^2
inside the segments and kappa = dt*k/dx at the membrane face.  Face i
carries the flux f_i (U_{i+1} - U_i), so C = dt*H is tridiagonal with
(C U)_i = f_{i-1} (U_i - U_{i-1}) - f_i (U_{i+1} - U_i) and zero row and
column sums: constants are fixed points and dx*sum(U+V) is conserved.

The theta-method step is evaluated in increment form,

    (I + T*C) (U^{n+1} - U^n) = dt F^n - C U^n,

with C U computed as a difference of face fluxes, so that the discrete
mass telescopes exactly in floating point instead of to solver accuracy.
I + T*C is symmetric positive definite and tridiagonal, and LAPACK
``pttrf`` takes it as its diagonal d_i = 1 + T*f_i + T*f_{i-1} and its
off-diagonal e = -T*f, both built from the faces.

A diffusive mesh ratio above ``MESH_RATIO_MAX`` = 1e6 is refused by
`assemble`, with its config key named.  The larger the ratio, the more of
the 1 of I + T*C is lost in rounding and the more mass drifts: at most
1e-11 over 1e5 steps at the bound, up to 1.3e-10 at 1e7 and 6e-5 over 500
steps at 4e14 (D = 1e12 at dx = 1/200).  The same check refuses a ratio
that overflows and a membrane face that is not finite.

One kernel steps B >= 1 parameter sets (members) at once, as one stacked
state w = [U_1 ... U_B, V_1 ... V_B].  Its faces are each block's own faces
with an exact 0.0 at every block junction, so C is block diagonal.  I + T*C
is factored once per member as L D L^T by ``pttrf``: a diagonal D and the
unit sub-diagonal of L.  The batch factor joins the members' D and
sub-diagonals with the same exact 0.0 at every junction, and each step is
one ``pttrs``, solving in place.
A junction face carries a zero flux and adds nothing to the diagonal, and
a zero sub-diagonal entry adds b*0 to both substitutions, so the flux
difference and the solve do the same floating-point operations on every
entry as a member stepped alone.  Each member's dt, eps, alpha (or its
linearisation) enter as arrays with one entry per unknown, at B = 1 too:
the same roundings, and a ufunc costs less with an array operand than with
a Python float.  The face fluxes sit between a +0.0 and a -0.0 in one
buffer, so rhs = -C w is a single difference.  Both reactions add dt*f to
U and subtract it from V: g = -f, and the linearisation at the steady state
of the member's mass has gu = -fu and gv = -fv bitwise.

The loop advances in blocks of up to ``_BLOCK_STEPS`` = 32 steps, fewer
when its ring of states would pass ``_RING_BYTES`` = 1 MiB.  Step j writes
ring row j + 1 from row j through views made once per kernel, so the loop
creates no arrays.  Rates, stops and blow-ups are checked once per block
of steps: one reduction of |W[j+1] - W[j]| gives every member's rate
max|dU, dV|/dt (the max over its U and V blocks) for every step, and the
loop stops at the first row where a member converges or a state is not
finite.  A block of steps never passes the next snapshot or last step.
The steps do not depend on the checks, so a stop inside a block drops the
rows after it and leaves the states that a check after every step gives.
A member that converges or takes its last step leaves the batch, and the
kernel is rebuilt from the rest.  The one exception to block independence is
0 * inf = nan at a junction: a blow-up spreads into the other blocks, so
the step from the last finite row is then repeated for each member alone
to find who blew up, and the others go on from that row without them.
Hence `run_batch` gives every member bit for bit the result of `run`,
which is the same loop at B = 1; `step` is one step of the kernel.

A membrane permeability at or above ``PERMEABILITY_INF`` is stepped as
that sentinel, the transparent membrane: a larger k would swamp the 1 of
I + T*C in rounding and lose mass without changing the physics.

scipy is imported on the first factor: ``_member`` imports ``pttrf`` and
``_kernel`` imports ``pttrs`` where they are used, once per member or
batch, so importing this module, and the analysis that uses its faces and
grid, loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    PERMEABILITY_INF,
    ModelParams,
    SteadyState,
    conserved_mass,
    reaction,
    steady_state,
)


class BlowUpError(RuntimeError):
    """The state left the range of finite floats."""

    def __init__(self, message="non-finite state after step", step_index=None,
                 t=None):
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


#: largest diffusive mesh ratio D*dt/dx^2 that `assemble` accepts
MESH_RATIO_MAX = 1e6


def assemble(params: ModelParams, species: str) -> np.ndarray:
    """The n-1 face coefficients of C = dt*H for species 'u' or 'v'.

    A diffusive mesh ratio above ``MESH_RATIO_MAX`` raises a ValueError that
    names its config key, ``D_vl`` or ``D_vr`` (D_ul = theta*D_vl, ...), and
    so does a membrane face that is not finite, naming ``k_u`` or ``k_v``.
    """
    if species == "u":
        D_l, D_r, k = params.D_ul, params.D_ur, params.k_u
    elif species == "v":
        D_l, D_r, k = params.D_vl, params.D_vr, params.k_v
    else:
        raise ValueError(f"species must be 'u' or 'v', got {species!r}")
    faces = _face_coefficients(params, D_l, D_r, k)
    for key, ratio in (("D_vl", faces[0]), ("D_vr", faces[-1])):
        if not ratio <= MESH_RATIO_MAX:
            raise ValueError(
                f"{key}: the mesh ratio D*dt/dx^2 of {species} is {ratio:.3g}, "
                f"above {MESH_RATIO_MAX:g}, where the 1 of I + T*C is lost in "
                "rounding")
    if not math.isfinite(faces[params.N_l]):
        raise ValueError(f"k_{species}: the membrane face dt*k/dx of {species} "
                         "is not finite")
    return faces


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


def _member(params: ModelParams, grid: Grid, U: np.ndarray, V: np.ndarray,
            mode: str) -> _Member:
    # in 'linearized' mode the member is linearised at the steady state of
    # the mass of (U, V)
    from scipy.linalg.lapack import dpttrf

    faces = faces_u, faces_v = assemble(params, "u"), assemble(params, "v")
    linearization = None
    if mode == "linearized":
        M = conserved_mass(U, V, grid)
        linearization = steady_state(M, params.eps, params.alpha)
    n = faces_u.size + 1
    # I + T*C on [U; V] from the faces, 0.0 at the U/V seam: the diagonal
    # d_i = 1 + T*f_i + T*f_{i-1}, summed in this order, and e = -T*f
    T = params.Theta_scheme
    tf = T * _join(faces)
    d = np.ones(2 * n)
    d[:-1] += tf
    d[1:] += tf
    diag, sub, info = dpttrf(d, _join([-T * f for f in faces]))
    if info:
        raise np.linalg.LinAlgError(f"pttrf: info = {info}")
    return _Member(params=params, n=n, faces_u=faces_u, faces_v=faces_v,
                   diag=diag, sub=sub, linearization=linearization)


def _join(blocks) -> np.ndarray:
    # the blocks end to end with an exact 0.0 between neighbours
    junction = np.zeros(1)
    return np.concatenate([a for blk in blocks for a in (junction, blk)][1:])


#: steps per block of the step loop: its states, rates and stops are
#: checked once per block
_BLOCK_STEPS = 32
#: bound on the bytes of a kernel's ring of states and their differences
_RING_BYTES = 1 << 20


def _kernel(members: list[_Member], mode: str):
    """The step kernel for the stacked state [U_1 ... U_B, V_1 ... V_B].

    Returns ``(ring, advance)``.  ``ring`` holds K + 1 states, one a row, with
    K at most ``_BLOCK_STEPS`` and fewer when the ring and its differences
    would pass ``_RING_BYTES``.  ``advance(kb)`` steps row 0 into row 1, row 1
    into row 2 and so on, kb <= K times, and returns the (kb, B) rates: entry
    (j, b) is member b's max|W[j+1] - W[j]| / dt_b over its U and V blocks.  A
    row that leaves the finite floats makes its members' rates inf or nan;
    finding it is left to the caller, and the steps after it are garbage.
    The kernel reuses the buffers made here; callers silence floating-point
    warnings once around their loop.
    """
    from scipy.linalg.lapack import dpttrs  # a local of advance's closure

    if mode not in MODES:
        raise ValueError(f"mode must be nonlinear|linearized|diffusion, got {mode!r}")
    B = len(members)
    sizes = [m.n for m in members]
    nu = sum(sizes)

    def spread(values):
        # one constant per member, on each of its entries of U
        return np.repeat(np.array(values, dtype=float), sizes)

    nonlinear, linearized = mode == "nonlinear", mode == "linearized"
    reacting = nonlinear or linearized
    dt = spread([m.params.dt for m in members])
    if nonlinear:
        eps = spread([m.params.eps for m in members])
        alpha = spread([m.params.alpha for m in members])
    elif linearized:
        lins = [m.linearization for m in members]
        u_bar = spread([s.u_bar for s in lins])
        v_bar = spread([s.v_bar for s in lins])
        fu = spread([s.jac.fu for s in lins])
        fv = spread([s.jac.fv for s in lins])

    faces = _join([m.faces_u for m in members] + [m.faces_v for m in members])
    # a member's factor is block diagonal, so the batch factor is theirs side
    # by side, joined like the faces
    diag = np.concatenate([m.diag[:m.n] for m in members]
                          + [m.diag[m.n:] for m in members])
    sub = _join([m.sub[:m.n - 1] for m in members]
                + [m.sub[m.n:] for m in members])
    # the face fluxes between a +0.0 and a -0.0, so that one difference gives
    # rhs = -C w with rhs[0] = flux[0] and rhs[-1] = -flux[-1] exactly
    flux_pad = np.zeros(2 * nu + 1)
    flux_pad[-1] = -0.0
    flux, flux_hi, flux_lo = flux_pad[1:-1], flux_pad[1:], flux_pad[:-1]
    rhs = np.empty(2 * nu)
    rhs_u, rhs_v = rhs[:nu], rhs[nu:]
    work_u, work_v, work_du, work_dv = np.empty((4, nu))
    reaction_out = (work_u, work_v)

    # the ring's K + 1 rows and the K rows of their differences, 16*nu bytes each
    K = max(1, min(_BLOCK_STEPS, (_RING_BYTES // (16 * nu) - 1) // 2))
    ring = np.empty((K + 1, 2 * nu))
    # each step's views, made once: from, its two shifts, its U and V, to
    views = [(w, w[1:], w[:-1], w[:nu], w[nu:], w_next)
             for w, w_next in zip(ring[:-1], ring[1:])]
    diffs = np.empty((K, 2 * nu))
    starts = np.cumsum([0] + sizes + sizes[:-1])
    block_max = np.empty((K, 2 * B))
    rates = np.empty((K, B))
    dts = np.array([m.params.dt for m in members])

    def advance(kb):
        for w, w_hi, w_lo, w_u, w_v, w_next in views[:kb]:
            np.subtract(w_hi, w_lo, out=flux)
            np.multiply(faces, flux, out=flux)
            np.subtract(flux_hi, flux_lo, out=rhs)
            if nonlinear:
                f = reaction(w_u, w_v, eps, alpha, out=reaction_out)
            elif linearized:
                du = np.subtract(w_u, u_bar, out=work_du)
                dv = np.subtract(w_v, v_bar, out=work_dv)
                f = np.multiply(fu, du, out=work_u)
                np.add(f, np.multiply(fv, dv, out=work_v), out=f)
            if reacting:
                np.multiply(f, dt, out=f)
                np.add(rhs_u, f, out=rhs_u)
                np.subtract(rhs_v, f, out=rhs_v)  # g = -f
            # overwrite_b = 1: x is rhs, solved in place
            x, info = dpttrs(diag, sub, rhs, 1)
            if info:
                raise ValueError(f"pttrs: info = {info}")
            np.add(w, x, out=w_next)
        d, top, r = diffs[:kb], block_max[:kb], rates[:kb]
        np.subtract(ring[1:kb + 1], ring[:kb], out=d)
        np.abs(d, out=d)
        np.maximum.reduceat(d, starts, axis=1, out=top)
        np.maximum(top[:, :B], top[:, B:], out=r)
        return np.divide(r, dts, out=r)

    return ring, advance


def _first_stop(rates, ring, steady_tol: float, steady_stop: bool):
    """(j, blown_up) for the first row of a block of steps that stops, or None.

    Row j is the step from ``ring[j]`` to ``ring[j + 1]``.  A member stops
    there when it converges (rate < steady_tol, with ``steady_stop``) or when
    the new state is not finite.  A rate can be inf with a finite state (an
    overflowing difference), so the state of such a row is checked.
    """
    lo, hi = rates.min(), rates.max()
    if math.isfinite(hi) and not (steady_stop and lo < steady_tol):
        return None
    lo, hi = rates.min(axis=1), rates.max(axis=1)
    flags = ~np.isfinite(hi)
    if steady_stop:
        flags |= lo < steady_tol
    for j in np.flatnonzero(flags).tolist():
        if not math.isfinite(hi[j]) and not np.isfinite(ring[j + 1]).all():
            return j, True
        if steady_stop and lo[j] < steady_tol:
            return j, False
    return None


def _step_alone(member: _Member, mode: str, state: np.ndarray) -> np.ndarray:
    # one step of the member alone from state (errstate is the caller's)
    ring, advance = _kernel([member], mode)
    ring[0] = state
    advance(1)
    return ring[1]


def step(state, params: ModelParams, mode: str = "nonlinear"):
    """One theta-method step; the reaction is evaluated explicitly at time n.

    mode 'nonlinear' uses the full reactions, 'diffusion' switches the
    reactions off, and 'linearized' applies the Jacobian at the steady state
    of the mass of ``state`` to the deviations from it, as `run` does from
    its initial state.  Returns the new (U, V).
    """
    U, V = (np.asarray(x, dtype=float) for x in state)
    member = _member(params, build_grid(params), U, V, mode)
    # blow-up is detected below; keep the overflow path silent
    with np.errstate(over="ignore", invalid="ignore"):
        w = _step_alone(member, mode, np.concatenate((U, V)))
    if not np.isfinite(w).all():
        raise BlowUpError()
    return w[:member.n], w[member.n:]


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


def _start(index: int, params: ModelParams, initial, T: float, mode: str) -> _Run:
    grid = build_grid(params)
    U = np.array(initial[0], dtype=float)
    V = np.array(initial[1], dtype=float)
    for species, values in (("u", U), ("v", V)):
        if values.shape != (grid.n_points,):
            raise ValueError(f"{species}: length {values.shape} does not match "
                             f"grid ({grid.n_points} points)")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{species}: non-finite entries")
    n_steps = int(np.ceil(T / params.dt - 1e-9))
    r = _Run(
        index=index, member=_member(params, grid, U, V, mode),
        grid=grid, n_steps=n_steps,
        snapshot_steps=_snapshot_steps(T, params.dt, n_steps), U=U, V=V,
        snapshots=[], mass_series=[],
    )
    r.record(0.0, U, V)
    return r


def run_batch(params_list, initials, T: float, mode: str = "nonlinear", *,
              steady_tol: float = 1e-8, steady_stop: bool = True) -> list:
    """Integrate B parameter sets to time T in one stacked kernel.

    ``initials`` holds one (u0, v0) pair per member on its grid; in
    'linearized' mode each member is linearised at the steady state of its
    own initial mass.  Every member keeps
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
    if len(params_list) != len(initials):
        raise ValueError("need one initial state per member")
    results = [None] * len(params_list)
    active = []
    for b, (params, initial) in enumerate(zip(params_list, initials)):
        try:
            r = _start(b, params, initial, T, mode)
        except ValueError as exc:  # a member's own input fails that member only
            results[b] = exc
            continue
        if r.n_steps:
            active.append(r)
        else:
            results[b] = r.result(mode, 0, r.U, r.V, False)

    it = 0
    # blow-up is detected from the rates; keep the overflow path silent
    with np.errstate(over="ignore", invalid="ignore"):
        while active:
            it, left = _step_batch(active, it, mode, steady_tol, steady_stop, results)
            active = [r for i, r in enumerate(active) if i not in left]
    return results


def _step_batch(active: list[_Run], it: int, mode: str, steady_tol: float,
                steady_stop: bool, results: list) -> tuple[int, list[int]]:
    """Step the members ``active`` from step ``it`` until some leave.

    Enters the results of those that converge, take their last step or blow
    up, and leaves every member's state at the returned step in its U and V.
    Returns that step and the positions in ``active`` of the members that
    left.  The kernel and its ring are freed on return, before the next
    batch builds its own.
    """
    ring, advance = _kernel([r.member for r in active], mode)
    K = ring.shape[0] - 1
    w = ring[0]  # the state at step it
    w[:] = np.concatenate([r.U for r in active] + [r.V for r in active])
    ends = np.cumsum([r.member.n for r in active]).tolist()
    nu = ends[-1]
    spans = list(zip([0] + ends[:-1], ends))

    def blocks(i):
        a, b = spans[i]
        return w[a:b], w[nu + a:nu + b]

    next_event = min(r.next_event for r in active)
    left = []
    while not left:
        # a block of steps never passes the next snapshot or last step
        kb = min(K, next_event - it)
        rates = advance(kb)
        stop = _first_stop(rates, ring, steady_tol, steady_stop)
        if stop is not None and stop[1]:
            # 0 * inf at a junction carries a blow-up into the other blocks:
            # step each member alone from the last finite state to find the
            # ones that blew up, then go on without them from there
            it += stop[0]
            w[:] = ring[stop[0]]
            for i, r in enumerate(active):
                if not np.isfinite(_step_alone(
                        r.member, mode, np.concatenate(blocks(i)))).all():
                    results[r.index] = BlowUpError(
                        step_index=it + 1, t=(it + 1) * r.member.params.dt)
                    left.append(i)
            if not left:
                raise BlowUpError()
            break
        # the steps are independent of the checks: a stop drops the rows
        # after it and leaves the same states
        j = kb - 1 if stop is None else stop[0]
        it += j + 1
        w[:] = ring[j + 1]
        if it < next_event and stop is None:
            continue
        for i, r in enumerate(active):
            U, V = blocks(i)
            if r.snapshot_steps and r.snapshot_steps[-1] == it:
                r.snapshot_steps.pop()
                r.record(it * r.member.params.dt, U, V)
            rate = float(rates[j, i])
            if it == r.n_steps or (steady_stop and rate < steady_tol):
                results[r.index] = r.result(mode, it, U, V, rate < steady_tol)
                left.append(i)
        next_event = min(r.next_event for r in active)
    for i, r in enumerate(active):
        r.U, r.V = (x.copy() for x in blocks(i))
    return it, left


def run(params: ModelParams, initial, T: float, mode: str = "nonlinear", *,
        steady_tol: float = 1e-8, steady_stop: bool = True) -> SimResult:
    """Integrate to time T, or stop earlier once max|dU, dV|/dt < steady_tol.

    ``initial`` is the (u0, v0) pair on the grid of ``params``; 'linearized'
    mode linearises at the steady state of its mass.  Snapshots
    (with the running mass) are recorded at t = 0 and at the geometric
    times T/64, T/32, ..., T.  Blow-up raises BlowUpError with the step
    index attached.  This is ``run_batch`` with one member.
    """
    result, = run_batch([params], [initial], T, mode, steady_tol=steady_tol,
                        steady_stop=steady_stop)
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
