import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded, get_lapack_funcs

from membrane_rd import (
    ModelParams,
    assemble,
    build_grid,
    conserved_mass,
    fdm,
    initial_data,
    reaction,
    run,
    run_batch,
    steady_state,
    step,
)
from membrane_rd.fdm import (
    _BLOCK_STEPS,
    MESH_RATIO_MAX,
    BlowUpError,
    _first_stop,
    kedem_katchalsky_residual,
    membrane_jump,
    midpoint_grid,
    side_variation,
    sign_changes,
)

from conftest import make_params


def coarse_params(**kw):
    kw.setdefault("dx", 1.0 / 40.0)
    return make_params(**kw)


def dense_from_faces(faces):
    """C = dt*H as a dense matrix, from the face coefficients alone."""
    n = faces.size + 1
    i = np.arange(n - 1)
    C = np.zeros((n, n))
    C[i, i] += faces
    C[i + 1, i + 1] += faces
    C[i, i + 1] -= faces
    C[i + 1, i] -= faces
    return C


def implicit_matrix(faces, Theta):
    """The implicit theta-method matrix I + T*C, dense."""
    C = dense_from_faces(faces)
    return np.eye(C.shape[0]) + Theta * C


def explicit_matrix(faces, Theta):
    """The explicit theta-method matrix I - (1-T)*C, dense."""
    C = dense_from_faces(faces)
    return np.eye(C.shape[0]) - (1.0 - Theta) * C


def face_ratios(faces, p):
    """(mu_l, mu_r, kappa): the faces inside each segment and at the membrane."""
    return faces[0], faces[-1], faces[p.N_l]


def tridiagonal_from_faces(faces, Theta):
    """(d, e): the diagonal and off-diagonal of I + T*C, summed as the stepper sums d."""
    d = np.ones(faces.size + 1)
    d[:-1] += Theta * faces
    d[1:] += Theta * faces
    return d, -Theta * faces


def ldl_solver(faces, Theta):
    """x -> (I + T*C)^-1 x by LAPACK's tridiagonal LDL^T pair, the stepper's solve."""
    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), dtype=np.float64)
    d, e, info = pttrf(*tridiagonal_from_faces(faces, Theta))
    assert info == 0

    def solve(b):
        x, info = pttrs(d, e, b)
        assert info == 0
        return x

    return solve


def cholesky_solver(faces, Theta):
    """x -> (I + T*C)^-1 x by a banded Cholesky factor, independent of the stepper's."""
    d, e = tridiagonal_from_faces(faces, Theta)
    ab = np.zeros((2, d.size))  # upper banded storage: row 0 the super-diagonal
    ab[0, 1:], ab[1] = e, d
    chol = cholesky_banded(ab, lower=False)
    return lambda b: cho_solve_banded((chol, False), b, check_finite=False)


def reference_run(p, u0, v0, T, mode="nonlinear", steady_tol=1e-8,
                  solver=ldl_solver, rates=None):
    """Separate U and V increment steps, the stepper before its U/V stacking.

    One check after every step, without blocks.  ``solver(faces, Theta)``
    gives each species' solve with I + T*C, and ``rates``, a list, receives
    each step's rate.  Returns (U, V, snapshots, n_steps, converged) with the snapshot
    rule of `run`; raises BlowUpError with the step index and time.
    """
    faces = [assemble(p, s) for s in "uv"]
    solves = [solver(f, p.Theta_scheme) for f in faces]
    ss = steady_state(conserved_mass(u0, v0, build_grid(p)), p.eps, p.alpha)
    dt, n_steps = p.dt, int(np.ceil(T / p.dt - 1e-9))
    targets = [T / 2**j for j in range(6, -1, -1)]
    U, V = np.array(u0, dtype=float), np.array(v0, dtype=float)
    snaps, t, converged = [(0.0, U, V)], 0.0, False
    for it in range(1, n_steps + 1):
        if mode == "nonlinear":
            with np.errstate(over="ignore", invalid="ignore"):
                fg = reaction(U, V, p.eps, p.alpha)
        elif mode == "linearized":
            du, dv = U - ss.u_bar, V - ss.v_bar
            fg = (ss.jac.fu * du + ss.jac.fv * dv, ss.jac.gu * du + ss.jac.gv * dv)
        else:
            fg = (None, None)
        new = []
        for X, F, f, solve in zip((U, V), fg, faces, solves):
            flux = f * np.diff(X)
            div = np.empty_like(X)
            div[0], div[-1], div[1:-1] = -flux[0], flux[-1], flux[:-1] - flux[1:]
            b = -div if F is None else -div + dt * F
            new.append(X + solve(b))
        if not all(np.all(np.isfinite(X)) for X in new):
            raise BlowUpError("non-finite state", step_index=it, t=it * dt)
        rate = max(np.max(np.abs(new[0] - U)), np.max(np.abs(new[1] - V))) / dt
        if rates is not None:
            rates.append(rate)
        (U, V), t = new, it * dt
        if targets and t >= targets[0] - 1e-12:
            snaps.append((t, U, V))
            targets = [s for s in targets if t < s - 1e-12]
        converged = rate < steady_tol
        if converged:
            break
    if snaps[-1][0] != t:
        snaps.append((t, U, V))
    return U, V, snaps, it, converged


# ----------------------------------------------------------------------- grid

def test_grid_paper_resolution():
    grid = build_grid(ModelParams())
    assert grid.dx == pytest.approx(1.0 / 200.0)
    assert grid.n_points == 200
    assert grid.membrane_index == (99, 100)
    # duplicated membrane trace: both entries sit at x_m
    assert grid.centers[99] == pytest.approx(0.5, abs=1e-15)
    assert grid.centers[100] == pytest.approx(0.5, abs=1e-15)
    assert grid.centers[0] == pytest.approx(grid.dx)
    assert grid.centers[-1] == pytest.approx(1.0 - grid.dx)


def test_grid_smallest():
    grid = build_grid(make_params(dx=0.5 / 3.0))
    assert grid.n_points == 6
    assert grid.membrane_index == (2, 3)


def test_grid_asymmetric_membrane_position():
    # x_m = 1/3 works when both segments share dx: N_l=65, N_r=131, dx=1/198
    p = make_params(x_m=1.0 / 3.0, dx=1.0 / 198.0)
    grid = build_grid(p)
    assert grid.n_points == 65 + 131 + 2
    assert grid.centers[grid.membrane_index[0]] == pytest.approx(1.0 / 3.0)
    # both grids sit at the dx of the stepper's faces, although x_m/66 != 1/198
    assert grid.dx == p.dx
    assert midpoint_grid(p).dx == p.dx


def test_grid_rejects_mismatched_segments():
    # 0.3/7 tiles the left segment, not the right
    with pytest.raises(ValueError, match="^dx: "):
        make_params(x_m=0.3, dx=0.3 / 7.0)


def test_midpoint_grid_tiles_segments():
    p = coarse_params()
    qg = midpoint_grid(p)
    assert qg.centers[0] == pytest.approx(qg.dx / 2)
    assert qg.centers[-1] == pytest.approx(p.L - qg.dx / 2)
    # dx * sum of any affine function is exact on this layout
    f = 2.0 * qg.centers + 1.0
    assert qg.dx * np.sum(f) == pytest.approx(p.L * (p.L + 1.0), rel=1e-13)


# ------------------------------------------------------------------ assembly

def test_assemble_membrane_rows_fully_implicit():
    p = coarse_params(Theta_scheme=1.0)
    faces = assemble(p, "u")
    mu_l, mu_r, kappa = face_ratios(faces, p)
    assert mu_l == pytest.approx(p.D_ul * p.dt / p.dx**2, rel=1e-14)
    assert mu_r == pytest.approx(p.D_ur * p.dt / p.dx**2, rel=1e-14)
    assert kappa == pytest.approx(p.k_u * p.dt / p.dx, rel=1e-14)
    lhs = implicit_matrix(faces, 1.0)
    i = p.N_l  # membrane-left row
    assert lhs[i, i] == pytest.approx(1.0 + mu_l + kappa, rel=1e-14)
    assert lhs[i, i - 1] == pytest.approx(-mu_l, rel=1e-14)
    assert lhs[i, i + 1] == pytest.approx(-kappa, rel=1e-14)
    j = i + 1  # membrane-right row
    assert lhs[j, j] == pytest.approx(1.0 + mu_r + kappa, rel=1e-14)
    assert lhs[j, j - 1] == pytest.approx(-kappa, rel=1e-14)
    assert lhs[j, j + 1] == pytest.approx(-mu_r, rel=1e-14)
    # fully implicit: the explicit matrix collapses to the identity
    assert np.array_equal(explicit_matrix(faces, 1.0), np.eye(p.N_l + p.N_r + 2))


def test_assemble_sealed_membrane_decouples_blocks():
    p = coarse_params(k_v=0.0)
    for species in ("u", "v"):
        faces = assemble(p, species)
        mu_l, _, kappa = face_ratios(faces, p)
        lhs = implicit_matrix(faces, p.Theta_scheme)
        i = p.N_l
        assert kappa == 0.0
        assert lhs[i, i + 1] == 0.0  # no coupling across the membrane
        assert lhs[i + 1, i] == 0.0
        assert lhs[i, i] == pytest.approx(1.0 + mu_l)


@pytest.mark.parametrize("Theta", [0.0, 0.37, 0.5, 1.0])
@pytest.mark.parametrize("k_v", [0.0, 0.9, 50.0])
def test_assemble_constant_preservation(Theta, k_v):
    p = coarse_params(Theta_scheme=Theta, k_v=k_v, dt=1e-3)
    for species in ("u", "v"):
        faces = assemble(p, species)
        ones = np.ones(faces.size + 1)
        lhs, rhs = implicit_matrix(faces, Theta), explicit_matrix(faces, Theta)
        assert np.allclose(lhs @ ones, 1.0, atol=1e-12)
        assert np.allclose(rhs @ ones, 1.0, atol=1e-12)
        # row-sum identity: (lhs + rhs) @ 1 == 2
        assert np.allclose((lhs + rhs) @ ones, 2.0, atol=1e-12)


def test_assemble_species_coefficients_differ():
    p = coarse_params(theta=0.1)
    (mu_u, _, kappa_u), (mu_v, _, kappa_v) = (face_ratios(assemble(p, s), p)
                                              for s in "uv")
    assert mu_u == pytest.approx(p.theta * mu_v, rel=1e-14)
    assert kappa_u == pytest.approx(p.theta * kappa_v, rel=1e-14)
    with pytest.raises(ValueError):
        assemble(p, "w")


@pytest.mark.parametrize("species", ["u", "v"])
@pytest.mark.parametrize("key", ["D_vl", "D_vr"])
@pytest.mark.parametrize("D", ["at_bound", "1.01x_bound", 1e12, 1e306, 1e308],
                         ids=["at_bound", "1.01x_bound", "1e12", "1e306", "1e308"])
def test_assemble_bounds_the_mesh_ratio_and_names_its_key(D, key, species):
    # above MESH_RATIO_MAX the 1 of I + T*C is lost in rounding: mass drifts
    # silently at D = 1e12, the factor has no positive pivot at 1e306, and
    # the ratio overflows at 1e308; one check refuses them all, naming the
    # key and warning nothing
    p = coarse_params(theta=0.5)
    accepted = D == "at_bound"
    if isinstance(D, str):
        # the D that gives this species the mesh ratio D*dt/dx^2 just below
        # the bound, or 1.01 times the bound (D_ul = theta*D_vl)
        ratio = (1.0 - 1e-9 if accepted else 1.01) * MESH_RATIO_MAX
        D = ratio * p.dx**2 / p.dt / (p.theta if species == "u" else 1.0)
    p = coarse_params(theta=0.5, **{key: D})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not accepted:
            message = rf"^{key}: the mesh ratio \S+ of {species} is "
            with pytest.raises(ValueError, match=message):
                assemble(p, species)
            return
        assert 0.99 * MESH_RATIO_MAX < assemble(p, species).max() <= MESH_RATIO_MAX
    if species == "v":
        # u's ratios are theta = 0.5 times v's, so the run steps: 1e5 steps
        # at the bound keep c07's bound on the mass drift (measured: 3e-13
        # for D_vl, 1.6e-12 for D_vr, and 1.3e-10 for D_vr at 1e7)
        u0, v0 = initial_data(p, build_grid(p))
        res = run(p, (u0, v0), 1e5 * p.dt, steady_stop=False)
        assert res.n_steps == 100_000
        assert res.mass_drift < 1e-10


def test_assemble_names_the_permeability_whose_membrane_face_is_not_finite():
    # dt*k/dx overflows at the sentinel k_v = 1e8 (and k_u = theta*k_v)
    # while the diffusive mesh ratios stay far below the bound
    p = coarse_params(eps=1e308, dt=1e300, D_vl=1e-300, D_vr=1e-300, k_v=1e8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for species in "uv":
            with pytest.raises(ValueError, match=f"^k_{species}: the membrane face"):
                assemble(p, species)


# --------------------------------------------------------------------- step

def test_step_equilibrium_is_fixed_point():
    p = coarse_params(theta=3e-4)
    grid = build_grid(p)
    ss = steady_state(0.8)
    U = np.full(grid.n_points, ss.u_bar)
    V = np.full(grid.n_points, ss.v_bar)
    U2, V2 = step((U, V), p)
    assert np.max(np.abs(U2 - U)) < 1e-12
    assert np.max(np.abs(V2 - V)) < 1e-12


def test_step_pure_diffusion_preserves_mass():
    p = coarse_params(k_v=2.0, Theta_scheme=0.5, dt=1e-4)
    grid = build_grid(p)
    rng = np.random.default_rng(0)
    U = rng.uniform(0, 1, grid.n_points)
    V = rng.uniform(0, 1, grid.n_points)
    m0u, m0v = grid.dx * U.sum(), grid.dx * V.sum()
    for _ in range(50):
        U, V = step((U, V), p, mode="diffusion")
    assert grid.dx * U.sum() == pytest.approx(m0u, abs=1e-12)
    assert grid.dx * V.sum() == pytest.approx(m0v, abs=1e-12)


def test_step_matches_matrix_form():
    # increment formulation == lhs U' = rhs U + dt F, checked via dense solve
    p = coarse_params(Theta_scheme=0.7, dt=1e-3, k_v=3.0)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    faces = (assemble(p, "u"), assemble(p, "v"))
    U1, V1 = step((u0, v0), p)
    f, g = reaction(u0, v0, p.eps, p.alpha)
    U2 = np.linalg.solve(implicit_matrix(faces[0], p.Theta_scheme),
                         explicit_matrix(faces[0], p.Theta_scheme) @ u0 + p.dt * f)
    V2 = np.linalg.solve(implicit_matrix(faces[1], p.Theta_scheme),
                         explicit_matrix(faces[1], p.Theta_scheme) @ v0 + p.dt * g)
    assert np.max(np.abs(U1 - U2)) < 1e-11
    assert np.max(np.abs(V1 - V2)) < 1e-11


def test_step_linearized_is_the_first_step_of_run():
    # step linearises at the steady state of its state's mass, as run does:
    # the fig3 state (mass 0.8) and the same with mass 0.9
    p = coarse_params(theta=3e-4, dt=1e-3)
    u0, v0 = initial_data(p, build_grid(p))
    for state in ((u0, v0), (u0 + 0.1, v0)):
        U, V = step(state, p, mode="linearized")
        res = run(p, state, p.dt, mode="linearized", steady_stop=False)
        assert res.n_steps == 1
        assert np.array_equal(U, res.u) and np.array_equal(V, res.v)


def test_step_refuses_an_unknown_mode():
    p = coarse_params()
    U = np.zeros(build_grid(p).n_points)
    with pytest.raises(ValueError, match="mode"):
        step((U, U), p, mode="implicit")


def test_step_blow_up_detected():
    # explicit diffusion far beyond the stability limit explodes quickly
    p = coarse_params(Theta_scheme=0.0, dt=1e-2)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    with pytest.raises(BlowUpError) as got:
        run(p, (u0, v0), 1.0)
    with pytest.raises(BlowUpError) as want:
        reference_run(p, u0, v0, 1.0)
    assert got.value.step_index == want.value.step_index
    assert got.value.t == want.value.t


RUN_CASES = [
    ("nonlinear", dict(theta=7.8e-2), 5.0, False),
    ("linearized", dict(theta=3e-4, dt=1e-3), 0.5, False),
    # D_u = 5 D_v: v decays last and sets the rate that stops the run
    ("diffusion", dict(theta=5.0, k_v=2.0, Theta_scheme=0.5, dt=1e-3), 10.0, True),
    ("nonlinear", dict(theta=1e-2, Theta_scheme=0.0, dt=2e-4), 0.5, False),
    ("nonlinear", dict(theta=1e-2, Theta_scheme=0.5, dt=1e-3), 1.0, False),
    ("nonlinear", dict(theta=1e-2, Theta_scheme=1.0), 5.0, False),
    ("nonlinear", dict(theta=1e-2, k_v=0.0), 5.0, False),
    ("nonlinear", dict(theta=3e-4, k_v=1.0), 5.0, False),
    ("nonlinear", dict(theta=3e-4, k_v=1e8), 5.0, False),
    ("nonlinear", dict(theta=1e-2, x_m=1.0 / 3.0, dx=1.0 / 198.0), 2.0, False),
    ("nonlinear", dict(theta=0.3101693089477196), 1000.0, True),
]
RUN_IDS = ["nonlinear", "linearized", "diffusion", "Theta0", "Theta0.5", "Theta1",
           "k_v0", "k_v1", "k_v1e8", "x_m_third", "theta_c"]


@pytest.mark.parametrize("mode, kw, T, stops_early", RUN_CASES, ids=RUN_IDS)
def test_run_is_bitwise_the_per_species_step(mode, kw, T, stops_early):
    # the stacked U/V step must reproduce the per-species step exactly
    p = coarse_params(**kw)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    U, V, snaps, n_steps, converged = reference_run(p, u0, v0, T, mode)
    res = run(p, (u0, v0), T, mode=mode)
    assert (res.n_steps, res.converged) == (n_steps, converged)
    assert converged == stops_early and (n_steps < T / p.dt) == stops_early
    assert np.array_equal(res.u, U) and np.array_equal(res.v, V)
    assert [t for t, _, _ in res.snapshots] == [t for t, _, _ in snaps]
    for (_, U1, V1), (_, U2, V2) in zip(res.snapshots, snaps):
        assert np.array_equal(U1, U2) and np.array_equal(V1, V2)


@pytest.mark.parametrize("mode, kw, T, stops_early", RUN_CASES, ids=RUN_IDS)
def test_run_matches_a_banded_cholesky_solve(mode, kw, T, stops_early):
    # an independent factor of I + T*C: the same stops, and states equal up
    # to rounding amplified by the condition number of I + T*C, 8e7 at the
    # transparent sentinel and at most 1.6e3 in the other cases (measured:
    # relative differences of 1.2e-10 and at most 3.7e-15)
    p = coarse_params(**kw)
    u0, v0 = initial_data(p, build_grid(p))
    U, V, _, n_steps, converged = reference_run(p, u0, v0, T, mode,
                                                solver=cholesky_solver)
    res = run(p, (u0, v0), T, mode=mode)
    assert (res.n_steps, res.converged) == (n_steps, converged)
    bound = 1e-9 if p.k_v >= 1e8 else 1e-13
    for got, want in ((res.u, U), (res.v, V)):
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


THETA_C = 0.3101693089477196
#: the (theta, k_v) pairs of the acceptance runs
ACCEPTANCE_CONFIGS = [(THETA_C, 1.0), (7.8e-2, 1.0), (3e-4, 1.0), (3e-4, 0.0),
                      (3e-4, 10.0), (1e-2, 0.0), (1e-2, 1e-2)]


@pytest.mark.parametrize("mode, members, T, opts, stops", [
    ("nonlinear", [dict(theta=th, k_v=k, dx=1.0 / 200.0) for th, k in ACCEPTANCE_CONFIGS],
     2.0, dict(steady_stop=False), [200]),
    # theta_c converges first, then 0.2 and 0.078; 1e-2 runs to T
    ("nonlinear", [dict(theta=th) for th in (THETA_C, 0.2, 7.8e-2, 1e-2)], 40.0,
     dict(steady_tol=1e-6), [1844, 2828, 3744, 4000]),
    # dt = min(1e-2, eps/4): two time steps in one batch, each member's
    # rate divided by its own dt decides its stop
    ("nonlinear", [dict(theta=0.5, eps=e) for e in (0.02, 1.0, 0.5)], 20.0,
     dict(steady_tol=1e-6), [1008, 1822, 1991]),
    ("nonlinear", [dict(theta=3e-4, k_v=k) for k in (0.0, 1.0, 1e8)], 5.0, {}, [500]),
    ("linearized", [dict(theta=3e-4, dt=1e-3), dict(theta=7.8e-2, dt=1e-3)], 0.5, {},
     [500]),
    ("diffusion", [dict(theta=5.0, k_v=2.0, Theta_scheme=0.5, dt=1e-3),
                   dict(theta=1e-2, k_v=0.0, Theta_scheme=0.5, dt=1e-3)], 10.0, {},
     [3833, 10000]),
    # the middle member blows up at step 10 between two that run on
    ("nonlinear", [dict(theta=7.8e-2), dict(Theta_scheme=0.0, dt=1e-2),
                   dict(theta=3e-4)], 1.0, {}, [10, 100]),
], ids=["acceptance", "stops", "eps_dt", "k_v", "linearized", "diffusion", "blow_up"])
def test_run_batch_is_bitwise_each_run(mode, members, T, opts, stops):
    params = [coarse_params(**kw) for kw in members]
    initials = [initial_data(p, build_grid(p)) for p in params]
    batch = run_batch(params, initials, T, mode, **opts)
    assert len(batch) == len(params)
    seen = set()
    for p, initial, got in zip(params, initials, batch):
        try:
            want = run(p, initial, T, mode, **opts)
        except BlowUpError as exc:
            assert isinstance(got, BlowUpError)
            assert (str(got), got.step_index, got.t) == (str(exc), exc.step_index, exc.t)
            seen.add(got.step_index)
            continue
        assert (got.n_steps, got.converged, got.t_final) == \
               (want.n_steps, want.converged, want.t_final)
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.v, want.v)
        assert [t for t, _, _ in got.snapshots] == [t for t, _, _ in want.snapshots]
        for (_, U1, V1), (_, U2, V2) in zip(got.snapshots, want.snapshots):
            assert np.array_equal(U1, U2) and np.array_equal(V1, V2)
        assert got.mass_series == want.mass_series
        seen.add(got.n_steps)
    assert sorted(seen) == stops


def assert_matches_reference(got, p, initial, T, mode="nonlinear", **opts):
    """``got`` is exactly what the per-step `reference_run` gives for p."""
    try:
        U, V, snaps, n_steps, converged = reference_run(p, *initial, T, mode, **opts)
    except BlowUpError as exc:
        assert isinstance(got, BlowUpError)
        assert (got.step_index, got.t) == (exc.step_index, exc.t)
        return
    assert (got.n_steps, got.converged) == (n_steps, converged)
    assert got.t_final == n_steps * p.dt
    assert np.array_equal(got.u, U) and np.array_equal(got.v, V)
    assert [t for t, _, _ in got.snapshots] == [t for t, _, _ in snaps]
    for (_, U1, V1), (_, U2, V2) in zip(got.snapshots, snaps):
        assert np.array_equal(U1, U2) and np.array_equal(V1, V2)


@pytest.mark.parametrize("diffusivities, T, tol_step, stops", [
    # snapshots end blocks of steps at steps 4, 7 and 13: one member stops
    # inside the block 5..7, and three at steps 8, 11 and 12 of the block 8..13
    ((1.0, 4.0, 2.0, 0.25), 2.0, 10, [11, 6, 8, 12]),
    # no snapshot before step 63, so the first block is steps 1.._BLOCK_STEPS
    # (160 unknowns leave the ring far below its bound): a stop on its last
    # step, then one a step after it; the D = 0.5 member stops later
    ((1.0, 0.5), 40.0, _BLOCK_STEPS - 1, [_BLOCK_STEPS, 34]),
    ((1.0, 0.5), 40.0, _BLOCK_STEPS, [_BLOCK_STEPS + 1, 35]),
], ids=["in_one_block", "on_block_end", "after_block_end"])
def test_run_batch_stops_match_the_reference_loop(diffusivities, T, tol_step, stops):
    # the members' rates fall strictly, and steady_tol is the first member's
    # rate at tol_step, so that member stops one step later
    params = [coarse_params(theta=0.5, D_vl=D, D_vr=D) for D in diffusivities]
    initials = [initial_data(p, build_grid(p)) for p in params]
    rates = []
    reference_run(params[0], *initials[0], tol_step * params[0].dt, steady_tol=0.0,
                  rates=rates)
    tol = rates[-1]
    batch = run_batch(params, initials, T, steady_tol=tol)
    assert [res.n_steps for res in batch] == stops
    for p, initial, got in zip(params, initials, batch):
        assert_matches_reference(got, p, initial, T, steady_tol=tol)


def test_run_batch_blow_up_matches_the_reference_loop():
    # snapshots end blocks at steps 7 and 13, and the middle member blows up
    # at step 10, inside the block between them; the others run to step 100
    params = [coarse_params(**kw) for kw in (dict(theta=7.8e-2),
                                            dict(Theta_scheme=0.0, dt=1e-2),
                                            dict(theta=3e-4))]
    initials = [initial_data(p, build_grid(p)) for p in params]
    batch = run_batch(params, initials, 1.0)
    assert [getattr(r, "step_index", None) for r in batch] == [None, 10, None]
    assert [getattr(r, "n_steps", None) for r in batch] == [100, None, 100]
    for p, initial, got in zip(params, initials, batch):
        assert_matches_reference(got, p, initial, 1.0)


def test_first_stop_reads_every_row_of_a_block():
    # rates of three steps for two members; row j is the step into ring[j + 1]
    ring = np.ones((4, 6))
    rates = np.array([[1.0, 2.0], [1.0, 5e-9], [3.0, 1.0]])
    assert _first_stop(rates, ring, 1e-8, True) == (1, False)  # a dip inside
    assert _first_stop(rates, ring, 1e-8, False) is None
    # an inf rate with a finite state (an overflowing difference) goes on
    rates[0, 1] = np.inf
    assert _first_stop(rates, ring, 1e-8, True) == (1, False)
    ring[1, 4] = np.inf
    assert _first_stop(rates, ring, 1e-8, True) == (0, True)
    rates[0, 1] = 2.0
    rates[1, 0] = np.nan
    ring[1, 4], ring[2, 0] = 1.0, np.nan
    # a blow-up on the row of the dip comes first
    assert _first_stop(rates, ring, 1e-8, True) == (1, True)


def test_run_batch_fails_a_bad_member_alone():
    p = coarse_params()
    good = initial_data(p, build_grid(p))
    short = (good[0][:-1], good[1][:-1])
    first, second, third = run_batch([p, p, p], [good, short, good], 1.0)
    assert isinstance(second, ValueError) and "does not match" in str(second)
    want = run(p, good, 1.0)
    for got in (first, third):
        assert np.array_equal(got.u, want.u)
        assert np.array_equal(got.v, want.v)
    with pytest.raises(ValueError, match="one initial state"):
        run_batch([p, p], [good], 1.0)


# ---------------------------------------------------------------------- run

def test_run_looks_up_assemble_and_reaction_in_its_module(monkeypatch):
    # a per-layer timer (perfbench/layers.py) wraps fdm.assemble and
    # fdm.reaction where run finds them: it must call assemble once per
    # species and reaction once per step
    calls = dict.fromkeys(("assemble", "reaction"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fdm, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(fdm, name, counted)
    p = coarse_params()
    res = run(p, initial_data(p, build_grid(p)), 1.0, steady_stop=False)
    assert res.n_steps == 100
    assert calls == {"assemble": 2, "reaction": 100}


def test_run_converges_to_equilibrium_at_critical_ratio(paper_steady):
    tc = 0.3101693089477196
    p = make_params(theta=tc)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 1000.0)
    assert res.converged
    assert res.t_final < 1000.0
    assert np.max(np.abs(res.u - paper_steady.u_bar)) < 1e-3
    assert np.max(np.abs(res.v - paper_steady.v_bar)) < 1e-3
    assert res.jump[0] < 1e-6 and res.jump[1] < 1e-6


def test_run_sealed_membrane_below_first_mode_converges(paper_steady):
    # theta = 1e-2 leaves no unstable eigenvalue when the membrane is sealed
    p = make_params(theta=1e-2, k_v=0.0)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 1000.0)
    assert res.converged
    assert np.max(np.abs(res.u - paper_steady.u_bar)) < 1e-3


@pytest.mark.slow
def test_run_single_mode_regime_leaves_a_membrane_jump(paper_steady):
    # one unstable mode: nearly constant sides with a jump at the membrane
    p = make_params(theta=7.8e-2)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 1000.0)
    var_l, var_r = side_variation(res.u, res.grid)
    assert res.jump[0] > 10.0 * max(var_l, var_r) / 3.0
    assert res.jump[0] > 0.02
    sd = np.max(np.abs(res.u - paper_steady.u_bar))
    assert sd > 1e-2  # did not fall back to the equilibrium


def test_run_transparent_membrane_closes_the_jump():
    p = make_params(theta=3e-4, k_v=1e8, dx=1.0 / 100.0)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 500.0)
    assert res.jump[0] < 1e-3 and res.jump[1] < 1e-3


def test_run_records_mass_and_snapshots():
    p = coarse_params(theta=1e-2)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 10.0, steady_stop=False)
    times = [t for t, _, _ in res.snapshots]
    assert times[0] == 0.0 and times[-1] == pytest.approx(10.0, abs=2 * p.dt)
    assert len(times) >= 8
    assert res.mass_initial == pytest.approx(0.8, abs=1e-12)
    assert res.mass_drift < 1e-12


def test_run_equilibrium_start_converges_immediately():
    p = coarse_params(preset="constant-plus-noise", noise_amplitude=0.0)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 100.0)
    assert res.converged and res.n_steps == 1


@pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0])
def test_run_fully_implicit_diffusion_is_unconditionally_stable(dt):
    # eps is immaterial in pure-diffusion mode; pick it large so the
    # explicit-reaction dt guard stays quiet
    p = coarse_params(Theta_scheme=1.0, dt=dt, eps=8.0)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 20.0 * dt, mode="diffusion", steady_stop=False)
    assert np.all(np.isfinite(res.u))
    assert np.max(np.abs(res.u)) < 1.0


def test_run_mass_conserved_across_regimes():
    for kw in (dict(theta=3e-4, k_v=1.0), dict(theta=1e-2, k_v=0.0),
               dict(theta=1e-2, k_v=10.0, Theta_scheme=0.9, dt=1e-3),
               dict(theta=0.3, k_v=0.5, eps=0.25)):
        p = coarse_params(**kw)
        grid = build_grid(p)
        u0, v0 = initial_data(p, grid)
        res = run(p, (u0, v0), 20.0, steady_stop=False)
        assert res.mass_drift < 1e-10, kw


def test_run_mass_at_transparent_sentinel():
    # kappa ~ 1e8/dx makes the solve ill-conditioned; conservation now rests
    # on the factorisation's backward error, so the bound is looser
    p = coarse_params(theta=3e-4, k_v=1e8)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    res = run(p, (u0, v0), 20.0, steady_stop=False)
    assert res.mass_drift < 1e-8


@pytest.mark.parametrize("k_v", [1e12, 1e16, 1e18, 1e30])
def test_run_steps_a_larger_permeability_as_the_sentinel(k_v):
    # k beyond PERMEABILITY_INF is the same transparent membrane; taken as
    # given, dt*k/dx swamps the 1 of I + T*C: mass drift 4e-7 at 1e12 and
    # 0.6 at 1e18, and no positive definite factor at 1e30
    p = coarse_params(theta=3e-4, k_v=k_v)
    u0, v0 = initial_data(p, build_grid(p))
    res = run(p, (u0, v0), 5.0)
    assert res.mass_drift < 1e-9
    assert max(res.jump) < 1e-9


def test_linearized_growth_tracks_dispersion(paper_steady):
    # seeded eigenmode in the many-mode regime grows like exp(mu t)
    from membrane_rd import dispersion, eigenvalues, project
    from membrane_rd.spectrum import mode_values

    p = make_params(theta=3e-4, dx=1.0 / 200.0, dt=1e-3,
                    preset="eigenmode-perturbation", preset_mode=1,
                    preset_amplitude=1e-3)
    grid = build_grid(p)
    u0, v0 = initial_data(p, grid)
    em = eigenvalues(p, 1)[1]
    mu = dispersion(em.eta, p.theta, paper_steady.jac).max_re
    res = run(p, (u0, v0), 0.5, mode="linearized", steady_stop=False)
    ts, amps = [], []
    for t, U, _ in res.snapshots[1:]:
        ts.append(t)
        amps.append(abs(project(U - paper_steady.u_bar, [em], grid)[0]))
    slope = np.polyfit(ts, np.log(amps), 1)[0]
    assert slope == pytest.approx(mu, rel=0.05)


# ---------------------------------------------------------------- diagnostics

def test_kedem_katchalsky_residual_is_first_order():
    ss = steady_state(0.8)
    defects = []
    for dx in (1.0 / 50.0, 1.0 / 100.0, 1.0 / 200.0):
        p = make_params(theta=7.8e-2, dx=dx)
        grid = build_grid(p)
        u0, v0 = initial_data(p, grid)
        res = run(p, (u0, v0), 200.0, steady_stop=False)
        dl, dr = kedem_katchalsky_residual(res.u, grid, p.D_ul,
                                           p.D_ur, p.k_u)
        defects.append(max(dl, dr))
    assert defects[0] < 0.05
    assert defects[2] < 1.2 * defects[0]  # not growing under refinement


@pytest.mark.slow
def test_profile_refinement_is_first_order():
    ss = steady_state(0.8)
    finals = {}
    for dx in (1.0 / 100.0, 1.0 / 200.0):
        p = make_params(theta=1e-2, k_v=1e-2, dx=dx)
        grid = build_grid(p)
        u0, v0 = initial_data(p, grid)
        res = run(p, (u0, v0), 2000.0)
        assert res.converged
        finals[dx] = (grid.centers, res.u)
    xc, uc = finals[1.0 / 100.0]
    xf, uf = finals[1.0 / 200.0]
    # compare at shared abscissae per side
    n_c, n_f = len(xc) // 2, len(xf) // 2
    uc_on_f = np.concatenate([
        np.interp(xf[:n_f], xc[:n_c], uc[:n_c]),
        np.interp(xf[n_f:], xc[n_c:], uc[n_c:]),
    ])
    assert np.max(np.abs(uc_on_f - uf)) < 0.5 * (1.0 / 100.0)


def test_pattern_metrics_helpers():
    p = coarse_params()
    grid = build_grid(p)
    vals = np.empty(grid.n_points)
    vals[grid.left] = 1.0
    vals[grid.right] = 2.0
    assert membrane_jump(vals, grid) == pytest.approx(1.0)
    assert side_variation(vals, grid) == (0.0, 0.0)
    wiggly = np.sin(6 * np.pi * grid.centers)
    l, r = sign_changes(wiggly, 0.0, grid)
    assert l >= 2 and r >= 2
