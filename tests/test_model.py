import numpy as np
import pytest
from hypothesis import given, strategies as st

from membrane_rd import (
    ModelParams,
    build_grid,
    conserved_mass,
    h,
    h_prime,
    initial_data,
    steady_state,
)
from membrane_rd.model import MassError, fig3_profile

from conftest import fig3_state, make_params


# ------------------------------------------------------------------ h and h'

def test_h_at_zero_vanishes():
    assert h(0.0, 1.0) == 0.0


def test_h_paper_equilibrium_values():
    assert h(0.7545, 1.0) == pytest.approx(0.0454, abs=5e-4)
    assert h_prime(0.7545, 1.0) == pytest.approx(-0.3101, abs=5e-4)


def test_h_prime_is_derivative_of_h():
    # central differences as the independent check
    u = np.linspace(0.01, 2.9, 500)
    eps = 1e-6
    fd = (h(u + eps, 1.3) - h(u - eps, 1.3)) / (2 * eps)
    assert np.allclose(fd, h_prime(u, 1.3), atol=1e-8)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 2.9])
def test_h_nonnegative_and_hprime_above_minus_one(alpha):
    u = np.linspace(0.0, 3.0, 10_000)
    assert np.all(h(u, alpha) >= 0.0)
    assert np.all(h_prime(u, alpha) > -1.0)


# ------------------------------------------------------------------ reaction

def test_reaction_vanishes_at_equilibrium(paper_steady):
    from membrane_rd import reaction

    f, g = reaction(paper_steady.u_bar, paper_steady.v_bar, 1.0, 1.0)
    assert f == 0.0 and g == 0.0


def test_reaction_at_one_one():
    from membrane_rd import reaction

    assert reaction(1.0, 1.0, 1.0, 1.0) == (1.0, -1.0)


def test_reaction_hand_value():
    from membrane_rd import reaction

    f, g = reaction(0.5, 0.2, 0.5, 1.0)
    assert f == pytest.approx(0.15, abs=1e-15)
    assert g == pytest.approx(-0.15, abs=1e-15)


def test_reaction_exactly_antisymmetric_in_bulk():
    from membrane_rd import reaction

    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 3.0, 100_000)
    v = rng.uniform(0.0, 3.0, 100_000)
    f, g = reaction(u, v, 0.37, 1.4)
    assert np.all(f + g == 0.0)


def test_reaction_out_form_is_bitwise_the_allocating_form():
    from membrane_rd import reaction

    rng = np.random.default_rng(11)
    u = rng.uniform(-1.0, 3.0, 1000)
    v = rng.uniform(-1.0, 3.0, 1000)
    eps = rng.uniform(0.01, 10.0, 1000)  # per-entry constants, as in a batch
    for e, a in ((0.37, 1.4), (eps, 1.4), (eps, eps / 4.0)):
        f, g = reaction(u, v, e, a)
        # the documented formula, written out independently
        assert np.array_equal(f, (v - a * u * (u - 1.0) ** 2) / e)
        assert np.array_equal(g, -f)
        buf, scratch = np.empty_like(u), np.empty_like(u)
        assert reaction(u, v, e, a, out=(buf, scratch)) is buf
        assert np.array_equal(buf, f)
    assert reaction(0.5, 0.2, 0.5, 1.0)[0] == (0.2 - h(0.5, 1.0)) / 0.5


@given(st.floats(0, 5), st.floats(0, 5), st.floats(0.01, 10), st.floats(0.01, 2.99))
def test_reaction_negation_property(u, v, eps, alpha):
    from membrane_rd import reaction

    f, g = reaction(u, v, eps, alpha)
    assert f + g == 0.0


# -------------------------------------------------------------- steady state

def _bisect_oracle(M, alpha, lo, hi):
    # plain interval halving on width alone, independent of the library's stop rule
    G = lambda u: M - u - alpha * u * (u - 1.0) ** 2
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if G(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_steady_state_paper_values(paper_steady):
    assert paper_steady.u_bar == pytest.approx(0.7545, abs=1e-3)
    assert paper_steady.v_bar == pytest.approx(0.0454, abs=1e-3)
    assert h_prime(paper_steady.u_bar) == pytest.approx(-0.3101, abs=1e-3)


def test_steady_state_residual_and_refinement_invariance():
    ss = steady_state(0.8)
    assert abs(0.8 - ss.u_bar - h(ss.u_bar)) < 1e-12
    ss2 = steady_state(0.8, maxiter=400)
    assert abs(ss.u_bar - ss2.u_bar) < 1e-10


def test_steady_state_small_mass_limit():
    ss = steady_state(1e-9)
    assert 0.0 < ss.u_bar < 1e-9
    assert 0.0 <= ss.v_bar < 1e-9


def test_steady_state_against_scan_oracle():
    # brute-force sign-change scan, then independent interval halving
    M, alpha = 2.0, 1.0
    u = np.linspace(0.0, M, 1_000_000)
    G = M - u - alpha * u * (u - 1.0) ** 2
    i = int(np.argmax(G <= 0.0))
    oracle = _bisect_oracle(M, alpha, u[i - 1], u[i])
    assert abs(steady_state(M).u_bar - oracle) < 1e-10


def test_steady_state_rejects_nonpositive_mass():
    with pytest.raises(MassError):
        steady_state(0.0)
    with pytest.raises(MassError):
        steady_state(-1.0)


# (M, eps, alpha) -> float.hex of u_bar, v_bar, fu, fv, gu, gv, as computed
# before h and h' took plain floats without numpy
STEADY_STATE_BITS = [
    (0.8, 1.0, 1.0, ('0x1.8252c85493332p-1', '0x1.746d145051439p-5', '0x1.3d9d05f89d0e8p-2', '0x1.0000000000000p+0', '-0x1.3d9d05f89d0e8p-2', '-0x1.0000000000000p+0')),
    (0.3, 1.0, 1.0, ('0x1.6f1b474440000p-3', '0x1.ee963e4458b6cp-4', '-0x1.847e4c3316336p-2', '0x1.0000000000000p+0', '0x1.847e4c3316336p-2', '-0x1.0000000000000p+0')),
    (2.5, 1.0, 1.0, ('0x1.b10081af29200p+0', '0x1.9dfefca1af783p-1', '-0x1.68930eadddf84p+1', '0x1.0000000000000p+0', '0x1.68930eadddf84p+1', '-0x1.0000000000000p+0')),
    (0.001, 0.05, 1.0, ('0x1.064671916872bp-11', '0x1.060348cd9c2e7p-11', '-0x1.3f5c23b795186p+4', '0x1.4000000000000p+4', '0x1.3f5c23b795186p+4', '-0x1.4000000000000p+4')),
    (0.05, 0.25, 2.9, ('0x1.ac60682200002p-7', '0x1.2e817f910daabp-5', '-0x1.5ffac0c9fe4c0p+3', '0x1.0000000000000p+2', '0x1.5ffac0c9fe4c0p+3', '-0x1.0000000000000p+2')),
    (1.7, 3.7, 0.4, ('0x1.8766ed4d8b0ccp+0', '0x1.5e622f2d3f78ep-3', '-0x1.a4060f37a04e1p-3', '0x1.14c1bacf914c1p-2', '0x1.a4060f37a04e1p-3', '-0x1.14c1bacf914c1p-2')),
    (10.0, 1.0, 2.5, ('0x1.18bbb91251e00p+1', '0x1.f3a22376d7278p+2', '-0x1.0a504fd90dc50p+4', '0x1.0000000000000p+0', '0x1.0a504fd90dc50p+4', '-0x1.0000000000000p+0')),
    (123.4, 0.01, 1.0, ('0x1.65cb5685c058ep+2', '0x1.d73ce4313d918p+6', '-0x1.c480342b752adp+12', '0x1.9000000000000p+6', '0x1.c480342b752adp+12', '-0x1.9000000000000p+6')),
    (0.8, 0.5, 0.1, ('0x1.97ea077cb999ap-1', '0x1.af921ce1d10c8p-9', '0x1.cf03b107f5d87p-5', '0x1.0000000000000p+1', '-0x1.cf03b107f5d87p-5', '-0x1.0000000000000p+1')),
    (1, 2.0, 1.5, ('0x1.0000000000000p+0', '0x0.0p+0', '-0x0.0p+0', '0x1.0000000000000p-1', '0x0.0p+0', '-0x1.0000000000000p-1')),
    (0.6, 1.0, 2.99, ('0x1.ac09c6a48999ap-3', '0x1.90618314218d4p-2', '-0x1.c3a9a8846842ep-1', '0x1.0000000000000p+0', '0x1.c3a9a8846842ep-1', '-0x1.0000000000000p+0')),
    (4.0 / 3.0, 0.001, 0.75, ('0x1.441ee7e1e6aaap+0', '0x1.1366d736e138cp-4', '-0x1.173b12c750d68p+9', '0x1.f400000000000p+9', '0x1.173b12c750d68p+9', '-0x1.f400000000000p+9')),
]


@pytest.mark.parametrize("M, eps, alpha, bits", STEADY_STATE_BITS)
def test_steady_state_is_bitwise_pinned(M, eps, alpha, bits):
    ss = steady_state(M, eps, alpha)
    jac = ss.jac
    got = (ss.u_bar, ss.v_bar, jac.fu, jac.fv, jac.gu, jac.gv)
    assert all(type(x) is float for x in got)
    assert tuple(x.hex() for x in got) == bits


@pytest.mark.parametrize("f", [h, h_prime])
def test_h_takes_floats_ints_and_numpy_scalars_alike(f):
    for u in (-1e-3, 0.0, 0.3, 0.7545, 1.0, 2.5):
        want = f(u, 1.3)
        assert type(want) is float
        for same in (np.float64(u), np.array(u), np.array([u])):
            assert float(np.ravel(f(same, 1.3))[0]).hex() == want.hex()
    for n in (0, 1, 2):
        assert f(n, 1.3).hex() == f(float(n), 1.3).hex()


def test_steady_state_turing_window(paper_steady):
    assert 1.0 / 3.0 < paper_steady.u_bar < 1.0
    assert 0.0 < paper_steady.v_bar < 4.0 / 27.0


def test_jacobian_structure(paper_steady):
    jac = paper_steady.jac
    assert jac.fu == -h_prime(paper_steady.u_bar)
    assert jac.fv == 1.0
    assert jac.gu == -jac.fu and jac.gv == -jac.fv
    assert jac.det == 0.0
    assert jac.trace == pytest.approx(-(1.0 + h_prime(paper_steady.u_bar)), rel=1e-14)
    assert jac.trace < 0.0


# ------------------------------------------------------------ conserved mass

def test_mass_of_fig3_data_is_four_fifths(default_params):
    grid, u0, v0 = fig3_state(default_params)
    assert conserved_mass(u0, v0, grid) == pytest.approx(0.8, abs=1e-13)


def test_mass_of_zero_profiles(default_params):
    grid = build_grid(default_params)
    z = np.zeros(grid.n_points)
    assert conserved_mass(z, z, grid) == 0.0


@pytest.mark.parametrize("n", [2, 7, 99])
def test_mass_of_constants(n):
    params = make_params(dx=0.5 / (n + 1))
    assert params.N_l == params.N_r == n
    grid = build_grid(params)
    u0 = np.full(grid.n_points, 0.3)
    v0 = np.full(grid.n_points, 1.1)
    assert conserved_mass(u0, v0, grid) == pytest.approx(1.4, abs=1e-13)


def test_mass_rejects_length_mismatch(default_params):
    grid = build_grid(default_params)
    with pytest.raises(ValueError):
        conserved_mass(np.zeros(3), np.zeros(grid.n_points), grid)


# -------------------------------------------------------------- initial data

def test_fig3_formula_at_origin():
    u0, v0 = fig3_profile(0.0)
    assert u0 == pytest.approx(7.0 / 15.0, abs=1e-15)
    assert v0 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_fig3_sum_is_constant(default_params):
    grid, u0, v0 = fig3_state(default_params)
    assert np.allclose(u0 + v0, 0.8, atol=1e-14)


def test_fig3_membrane_trace_takes_both_branches(default_params):
    grid, u0, v0 = fig3_state(default_params)
    i, j = grid.membrane_index
    assert u0[i] == pytest.approx(7.0 / 15.0, abs=1e-12)  # left branch at x_m
    assert u0[j] == pytest.approx(1.0 / 5.0, abs=1e-12)   # right branch at x_m


@pytest.mark.parametrize("x_m, N_l, N_r, dx", [
    (1.0 / 3.0, 65, 131, 1.0 / 198.0),   # 66 * dx rounds above x_m
    (0.4, 10, 10, 0.4 / 11.0),           # 11 * (x_m / 11) rounds above x_m
])
def test_fig3_left_trace_keeps_left_branch_off_centre(x_m, N_l, N_r, dx):
    L = x_m + (N_r + 1) * dx
    params = make_params(L=L, x_m=x_m, dx=dx)
    assert (params.N_l, params.N_r) == (N_l, N_r)
    grid = build_grid(params)
    i, j = grid.membrane_index
    assert grid.centers[i] > x_m  # the case where x <= x_m picks the wrong branch
    u0, v0 = initial_data(params, grid)
    assert u0[i] - u0[j] == pytest.approx(4.0 / 15.0, abs=1e-12)
    assert v0[j] - v0[i] == pytest.approx(4.0 / 15.0, abs=1e-12)


def test_noise_preset_is_seeded(default_params):
    grid = build_grid(default_params)
    p3, p4 = (make_params(preset="constant-plus-noise", seed=seed) for seed in (3, 4))
    a = initial_data(p3, grid)
    b = initial_data(p3, grid)
    c = initial_data(p4, grid)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])
    ss = steady_state(0.8)
    assert np.max(np.abs(a[0] - ss.u_bar)) <= 1e-2


def test_eigenmode_preset_matches_mode_direction():
    from membrane_rd import eigenvalues, mode_eigenvector
    from membrane_rd.spectrum import mode_values

    params = make_params(theta=3e-4, preset="eigenmode-perturbation",
                         preset_mode=1, preset_amplitude=1e-3)
    grid = build_grid(params)
    u0, v0 = initial_data(params, grid)
    ss = steady_state(0.8)
    em = eigenvalues(params, 1)[1]
    a, b = mode_eigenvector(em.eta, params.theta, ss.jac)
    z = mode_values(em, grid)
    assert np.allclose(u0 - ss.u_bar, 1e-3 * a * z, atol=1e-15)
    assert np.allclose(v0 - ss.v_bar, 1e-3 * b * z, atol=1e-15)


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="^preset: unknown preset"):
        ModelParams(preset="nope")


# ----------------------------------------------------------------- params

def test_params_derivations():
    p = ModelParams()
    assert p.N_l == p.N_r == 99
    assert p.dx == pytest.approx(1.0 / 200.0)
    assert p.k_u == pytest.approx(p.theta * p.k_v)
    assert p.dt == pytest.approx(1e-2)
    assert p.nu_D == 1.0
    assert p.D_ul == pytest.approx(p.theta * p.D_vl)


def test_params_dt_tracks_fast_reactions():
    assert ModelParams(eps=0.01).dt == pytest.approx(0.0025)


@pytest.mark.parametrize(
    "kw", [dict(L=-1), dict(x_m=0.0), dict(x_m=2.0), dict(theta=0.0),
           dict(eps=0.0), dict(k_v=-1.0), dict(Theta_scheme=2.0),
           dict(dx=-0.1), dict(dx=0.25)],
)
def test_params_validation_errors(kw):
    with pytest.raises(ValueError):
        ModelParams(**kw)


def test_params_alpha_outside_window_warns():
    with pytest.warns(UserWarning, match="alpha"):
        ModelParams(alpha=3.5)


def test_params_uncoupled_permeability_warns():
    with pytest.warns(UserWarning, match="k_u"):
        ModelParams(k_u=1.0, k_v=1.0, theta=0.1)


def test_params_inconsistent_dx_rejected():
    with pytest.raises(ValueError, match="^dx: "):
        ModelParams(dx=0.007)
