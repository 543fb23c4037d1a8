import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from membrane_rd import (
    ModelParams,
    build_grid,
    count_unstable,
    discrete_spectrum_oracle,
    eigenfunction,
    eigenvalues,
    instability_range,
    project,
    steady_state,
)
from membrane_rd import spectrum
from membrane_rd.spectrum import determinant, mode_values

from conftest import make_params, q_root_oracle


def transparent_values(params, X):
    """Sealed values below X shared by both halves: the transparent modes."""
    spans = (params.x_m, params.L - params.x_m)
    sides = [{round(D * (j * math.pi / span) ** 2, 6)
              for j in range(1, int(span * math.sqrt(X / D) / math.pi) + 1)}
             for span, D in zip(spans, (params.D_vl, params.D_vr))]
    return sorted(v for v in sides[0] & sides[1] if v < X)


# ------------------------------------------------------------ root function

def test_determinant_vanishes_at_the_scanned_roots():
    # the q-form xi tan(xi/2) = 2K, scanned on its own, has its roots at
    # eta = xi^2 for a midpoint membrane; the determinant vanishes there
    for K in (0.5, 5.0):
        p = make_params(k_v=K)
        for xi in q_root_oracle(K, 4):
            slope = abs(determinant(xi**2 * (1 + 1e-6), p)
                        - determinant(xi**2 * (1 - 1e-6), p)) / 2e-6
            assert abs(determinant(xi**2, p)) < 1e-8 * slope


@pytest.mark.parametrize("k_v", [1e-2, 1.0, 7.0, 1e8])
def test_off_centre_eigenvalues_are_the_determinant_roots(k_v):
    p = make_params(k_v=k_v, x_m=0.3)
    for m in eigenvalues(p, 6)[1:]:
        h = 1e-7 * m.eta
        assert determinant(m.eta - h, p) * determinant(m.eta + h, p) < 0.0


def test_off_centre_eigenvalues_and_the_discrete_oracle():
    p = make_params(k_v=1.0, x_m=0.3)
    etas = [m.eta for m in eigenvalues(p, 2)[1:]]
    assert etas == pytest.approx([3.482861, 22.946399], abs=1e-6)
    # the stepper's own operator converges to them at first order: its
    # error halves with dx (dx = x_m/N = 1/200, 1/400, 1/800)
    errs = []
    for N in (60, 120, 240):
        vals = discrete_spectrum_oracle(p, N, n_max=6)
        errs.append([abs(vals[np.argmin(np.abs(vals - e))] - e) for e in etas])
    errs = np.array(errs)
    assert errs[0, 0] == pytest.approx(1.24e-2, rel=0.02)
    ratios = errs[:-1] / errs[1:]
    assert np.all((ratios > 1.8) & (ratios < 2.2)), ratios


def test_two_diffusivity_modes_satisfy_both_matching_conditions():
    # nu_D = 0.1: each mode's own amplitudes A, B solve both membrane
    # conditions, and its eigenvalue sits between the sealed values
    p = ModelParams(D_vl=1.0, D_vr=0.1, k_v=0.7, theta=0.1)
    modes = eigenvalues(p, 12)
    for m in modes[1:]:
        zl = m.A * math.cos(m.a_n * p.x_m)
        zr = m.B * math.cos(m.b_n * (p.x_m - p.L))
        flux_l = -p.D_vl * m.A * m.a_n * math.sin(m.a_n * p.x_m)
        flux_r = -p.D_vr * m.B * m.b_n * math.sin(m.b_n * (p.x_m - p.L))
        scale = p.D_vl * abs(m.A) * m.a_n + p.D_vr * abs(m.B) * m.b_n
        for flux in (flux_l, flux_r):
            assert abs(flux - p.k_v * (zr - zl)) < 1e-10 * scale
    etas = np.array([m.eta for m in modes])
    assert np.all(np.diff(etas) > 0.0)
    # the discrete operator of the stepper carries the same values
    vals = discrete_spectrum_oracle(p, 400, n_max=40)
    for m in modes[1:5]:
        nearest = vals[np.argmin(np.abs(vals - m.eta))]
        assert abs(nearest - m.eta) < 0.02 * m.eta


# ----------------------------------------------------------- eigenvalue sets

def test_eigenvalues_match_scan_oracle():
    for K in (0.5, 5.0):
        p = make_params(k_v=K)
        got = np.array([m.eta for m in eigenvalues(p, 4)[1:]])
        expect = q_root_oracle(K, 4) ** 2
        assert np.allclose(got, expect, rtol=1e-9)


def test_eigenvalues_sealed_and_transparent_limits():
    p0 = make_params(k_v=0.0)
    xis = [m.b_n / math.pi for m in eigenvalues(p0, 4)[1:]]
    assert xis == pytest.approx([0.0, 2.0, 4.0, 6.0], abs=1e-14)
    pinf = make_params(k_v=1e8)
    xis = [m.b_n / math.pi for m in eigenvalues(pinf, 4)[1:]]
    assert xis == pytest.approx([1.0, 3.0, 5.0, 7.0], abs=1e-3)


def test_infinite_sentinel_is_continuous():
    # just below the sentinel the bracketed roots already sit on the
    # k = infinity closed form to a fraction of the stated 1e-3*pi window
    p = make_params(k_v=9.9e7)
    for n, m in enumerate(eigenvalues(p, 4)[1:], start=1):
        assert m.b_n / math.pi == pytest.approx(2 * n - 1, abs=1e-6)


def test_sealed_membrane_has_double_zero():
    modes = eigenvalues(make_params(k_v=0.0), 5)
    zeros = [m for m in modes if m.eta == 0.0]
    assert len(zeros) == 2
    assert all(m.degenerate_zero for m in zeros)
    # the two zero modes: global constant and the antisymmetric constant
    grid = build_grid(make_params(k_v=0.0))
    z0 = mode_values(zeros[0], grid)
    z1 = mode_values(zeros[1], grid)
    assert np.allclose(z0, 1.0, atol=1e-12) or np.allclose(z0, 1.0 / math.sqrt(grid.L))
    assert np.allclose(np.abs(z1), np.abs(z1[0]), atol=1e-12)
    assert z1[0] * z1[-1] < 0


def test_eigenvalue_monotonicity_and_bounds_in_k():
    ks = 10.0 ** np.linspace(-3, 3, 13)
    lower = eigenvalues(make_params(k_v=0.0), 4)
    upper = eigenvalues(make_params(k_v=1e8), 4)
    prev = None
    for k in ks:
        etas = np.array([m.eta for m in eigenvalues(make_params(k_v=k), 4)[1:]])
        for n, eta in enumerate(etas, start=1):
            assert lower[n].eta < eta < upper[n].eta
        if prev is not None:
            assert np.all(etas > prev)
        prev = etas


def test_eigenvalue_continuity_in_k():
    base = np.array([m.eta for m in eigenvalues(make_params(k_v=2.0), 4)[1:]])
    for delta in (1e-2, 1e-4, 1e-6):
        near = np.array([
            m.eta for m in eigenvalues(make_params(k_v=2.0 + delta), 4)[1:]
        ])
        assert np.max(np.abs(near - base)) < 10.0 * delta


def test_bracket_count_matches_sign_change_scan():
    # the sign changes of the determinant on a fine scan below X are the
    # listed modes and the transparent modes (shared sealed values), which
    # the family leaves out; a sealed membrane has det = -p_l p_r, which
    # changes sign at each single sealed value and has a double zero at a
    # shared one (listed once)
    for x_m, k_v, X in ((0.5, 3.0, 300.0), (0.3, 1.0, 1500.0),
                        (0.5, 1e8, 300.0), (0.3, 0.0, 1500.0)):
        p = make_params(k_v=k_v, x_m=x_m)
        vals = determinant(np.linspace(1e-6, X, 400_001), p)
        changes = int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
        modes = [m for m in eigenvalues(p, 40)[1:] if 0.0 < m.eta < X]
        shared = transparent_values(p, X)
        assert len(shared) >= 1
        expect = len(modes) + (-1 if k_v == 0.0 else 1) * len(shared)
        assert changes == expect, (x_m, k_v)


@pytest.fixture
def memo(monkeypatch):
    """An empty spectrum memo for the test, the process's own restored after."""
    fresh = spectrum._Memo()
    monkeypatch.setattr(spectrum, "_memo", fresh)
    return fresh


def test_a_shorter_list_is_a_prefix(memo):
    # each root stops on its own, so a shorter list is a prefix of a longer
    # one; both are solved here, with the memo emptied before each call
    for p in (make_params(k_v=1.0, x_m=0.3), make_params(k_v=10.0, D_vr=0.3)):
        longer = eigenvalues(p, 40)
        memo.clear()
        assert longer[:9] == eigenvalues(p, 8)


def test_memo_serves_the_lists_a_solve_gives(memo):
    # a list served from the memo, after shorter or longer requests of the
    # same operator and among other operators, is the list an uncached
    # solve of that length gives
    sizes = (1, 8, 34, 300, 1000)
    ops = [make_params(k_v=k_v, x_m=x_m, D_vr=D_vr) for k_v, x_m, D_vr in
           itertools.product((0.0, 1e-6, 1.0, 1e8), (0.5, 0.3, 0.1), (1.0, 0.1, 2.25))]
    solved = {}
    for i, p in enumerate(ops):
        for n in sizes:
            memo.clear()
            solved[i, n] = eigenvalues(p, n)
    memo.clear()
    for order in (sizes, sizes[::-1]):  # the second pass is served throughout
        for i, p in enumerate(ops):
            for n in order:
                assert eigenvalues(p, n) == solved[i, n], (p, n)
    assert memo.modes == len(ops) * 1000
    for i, p in enumerate(ops):
        # theta is no part of the operator: only lam follows it
        other = eigenvalues(replace(p, theta=0.2, k_u=None), 34)
        assert [m._replace(lam=0.0) for m in other] == [
            m._replace(lam=0.0) for m in solved[i, 34]]
        assert [m.lam for m in other] == [0.2 * m.eta for m in other]


def test_memo_holds_at_most_max_modes(memo, monkeypatch):
    # the bound is read where the memo stores; a small one shows the
    # eviction of the least recently used operator
    monkeypatch.setattr(spectrum, "MAX_MODES", 100)
    ops = [make_params(k_v=k) for k in (0.5, 1.0, 2.0, 4.0)]
    for p, n in ((ops[0], 40), (ops[1], 30), (ops[0], 8), (ops[2], 30),
                 (ops[3], 60), (ops[1], 100), (ops[2], 5), (ops[3], 1)):
        modes = eigenvalues(p, n)
        assert len(modes) == n + 1
        assert memo.modes == sum(r.shape[1] for r in memo.entries.values()) <= 100
    # ops[1] filled the memo, then ops[2] evicted it
    assert [key[-1] for key in memo.entries] == [2.0, 4.0]
    assert memo.modes == 6


def test_a_solve_that_raises_stores_nothing(memo, monkeypatch):
    p = make_params(k_v=3.0, x_m=0.3)
    eigenvalues(p, 8)
    held = dict(memo.entries)

    def fail(*args, **kwargs):
        raise ArithmeticError("membrane determinant: 1 roots did not converge")

    monkeypatch.setattr(spectrum, "_roots", fail)
    for q, n in ((p, 40), (make_params(k_v=5.0), 8)):
        with pytest.raises(ArithmeticError):
            eigenvalues(q, n)
        assert memo.entries.keys() == held.keys() and memo.modes == 8
        assert all(memo.entries[key] is rows for key, rows in held.items())


def test_lambda_is_theta_scaled(paper_jac):
    p = make_params(theta=3e-4)
    for m in eigenvalues(p, 5):
        assert m.lam == pytest.approx(p.theta * m.eta, rel=1e-15)


def test_mode_residuals_below_contract():
    for k in (0.5, 1.0, 10.0, 1e3):
        for m in eigenvalues(make_params(k_v=k), 6)[1:]:
            assert m.residual < 1e-9


# -------------------------------------------------------------- eigenfunctions

def test_mode_zero_is_global_constant():
    p = make_params()
    m0 = eigenvalues(p, 2)[0]
    for side, x in (("l", 0.1), ("l", 0.5), ("r", 0.5), ("r", 0.9)):
        assert eigenfunction(m0, x, side) == pytest.approx(1.0, rel=1e-12)
    # |Omega| = L: the constant is 1/sqrt(L)
    assert eigenfunction(m0, 0.2, "l") == pytest.approx(1.0 / math.sqrt(p.L))


def test_eigenfunction_satisfies_membrane_conditions():
    p = make_params(k_v=2.5)
    for m in eigenvalues(p, 4)[1:]:
        zl = eigenfunction(m, p.x_m, "l")
        zr = eigenfunction(m, p.x_m, "r")
        dzl = -m.A * m.a_n * math.sin(m.a_n * p.x_m)
        dzr = -m.B * m.b_n * math.sin(m.b_n * (p.x_m - p.L))
        assert abs(p.D_vl * dzl - p.k_v * (zr - zl)) < 1e-8
        assert abs(dzl - dzr) < 1e-12  # flux continuity for nu_D = 1
        # zero flux on the outer boundary by construction
        assert abs(-m.A * m.a_n * math.sin(0.0)) == 0.0


def test_off_centre_sealed_modes_live_on_one_side():
    # x_m = 0.3: a sealed value of one half only is a mode of that half,
    # zero on the other; orthonormal like the rest
    from membrane_rd import midpoint_grid

    p = make_params(k_v=0.0, x_m=0.3, dx=1.0 / 1000.0)
    modes = eigenvalues(p, 6)
    left_only = [m for m in modes if m.eta > 0 and m.B == 0.0]
    right_only = [m for m in modes if m.eta > 0 and m.A == 0.0]
    assert left_only and right_only
    for m in left_only:  # a left sealed value D_vl (j pi/x_m)^2
        j = round(m.a_n * p.x_m / math.pi)
        assert m.eta == pytest.approx(p.D_vl * (j * math.pi / p.x_m) ** 2)
    grid = midpoint_grid(p)
    Z = np.stack([mode_values(m, grid) for m in modes])
    assert np.max(np.abs(grid.dx * (Z @ Z.T) - np.eye(len(modes)))) < 1e-4


def test_transparent_membrane_restores_continuity():
    p = make_params(k_v=1e8)
    for m in eigenvalues(p, 3)[1:]:
        jump = abs(eigenfunction(m, p.x_m, "r") - eigenfunction(m, p.x_m, "l"))
        assert jump < 1e-3


def test_eigenfunction_sign_convention():
    for k in (0.0, 0.5, 7.0, 1e8):
        p = make_params(k_v=k)
        for m in eigenvalues(p, 4):
            assert eigenfunction(m, p.L, "r") > 0.0


def test_eigenfunction_rejects_wrong_side():
    m = eigenvalues(make_params(), 2)[1]
    with pytest.raises(ValueError):
        eigenfunction(m, 0.8, "l")
    with pytest.raises(ValueError):
        eigenfunction(m, 0.2, "r")
    with pytest.raises(ValueError):
        eigenfunction(m, 0.2, "left")


def test_orthonormality_gram_matrix():
    # midpoint quadrature on the exact cell tiling; the state grid's
    # overhanging end cells would degrade this to O(dx)
    from membrane_rd import midpoint_grid

    p = make_params(dx=1.0 / 400.0)
    grid = midpoint_grid(p)
    modes = eigenvalues(p, 7)  # first 8 modes
    Z = np.stack([mode_values(m, grid) for m in modes])
    gram = grid.dx * (Z @ Z.T)
    assert np.max(np.abs(gram - np.eye(8))) < 10.0 * grid.dx**2


# ----------------------------------------------------------------- projection

def test_project_recovers_a_sampled_mode():
    from membrane_rd import midpoint_grid

    p = make_params()
    grid = midpoint_grid(p)
    modes = eigenvalues(p, 5)
    z1 = mode_values(modes[1], grid)
    coeffs = project(z1, modes, grid)
    assert coeffs[1] == pytest.approx(1.0, abs=10 * grid.dx**2)
    others = np.delete(coeffs, 1)
    assert np.max(np.abs(others)) < 10 * grid.dx**2


def test_project_on_state_grid_is_first_order():
    # the duplicated-trace layout costs one order: coefficients still land
    # within O(dx) of the true ones
    p = make_params()
    grid = build_grid(p)
    modes = eigenvalues(p, 5)
    z1 = mode_values(modes[1], grid)
    coeffs = project(z1, modes, grid)
    assert coeffs[1] == pytest.approx(1.0, abs=2.0 * grid.dx)
    assert np.max(np.abs(np.delete(coeffs, 1))) < 5.0 * grid.dx


def test_project_constant_hits_mode_zero():
    p = make_params()
    grid = build_grid(p)
    modes = eigenvalues(p, 4)
    coeffs = project(np.full(grid.n_points, 0.7), modes, grid)
    assert coeffs[0] == pytest.approx(0.7 * math.sqrt(p.L), abs=1e-10)
    assert np.max(np.abs(coeffs[1:])) < 10 * grid.dx**2


def test_project_fig3_deviation_against_refined_quadrature():
    from membrane_rd import initial_data, midpoint_grid
    from membrane_rd.model import fig3_profile

    ss = steady_state(0.8)
    coeffs = {}
    for dx in (1.0 / 200.0, 1.0 / 800.0):
        params = make_params(dx=dx)
        grid = midpoint_grid(params)
        n_l = grid.N_l + 1
        u0 = np.concatenate([
            fig3_profile(grid.centers[:n_l])[0],
            1.0 / 5.0 + np.sin(4 * np.pi * grid.centers[n_l:]) / 5.0,
        ])
        modes = eigenvalues(params, 6)
        coeffs[dx] = project(u0 - ss.u_bar, modes, grid)
    coarse, fine = coeffs[1.0 / 200.0], coeffs[1.0 / 800.0]
    scale = np.max(np.abs(fine))
    assert np.all(np.abs(coarse - fine) <= 0.01 * np.maximum(np.abs(fine),
                                                             0.05 * scale))


def test_project_rejects_grid_mismatch():
    p = make_params()
    grid = build_grid(p)
    with pytest.raises(ValueError):
        project(np.zeros(7), eigenvalues(p, 2), grid)


# ------------------------------------------------------------- mode counting

def test_count_unstable_reference_cases(paper_jac):
    cases = [
        (7.8e-2, 1.0, 1),
        (3e-4, 1.0, 6),
        (3e-4, 0.0, 5),
        (1e-2, 0.0, 0),
        (1e-2, 1e-2, 1),
    ]
    for theta, k_v, expect in cases:
        p = make_params(theta=theta, k_v=k_v)
        rng = instability_range(theta, paper_jac)
        count, etas = count_unstable(rng, p)
        assert count == expect, (theta, k_v)
        assert len(etas) == expect
        assert all(0.0 < e < rng.eta_plus for e in etas)


def test_count_unstable_first_mode_values(paper_jac):
    p = make_params(theta=7.8e-2)
    _, etas = count_unstable(instability_range(7.8e-2, paper_jac), p)
    assert etas[0] == pytest.approx(2.96, abs=0.01)
    p = make_params(theta=1e-2, k_v=1e-2)
    _, etas = count_unstable(instability_range(1e-2, paper_jac), p)
    assert etas[0] == pytest.approx(0.04, abs=1e-3)


def test_count_unstable_empty_at_critical(paper_jac):
    from membrane_rd import theta_critical

    tc = theta_critical(paper_jac)
    for k_v in (0.0, 1.0, 10.0, 1e8):
        p = make_params(theta=tc, k_v=k_v)
        count, etas = count_unstable(instability_range(tc, paper_jac), p)
        assert count == 0 and etas == []


def test_count_is_finite_for_every_regime(paper_jac):
    # diverging eigenvalues leave only finitely many below eta_plus
    for theta in (1e-2, 1e-3, 1e-5):
        for k_v in (0.0, 0.3, 5.0, 1e8):
            p = make_params(theta=theta, k_v=k_v)
            rng = instability_range(theta, paper_jac)
            count, etas = count_unstable(rng, p)
            assert count == len(etas) < 200


def test_mode_cap_reaches_every_unstable_mode(paper_jac):
    # the cap is arithmetic; a long list counts without it
    for geometry in ({}, {"x_m": 0.3}, {"D_vr": 0.1}, {"x_m": 0.3, "D_vr": 3.0}):
        for theta in (1e-2, 3e-4, 1e-5):
            for k_v in (0.0, 1.0, 1e8):
                p = make_params(theta=theta, k_v=k_v, **geometry)
                rng = instability_range(theta, paper_jac)
                modes = eigenvalues(p, 600)
                assert modes[-1].eta > rng.eta_plus
                etas = [m.eta for m in modes
                        if m.eta > 0.0 and rng.eta_minus < m.eta < rng.eta_plus]
                assert count_unstable(rng, p)[1] == etas, (geometry, theta, k_v)


# -------------------------------------------------------------- discrete oracle

def test_discrete_oracle_sealed_membrane_closed_form():
    p = make_params(k_v=0.0)
    vals = discrete_spectrum_oracle(p, 400, n_max=10)
    # Neumann halves: every eigenvalue is double, including zero
    assert abs(vals[0]) < 1e-6 and abs(vals[1]) < 1e-6
    distinct = vals[2::2]
    expect = np.array([(2 * n * math.pi) ** 2 for n in (1, 2, 3, 4)])
    assert np.allclose(distinct[:4], expect, rtol=0.02)


@pytest.mark.parametrize("k_v", [0.0, 1.0, 1e8])
def test_discrete_oracle_matches_transcendental_roots(k_v):
    p = make_params(k_v=k_v)
    vals = discrete_spectrum_oracle(p, 400, n_max=14)
    # constant kernel survives every permeability; the eigensolver resolves
    # it to roundoff relative to the largest assembled entry
    dx = p.x_m / 400
    assert abs(vals[0]) < 1e-9 * (p.D_vr / dx**2 + p.k_v / dx)
    for m in eigenvalues(p, 4)[1:]:
        if m.eta == 0.0:
            continue
        nearest = vals[np.argmin(np.abs(vals - m.eta))]
        assert abs(nearest - m.eta) <= 0.02 * m.eta


def test_discrete_oracle_refines_towards_the_roots():
    p = make_params(k_v=1.0)
    target = eigenvalues(p, 2)[1].eta
    errs = []
    for N in (100, 200, 400):
        vals = discrete_spectrum_oracle(p, N, n_max=4)
        errs.append(abs(vals[np.argmin(np.abs(vals - target))] - target))
    assert errs[0] > errs[1] > errs[2]


def test_discrete_oracle_rejects_tiny_grids():
    with pytest.raises(ValueError):
        discrete_spectrum_oracle(make_params(), 10)
