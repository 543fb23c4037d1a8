"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy time integrations (criteria 6 and 7 share them) run once per
session through the `sim_cache` fixture, as one `run_batch`: T = 1000 at
dx = 1/200 with the steady-state early exit disabled, so every run takes
the full 1e5 steps.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from membrane_rd import (
    ModelParams,
    build_grid,
    conserved_mass,
    count_unstable,
    discrete_spectrum_oracle,
    dispersion,
    eigenvalues,
    h_prime,
    initial_data,
    instability_range,
    midpoint_grid,
    project,
    run,
    run_batch,
    steady_state,
    theta_critical,
)
from membrane_rd.spectrum import mode_values
from membrane_rd.fdm import side_variation, sign_changes

from conftest import q_root_oracle

THETA_C = 0.3101693089477196
DATA = Path(__file__).parent / "data"

#: (theta, k_v) pairs referenced by criteria 5 and 6; criterion 7 checks
#: discrete mass conservation across all of them.
SIM_CONFIGS = [
    (THETA_C, 1.0),
    (7.8e-2, 1.0),
    (3e-4, 1.0),
    (3e-4, 0.0),
    (3e-4, 10.0),
    (1e-2, 0.0),
    (1e-2, 1e-2),
]


def conclude(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + " | ".join(failures)


@pytest.fixture(scope="session")
def sim_cache():
    # one batch: each member is bitwise its own `run`
    params = [ModelParams(theta=theta, k_v=k_v) for theta, k_v in SIM_CONFIGS]
    initials = [initial_data("paper-fig3", build_grid(p)) for p in params]
    results = run_batch(params, initials, 1000.0, steady_stop=False)
    for res in results:
        if isinstance(res, Exception):
            raise res
    return dict(zip(SIM_CONFIGS, results))


@pytest.fixture(scope="session")
def paper_ss():
    return steady_state(0.8)


def test_c01_steady_state(paper_ss):
    failures = []
    if abs(paper_ss.u_bar - 0.7545) > 1e-3:
        failures.append(f"u_bar = {paper_ss.u_bar}")
    if abs(paper_ss.v_bar - 0.0454) > 1e-3:
        failures.append(f"v_bar = {paper_ss.v_bar}")
    hp = h_prime(paper_ss.u_bar)
    if abs(hp - (-0.3101)) > 1e-3:
        failures.append(f"h'(u_bar) = {hp}")
    conclude(1, "steady state", failures)


def test_c02_critical_ratio(paper_ss):
    failures = []
    tc = theta_critical(paper_ss.jac)
    closed = -h_prime(paper_ss.u_bar)
    if abs(tc - 0.3101) > 1e-3:
        failures.append(f"theta_c = {tc}")
    if abs(tc - closed) > 1e-9:
        failures.append(f"quadratic vs closed form: {tc} vs {closed}")
    conclude(2, "critical ratio", failures)


def test_c03_instability_range(paper_ss):
    failures = []
    for theta, expect, tol in [(7.8e-2, 2.97, 0.01), (3e-4, 1032.6, 0.5),
                               (1e-5, 31009.0, 10.0)]:
        rng = instability_range(theta, paper_ss.jac)
        if rng.eta_minus != 0.0:
            failures.append(f"theta={theta}: eta_minus = {rng.eta_minus} != 0")
        if abs(rng.eta_plus - expect) > tol:
            failures.append(
                f"theta={theta}: eta_plus = {rng.eta_plus} vs {expect}+-{tol}")
    conclude(3, "instability range", failures)


def test_c04_membrane_eigenvalue_table():
    # xi_n = b_n/pi, tabulated to two decimals: each entry is compared at
    # that printed resolution, and every xi_n is pinned tightly by an
    # independent scan of xi tan(xi/2) = 2k/D (L = D = 1)
    table = {
        0.0: (0.0, 2.0, 4.0, 6.0),
        0.5: (0.41, 2.09, 4.05, 6.04),
        5.0: (0.83, 2.56, 4.39, 6.29),
        1e8: (1.0, 3.0, 5.0, 7.0),
    }
    failures = []
    for k_v, expected in table.items():
        params = ModelParams(k_v=k_v)
        modes = eigenvalues(params, 4)[1:]
        xis = np.array([mode.b_n for mode in modes])
        for n, (xi, exp) in enumerate(zip(xis / math.pi, expected), start=1):
            if abs(xi - exp) >= 0.01:
                failures.append(
                    f"k/D={k_v:g} xi_{n}: {xi:.5f}pi vs {exp}pi "
                    f"(off by {abs(xi - exp):.4f}pi)")
        if 0.0 < k_v < 1e8:
            scan = q_root_oracle(k_v, 4)
            if np.max(np.abs(xis / scan - 1.0)) > 1e-8:
                failures.append(
                    f"k/D={k_v:g}: xi/pi {np.round(xis / math.pi, 6)} vs root "
                    f"scan {np.round(scan / math.pi, 6)}")
    conclude(4, "eigenvalue table", failures)


def membrane_mode_count(params, rng, N=400):
    """Membrane-feeling eigenvalues of the discrete oracle inside rng.

    The oracle's spectrum, less its zero kernel and less the transparent
    cosines D_v (2 m pi / L)^2, which are eigenfunctions for every k_v.
    """
    m_max = int(params.L * math.sqrt(rng.eta_plus / params.D_vr) / (2.0 * math.pi))
    transparent = params.D_vr * (2.0 * math.pi * np.arange(1, m_max + 1) / params.L) ** 2
    vals = discrete_spectrum_oracle(params, N, n_max=4 * m_max + 8)
    assert vals[-1] >= rng.eta_plus, "oracle window ends inside the interval"
    dx = params.x_m / N
    vals = vals[vals > 1e-9 * (params.D_vr / dx**2 + params.k_v / dx)]

    def inside(etas):
        return int(np.sum((etas > rng.eta_minus) & (etas < rng.eta_plus)))

    return inside(vals) - inside(transparent)


def test_c05_unstable_mode_counts(paper_ss):
    cases = [
        (7.8e-2, 1.0, 1),
        (3e-4, 1.0, 6),
        (3e-4, 0.0, 5),
        (3e-4, 10.0, 5),
        (1e-2, 0.0, 0),
        (1e-2, 1e-2, 1),
    ]
    failures = []
    for theta, k_v, expect in cases:
        params = ModelParams(theta=theta, k_v=k_v)
        rng = instability_range(theta, paper_ss.jac)
        count, etas = count_unstable(rng, params)
        if count != expect:
            failures.append(
                f"theta={theta:g} k_v={k_v:g}: count {count} vs {expect} "
                f"(etas {np.round(etas, 2)}, eta_plus {rng.eta_plus:.2f})")
        oracle = membrane_mode_count(params, rng)
        if count != oracle:
            failures.append(
                f"theta={theta:g} k_v={k_v:g}: count {count} vs discrete "
                f"oracle {oracle}")
        if (theta, k_v) == (1e-2, 1e-2) and etas:
            if abs(etas[0] - 0.04) > 1e-3:
                failures.append(f"eta_1 = {etas[0]} vs 0.04+-1e-3")
    conclude(5, "unstable mode counts", failures)


def single_mode_failures(res, u_bar):
    """Why a final state is not the one-mode membrane jump pattern of z_1."""
    failures = []
    U, grid = res.u, res.grid
    dev = U - u_bar
    sc_l, sc_r = sign_changes(U, u_bar, grid)
    if sc_l or sc_r:
        failures.append(f"interior sign changes ({sc_l}, {sc_r}) vs none")
    z1 = eigenvalues(res.params, 1)[1]
    share = abs(project(dev, [z1], grid)[0]) / math.sqrt(grid.dx * float(dev @ dev))
    if share < 0.95:
        failures.append(f"z_1 carries {share:.3f} of |u - u_bar| vs >= 0.95")
    var = max(side_variation(U, grid))
    if res.jump[0] <= 10.0 * var / 3.0:
        failures.append(
            f"membrane jump {res.jump[0]:.3e} vs > (10/3) x side variation {var:.3e}")
    sup = float(np.max(np.abs(dev)))
    if sup <= 1e-2:
        failures.append(f"sup |u - u_bar| {sup:.3e} vs > 1e-2")
    return failures


def multi_mode_failures(res, u_bar):
    """Why a final state is not a pattern with fronts inside each side."""
    failures = []
    U, grid = res.u, res.grid
    sc_l, sc_r = sign_changes(U, u_bar, grid)
    if sc_l < 1 or sc_r < 1:
        failures.append(f"interior sign changes ({sc_l}, {sc_r}) vs >= 1 per side")
    var_l, var_r = side_variation(U, grid)
    if min(var_l, var_r) <= 0.5:
        failures.append(f"side variation ({var_l:.3e}, {var_r:.3e}) vs > 0.5")
    return failures


def test_c06_pattern_dichotomy(sim_cache, paper_ss):
    failures = []
    res = sim_cache[(THETA_C, 1.0)]
    dist = max(np.max(np.abs(res.u - paper_ss.u_bar)),
               np.max(np.abs(res.v - paper_ss.v_bar)))
    if dist > 1e-3:
        failures.append(f"theta_c: sup distance {dist:.2e} vs < 1e-3")

    single = sim_cache[(7.8e-2, 1.0)]
    multi = sim_cache[(3e-4, 1.0)]
    failures += [f"theta=7.8e-2: {f}"
                 for f in single_mode_failures(single, paper_ss.u_bar)]
    failures += [f"theta=3e-4: {f}"
                 for f in multi_mode_failures(multi, paper_ss.u_bar)]
    # the two regime checks must tell the regimes apart
    if not single_mode_failures(multi, paper_ss.u_bar):
        failures.append("theta=3e-4 state passes the single-mode check")
    if not multi_mode_failures(single, paper_ss.u_bar):
        failures.append("theta=7.8e-2 state passes the multi-front check")
    conclude(6, "pattern dichotomy", failures)


def test_c07_mass_conservation(sim_cache):
    failures = []
    for key, res in sim_cache.items():
        if res.n_steps != 100_000:
            failures.append(f"{key}: ran {res.n_steps} steps, expected 1e5")
        if res.mass_drift >= 1e-10:
            failures.append(f"{key}: relative mass drift {res.mass_drift:.2e}")
    conclude(7, "mass conservation", failures)


def test_c08_spectral_cross_validation():
    failures = []
    for k_v in (0.0, 1.0, 1e8):
        params = ModelParams(k_v=k_v)
        disc = discrete_spectrum_oracle(params, 400, n_max=14)
        nonzero = [m for m in eigenvalues(params, 5)[1:] if m.eta > 0.0][:4]
        for m in nonzero:
            nearest = disc[np.argmin(np.abs(disc - m.eta))]
            rel = abs(nearest - m.eta) / m.eta
            if rel > 0.02:
                failures.append(
                    f"k_v={k_v:g} eta_{m.n}={m.eta:.3f}: discrete {nearest:.3f} "
                    f"off by {rel:.1%}")
    conclude(8, "spectral cross-validation", failures)


def test_c09_modal_growth(paper_ss):
    failures = []
    params = ModelParams(theta=3e-4, dx=1.0 / 400.0, dt=1e-4)
    grid = build_grid(params)
    u0, v0 = initial_data("eigenmode-perturbation", grid, params,
                          mode=1, amplitude=1e-3)
    em = eigenvalues(params, 1)[1]
    mu = dispersion(em.eta, params.theta, paper_ss.jac).max_re
    res = run(params, (u0, v0), 0.5, mode="linearized", steady_stop=False)
    ts, amps = [], []
    for t, U, _ in res.snapshots[1:]:
        ts.append(t)
        amps.append(abs(project(U - paper_ss.u_bar, [em], grid)[0]))
    slope = float(np.polyfit(ts, np.log(amps), 1)[0])
    if abs(slope - mu) > 0.05 * mu:
        failures.append(f"growth {slope:.5f} vs dispersion {mu:.5f}")
    conclude(9, "modal growth", failures)


@pytest.mark.slow
def test_c10_eps_sweep_monotonicity(paper_ss):
    failures = []
    eps_values = [10.0, 1.0, 1.0 / 5.0, 1.0 / 20.0, 1.0 / 100.0]
    k_values = (0.0, 1.0, 1e8)
    # all 15 runs in one batch, each bitwise its own `run` (dt follows eps)
    params = [ModelParams(theta=1e-4, k_v=k_v, eps=eps)
              for k_v in k_values for eps in eps_values]
    initials = [initial_data("paper-fig3", build_grid(p)) for p in params]
    results = iter(run_batch(params, initials, 1000.0))
    for k_v in k_values:
        counts = []
        for eps in eps_values:
            res = next(results)
            if isinstance(res, Exception):
                raise res
            ss = steady_state(0.8, eps=eps)
            counts.append(sign_changes(res.u, ss.u_bar, res.grid))
        for side, label in ((0, "left"), (1, "right")):
            seq = [c[side] for c in counts]
            if any(b < a for a, b in zip(seq, seq[1:])):
                failures.append(f"k_v={k_v:g} {label} crossings {seq} decrease")
    conclude(10, "eps sweep monotonicity", failures)


def test_c11_eigenfunction_orthonormality():
    failures = []
    params = ModelParams(dx=1.0 / 400.0)
    grid = midpoint_grid(params)
    modes = eigenvalues(params, 7)
    Z = np.stack([mode_values(m, grid) for m in modes])
    gram = grid.dx * (Z @ Z.T)
    dev = float(np.max(np.abs(gram - np.eye(8))))
    if dev >= 10.0 * grid.dx**2:
        failures.append(f"gram deviation {dev:.2e} vs < {10 * grid.dx**2:.2e}")
    conclude(11, "eigenfunction orthonormality", failures)


# ----------------------------------------------------------- golden profiles

def _golden_cases():
    blob = json.loads((DATA / "goldens.json").read_text())
    return blob["cases"]


def test_final_profiles_match_frozen_goldens(sim_cache):
    # regression guard: identical trajectories to the frozen dx = 1/200 runs
    for label, case in _golden_cases().items():
        theta, k_v = case["params"]["theta"], case["params"]["k_v"]
        res = sim_cache[(theta, k_v)]
        coarse = case["coarse"]
        stride = coarse["u"]["stride"]
        n_l = res.grid.N_l + 1
        for species, field in (("u", res.u), ("v", res.v)):
            left = np.asarray(coarse[species]["left"])
            right = np.asarray(coarse[species]["right"])
            assert np.allclose(field[:n_l:stride], left, atol=1e-11), label
            assert np.allclose(field[n_l::stride], right, atol=1e-11), label
        assert res.jump[0] == pytest.approx(coarse["jump_u"], abs=1e-11)


def test_goldens_were_refinement_checked():
    for label, case in _golden_cases().items():
        assert case["fine"]["dx"] == pytest.approx(1.0 / 400.0)
        # halving dx moves the profile by O(dx) at most
        assert case["refinement_gap_u"] < 60.0 / 200.0
