import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from membrane_rd import (
    Jacobian,
    dispersion,
    instability_range,
    mode_eigenvector,
    ode_stability,
    p_polynomial,
    theta_critical,
)
from membrane_rd.stability import DegenerateModeError, NoCriticalRatioError


def family_jac(hp=-0.3101693089477196, eps=1.0):
    """Jacobian of the mass-conserving reactions for a given h'(u_bar)."""
    fu = -hp / eps
    fv = 1.0 / eps
    return Jacobian(fu, fv, -fu, -fv)


GENERIC = Jacobian(1.0, -2.0, 2.0, -3.0)  # tr = -2, det = 1, theta_c = 1/9


# ------------------------------------------------------------- ode stability

def test_ode_stability_paper_jacobian(paper_jac):
    rep = ode_stability(paper_jac)
    assert rep.tr == pytest.approx(-0.6899, abs=1e-3)
    assert rep.det == 0.0
    assert rep.stable and rep.det_borderline
    assert rep.activator_inhibitor
    assert paper_jac.fu == pytest.approx(0.3101, abs=1e-3)


def test_ode_stability_trivial_cases():
    rep = ode_stability(Jacobian(-1.0, 0.0, 0.0, -1.0))
    assert rep.tr == -2.0 and rep.det == 1.0 and rep.stable
    assert not rep.det_borderline
    rep = ode_stability(Jacobian(1.0, 0.0, 0.0, 1.0))
    assert not rep.stable and rep.tr == 2.0


def test_ode_stability_rejects_nonfinite():
    with pytest.raises(ValueError):
        ode_stability(Jacobian(np.nan, 0.0, 0.0, -1.0))


# ---------------------------------------------------------------- dispersion

def _residual(mu, eta, theta, jac):
    b = eta * (1.0 + theta) - jac.trace
    c = p_polynomial(eta, theta, jac)
    val = mu * mu + b * mu + c
    scale = abs(mu) ** 2 + abs(b * mu) + abs(c) + 1.0
    return abs(val) / scale


def test_dispersion_roots_satisfy_quadratic(paper_jac):
    for eta, theta in [(0.0, 0.1), (2.96, 7.8e-2), (1032.0, 3e-4),
                       (31000.0, 1e-5), (5.0, 0.5)]:
        d = dispersion(eta, theta, paper_jac)
        assert _residual(d.mu_plus, eta, theta, paper_jac) < 1e-10
        assert _residual(d.mu_minus, eta, theta, paper_jac) < 1e-10


def test_dispersion_eta_zero_collapses_to_ode(paper_jac):
    d = dispersion(0.0, 7.8e-2, paper_jac)
    roots = sorted([d.mu_plus.real, d.mu_minus.real])
    assert roots[1] == pytest.approx(0.0, abs=1e-14)      # det = 0 root
    assert roots[0] == pytest.approx(paper_jac.trace, rel=1e-12)


def test_dispersion_unstable_inside_paper_range(paper_jac):
    assert dispersion(2.96, 7.8e-2, paper_jac).max_re > 0.0


def test_dispersion_nonpositive_at_critical_ratio(paper_jac):
    theta_c = theta_critical(paper_jac)
    etas = np.linspace(1e-4, 1e4, 100_000)
    worst = max(dispersion(e, theta_c, paper_jac).max_re for e in etas)
    assert worst <= 1e-12


@given(
    eta=st.floats(0.0, 1e4),
    theta=st.floats(1e-5, 1.0),
    fu=st.floats(0.05, 3.0),
    gap=st.floats(0.05, 3.0),
    fv=st.floats(-3.0, 3.0),
    gu=st.floats(-3.0, 3.0),
)
def test_dispersion_residual_property(eta, theta, fu, gap, fv, gu):
    jac = Jacobian(fu, fv, gu, -(fu + gap))
    d = dispersion(eta, theta, jac)
    for mu in (d.mu_plus, d.mu_minus):
        assert _residual(mu, eta, theta, jac) < 1e-10


def test_dispersion_growth_iff_p_negative():
    # random Jacobians with tr < 0, det >= 0 (activator/inhibitor signs)
    rng = np.random.default_rng(11)
    n = 10_000
    fu = rng.uniform(0.1, 2.0, n)
    gv = -(fu + rng.uniform(0.05, 3.0, n))
    det = rng.uniform(0.0, 2.0, n)
    gu = rng.uniform(0.1, 2.0, n)
    fv = (fu * gv - det) / gu
    eta = 10.0 ** rng.uniform(-2, 4, n)
    theta = 10.0 ** rng.uniform(-5, 0.5, n)
    for i in range(n):
        jac = Jacobian(fu[i], fv[i], gu[i], gv[i])
        p = p_polynomial(eta[i], theta[i], jac)
        if abs(p) < 1e-9:
            continue  # too close to the fold to classify
        grows = dispersion(eta[i], theta[i], jac).max_re > 0.0
        assert grows == (p < 0.0), (eta[i], theta[i], jac)


# -------------------------------------------------------------- p polynomial

def test_p_at_zero_equals_det(paper_jac):
    assert p_polynomial(0.0, 0.1, paper_jac) == paper_jac.det == 0.0
    assert p_polynomial(0.0, 0.3, GENERIC) == GENERIC.det


def test_p_reference_plot_value():
    # eps^-1 = 2, h'(u_bar) = -0.3101, theta = 0.1, eta = 1
    jac = family_jac(hp=-0.3101, eps=0.5)
    assert p_polynomial(1.0, 0.1, jac) == pytest.approx(-0.3202, abs=1e-12)


def test_p_vertex_matches_range_fields(paper_jac):
    rng = instability_range(7.8e-2, paper_jac)
    assert p_polynomial(rng.eta_min, 7.8e-2, paper_jac) == pytest.approx(
        rng.p_min, abs=1e-12)
    # closed form of the vertex value
    s = paper_jac.fu + 7.8e-2 * paper_jac.gv
    assert rng.p_min == pytest.approx(paper_jac.det - s * s / (4 * 7.8e-2),
                                      rel=1e-12)


# ------------------------------------------------------------ critical ratio

def test_theta_critical_paper_value(paper_steady):
    from membrane_rd import h_prime

    tc = theta_critical(paper_steady.jac)
    assert tc == pytest.approx(0.3101, abs=1e-3)
    assert abs(tc - (-h_prime(paper_steady.u_bar))) < 1e-12


def test_theta_critical_double_root_family():
    for eps in (1.0, 0.5, 3.0):
        jac = family_jac(hp=-0.21, eps=eps)
        assert theta_critical(jac) == pytest.approx(0.21, rel=1e-12)


def test_theta_critical_generic_value():
    assert theta_critical(GENERIC) == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_theta_critical_against_vertex_scan():
    # independent oracle: sign change of det - s^2/(4 theta) on a fine grid
    thetas = np.linspace(1e-6, 1.0, 1_000_000)
    s = GENERIC.fu + thetas * GENERIC.gv
    pmin = GENERIC.det - s * s / (4.0 * thetas)
    unstable = (s > 0) & (pmin < 0)
    crossing = thetas[np.max(np.nonzero(unstable))]
    assert abs(theta_critical(GENERIC) - crossing) < 2e-6


def test_theta_critical_rejects_hopeless_systems():
    with pytest.raises(NoCriticalRatioError):
        theta_critical(Jacobian(-1.0, 0.5, -0.5, -1.0))  # fu < 0: no activator


# ----------------------------------------------------------- unstable range

def test_range_paper_eta_plus_values(paper_jac):
    for theta, expect, tol in [(7.8e-2, 2.97, 0.01), (3e-4, 1032.6, 0.5),
                               (1e-5, 31009.0, 10.0)]:
        rng = instability_range(theta, paper_jac)
        assert rng.eta_minus == 0.0
        assert rng.eta_plus == pytest.approx(expect, abs=tol)
        # the band is open, and eta = 0 (the constant mode) never grows
        assert 0.0 not in rng and rng.eta_plus not in rng
        assert 1e-300 in rng and 0.5 * rng.eta_plus in rng


def test_range_closed_form_for_family(paper_steady):
    from membrane_rd import h_prime

    hp = h_prime(paper_steady.u_bar)
    for theta in (0.3, 7.8e-2, 1e-3):
        rng = instability_range(theta, paper_steady.jac)
        assert rng.eta_plus == pytest.approx(-(1.0 + hp / theta), rel=1e-9)


def test_range_empty_at_and_above_critical(paper_jac):
    tc = theta_critical(paper_jac)
    assert instability_range(tc, paper_jac).is_empty
    assert instability_range(2 * tc, paper_jac).is_empty
    for theta in (tc, 2 * tc):
        empty = instability_range(theta, paper_jac)
        assert not any(eta in empty for eta in (0.0, 1e-3, 1.0, 3.0, 1e6))
    assert instability_range(0.999 * tc, paper_jac).is_empty is False


def test_range_quadratic_roots_are_zeros_of_p():
    for theta in (0.01, 0.05, 0.1):
        rng = instability_range(theta, GENERIC)
        assert not rng.is_empty
        for eta in (rng.eta_minus, rng.eta_plus):
            # relative residual of p at the endpoints
            scale = theta * eta * eta + abs(GENERIC.det) + 1.0
            assert abs(p_polynomial(eta, theta, GENERIC)) / scale < 1e-8
            assert eta not in rng
        # det > 0 lifts eta_minus off 0: the modes below it are stable
        assert rng.eta_minus > 0.0
        assert 0.5 * rng.eta_minus not in rng and 0.0 not in rng
        assert rng.eta_min in rng


def test_range_bifurcation_legs_det_positive():
    tc = theta_critical(GENERIC)
    assert abs(instability_range(tc, GENERIC).p_min) < 1e-9
    assert instability_range(0.9 * tc, GENERIC).p_min < 0.0
    assert instability_range(1.1 * tc, GENERIC).p_min > 0.0


def test_range_small_theta_asymptotics():
    # eta_minus -> det/fu and theta*eta_plus -> fu, monotonically
    dev_lo, dev_hi = [], []
    for theta in (1e-3, 1e-4, 1e-5):
        rng = instability_range(theta, GENERIC)
        dev_lo.append(abs(rng.eta_minus - GENERIC.det / GENERIC.fu)
                      / rng.eta_minus)
        dev_hi.append(abs(rng.eta_plus * theta / GENERIC.fu - 1.0))
    assert dev_lo[0] > dev_lo[1] > dev_lo[2]
    assert dev_hi[0] > dev_hi[1] > dev_hi[2]
    assert dev_lo[2] < 1e-3 and dev_hi[2] < 1e-3


def test_range_handles_systems_without_critical_ratio():
    rng = instability_range(0.1, Jacobian(-1.0, 0.5, -0.5, -1.0))
    assert rng.is_empty and math.isnan(rng.theta_c)


# ------------------------------------------------------------ mode direction

def test_mode_eigenvector_satisfies_both_rows(paper_jac):
    theta, eta = 3e-4, 2.9607
    a, b = mode_eigenvector(eta, theta, paper_jac)
    mu = dispersion(eta, theta, paper_jac).mu_plus.real
    r1 = a * mu + a * theta * eta - paper_jac.fu * a - paper_jac.fv * b
    r2 = b * mu + b * eta - paper_jac.gu * a - paper_jac.gv * b
    assert abs(r1) < 1e-10 and abs(r2) < 1e-10
    assert a * a + b * b == pytest.approx(1.0, rel=1e-12)


def test_mode_eigenvector_scaling_invariance(paper_jac):
    theta, eta = 1e-2, 4.0
    a1, b1 = mode_eigenvector(eta, theta, paper_jac)
    a2, b2 = mode_eigenvector(2 * eta, theta, paper_jac.scaled(2.0))
    assert (a1, b1) == pytest.approx((a2, b2), rel=1e-10)


def test_mode_eigenvector_degenerate_direction():
    # fv = 0 and mu + theta*eta - fu = 0: pick eta = 0 so mu_plus = fu = 0...
    # simplest degenerate case: all-zero Jacobian at eta = 0
    with pytest.raises(DegenerateModeError):
        mode_eigenvector(0.0, 0.5, Jacobian(0.0, 0.0, 0.0, 0.0))
