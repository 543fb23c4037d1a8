"""Turing analysis: ODE stability, dispersion relation, critical ratio, unstable range.

Every spatial eigenvalue eta of the inhibitor operator contributes a mode
whose growth rates mu solve the dispersion quadratic

    mu^2 + mu*[eta*(1 + theta) - tr(A)] + p(eta) = 0,
    p(eta) = theta*eta^2 - eta*(fu + theta*gv) + det(A),

with A the reaction Jacobian at the steady state and theta the
activator/inhibitor diffusion ratio.  Under tr(A) < 0 a mode grows iff
p(eta) < 0; the set where that happens is the open interval
(eta_minus, eta_plus) and it is non-empty exactly for theta below the
critical ratio theta_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Jacobian


class NoCriticalRatioError(ValueError):
    """The reaction system admits no diffusion-driven instability."""


class DegenerateModeError(ValueError):
    """Both components of the requested mode direction vanish."""


@dataclass(frozen=True)
class OdeStability:
    """Stability report for the reaction ODE linearised at the equilibrium."""

    tr: float
    det: float
    stable: bool
    activator_inhibitor: bool
    det_borderline: bool  # det == 0: one neutral direction, stability is marginal


@dataclass(frozen=True)
class DispersionResult:
    eta: float
    mu_plus: complex
    mu_minus: complex
    max_re: float


@dataclass(frozen=True)
class InstabilityRange:
    """Unstable interval (eta_minus, eta_plus) and the vertex of p at fixed theta.

    ``eta_min`` is the minimiser of p over eta >= 0 (the parabola vertex,
    clamped to 0 when fu + theta*gv <= 0) and ``p_min = p(eta_min)``.  An
    empty range (theta >= theta_c, or no theta_c at all) has both endpoints
    None.  ``theta_c`` is NaN when the system cannot be destabilised.
    """

    theta: float
    theta_c: float
    eta_min: float
    p_min: float
    eta_minus: float | None
    eta_plus: float | None

    @property
    def is_empty(self) -> bool:
        return self.eta_minus is None

    def __contains__(self, eta: float) -> bool:
        """Whether the mode of eigenvalue eta grows: eta_minus < eta < eta_plus
        in a non-empty range, and eta > 0 (the constant mode never counts)."""
        return (self.eta_minus is not None and eta > 0.0
                and self.eta_minus < eta < self.eta_plus)


def ode_stability(jac: Jacobian) -> OdeStability:
    """Classify the diffusion-free equilibrium.

    Stable means tr < 0 and det >= 0; det == 0 is admitted (flagged as
    borderline) because the mass-conserving reactions give det(A) = 0
    exactly, with the neutral direction along the conserved total mass.
    """
    tr, det = jac.trace, jac.det
    if not (math.isfinite(tr) and math.isfinite(det)):
        raise ValueError("non-finite Jacobian")
    return OdeStability(
        tr=tr,
        det=det,
        stable=(tr < 0.0 and det >= 0.0),
        activator_inhibitor=(jac.fu > 0.0 and jac.gv < 0.0),
        det_borderline=(det == 0.0),
    )


def p_polynomial(eta, theta: float, jac: Jacobian):
    """Instability polynomial p(eta); a spatial mode can grow only where p < 0."""
    eta = np.asarray(eta, dtype=float) if np.ndim(eta) else float(eta)
    return theta * eta * eta - eta * (jac.fu + theta * jac.gv) + jac.det


def dispersion(eta: float, theta: float, jac: Jacobian) -> DispersionResult:
    """Both roots of the dispersion quadratic at spatial eigenvalue eta.

    Real roots use the sign-aware quadratic formula (q = -(b + sign(b)*sqrt)/2,
    other root c/q) to survive the large coefficient spreads of the small
    theta regime.
    """
    b = eta * (1.0 + theta) - jac.trace
    c = p_polynomial(eta, theta, jac)
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
        r1 = q
        r2 = c / q if q != 0.0 else 0.0
        mu_p, mu_m = (r1, r2) if r1 >= r2 else (r2, r1)
        return DispersionResult(eta, complex(mu_p), complex(mu_m), mu_p)
    im = 0.5 * math.sqrt(-disc)
    re = -0.5 * b
    return DispersionResult(eta, complex(re, im), complex(re, -im), re)


def theta_critical(jac: Jacobian) -> float:
    """Critical diffusion ratio: p_min crosses zero as theta crosses theta_c.

    theta_c is a root of  gv^2 t^2 + 2(fu gv - 2 det) t + fu^2 = 0.  Among
    positive real roots we keep those with fu + t*gv >= 0, which makes
    fu + theta*gv > 0 hold on all of (0, theta_c) (the sign required for the
    parabola vertex to sit at positive eta), and return the largest; the
    mass-conserving reactions collapse the quadratic to a double root
    theta_c = fu / (-gv) = -h'(u_bar), where fu + t*gv vanishes exactly.
    """
    if jac.gv == 0.0:
        raise NoCriticalRatioError("gv = 0: critical-ratio quadratic degenerates")
    a = jac.gv * jac.gv
    b = 2.0 * (jac.fu * jac.gv - 2.0 * jac.det)
    c = jac.fu * jac.fu
    disc = b * b - 4.0 * a * c
    scale = b * b + abs(4.0 * a * c)
    if disc < -1e-12 * scale:
        raise NoCriticalRatioError("no real critical ratio: p_min never vanishes")
    if disc <= 1e-12 * scale:
        roots = [-b / (2.0 * a)]
    else:
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
        roots = [q / a, c / q]
    admissible = [
        t for t in roots
        if t > 0.0
        and jac.fu + t * jac.gv >= -1e-12 * (abs(jac.fu) + abs(t * jac.gv))
    ]
    if not admissible:
        raise NoCriticalRatioError(
            "no admissible root: the reactions cannot be Turing-destabilised"
        )
    return max(admissible)


def instability_range(theta: float, jac: Jacobian) -> InstabilityRange:
    """Unstable interval of spatial eigenvalues for the given diffusion ratio.

    Empty whenever theta >= theta_c (including systems with no theta_c at
    all).  det(A) == 0 pins eta_minus to exactly 0.0 and gives the closed
    form eta_plus = (fu + theta*gv)/theta.
    """
    if theta <= 0:
        raise ValueError("theta must be positive")
    try:
        theta_c = theta_critical(jac)
    except NoCriticalRatioError:
        theta_c = math.nan
    s = jac.fu + theta * jac.gv
    det = jac.det
    eta_min = s / (2.0 * theta) if s > 0.0 else 0.0
    p_min = float(p_polynomial(eta_min, theta, jac))
    eta_minus = eta_plus = None
    if s > 0.0:
        disc = s * s - 4.0 * theta * det
        if det == 0.0:
            eta_minus, eta_plus = 0.0, s / theta
        elif disc > 0.0:
            q = 0.5 * (s + math.sqrt(disc))
            eta_minus, eta_plus = det / q, q / theta
    return InstabilityRange(
        theta=theta,
        theta_c=theta_c,
        eta_min=eta_min,
        p_min=p_min,
        eta_minus=eta_minus,
        eta_plus=eta_plus,
    )


def mode_eigenvector(eta: float, theta: float, jac: Jacobian) -> tuple[float, float]:
    """Unit (a, b) direction of the dominant root mu_plus at eigenvalue eta.

    From the first row of the modal 2x2 system, (a, b) is proportional to
    (fv, mu_plus + theta*eta - fu).  The sign is fixed so the first
    non-negligible component is positive.  Intended for eta inside the
    unstable range, where mu_plus is real.
    """
    mu = dispersion(eta, theta, jac).mu_plus
    scale = max(abs(jac.fu), abs(jac.fv), abs(mu), 1.0)
    if abs(mu.imag) > 1e-12 * scale:
        raise DegenerateModeError("dominant root is complex: no real mode direction")
    a = jac.fv
    b = mu.real + theta * eta - jac.fu
    n = math.hypot(a, b)
    if n < 1e-14:
        raise DegenerateModeError("mode direction degenerates: both components vanish")
    a, b = a / n, b / n
    lead = a if abs(a) >= 1e-14 else b
    if lead < 0.0:
        a, b = -a, -b
    return a, b
