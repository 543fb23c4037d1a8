"""Reaction terms, parameter coupling, conserved mass and the homogeneous steady state.

The two species u (activator) and v (inhibitor) react through

    f(u, v) = (v - h(u)) / eps,      g(u, v) = -f(u, v),
    h(u)    = alpha * u * (u - 1)**2,

a mass-conserving pair: u + v is invariant under the reaction alone, and the
diffusion/membrane fluxes conserve it as well.  The homogeneous steady state
is pinned by the mean of the initial data and solves

    u_bar + h(u_bar) = M,   v_bar = h(u_bar).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

#: Finite stand-in for an infinitely permeable membrane.
PERMEABILITY_INF = 1e8


class MassError(ValueError):
    """No positive equilibrium exists for the requested mass."""


@dataclass(frozen=True)
class Jacobian:
    """Partial derivatives of (f, g) at the steady state.

    For the built-in reactions gu == -fu and gv == -fv bitwise, so ``det``
    evaluates to exactly 0.0 and the ODE equilibrium is borderline stable.
    """

    fu: float
    fv: float
    gu: float
    gv: float

    @property
    def trace(self) -> float:
        return self.fu + self.gv

    @property
    def det(self) -> float:
        return self.fu * self.gv - self.fv * self.gu

    def scaled(self, c: float) -> "Jacobian":
        return Jacobian(c * self.fu, c * self.fv, c * self.gu, c * self.gv)


@dataclass(frozen=True)
class SteadyState:
    """Homogeneous equilibrium (u_bar, v_bar) for total mass M."""

    u_bar: float
    v_bar: float
    M: float
    jac: Jacobian


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical constants for one membrane problem.

    The domain (0, L) is split at the membrane x_m (default the midpoint).
    Diffusivities obey the coupled regime D_ul = theta*D_vl, D_ur = theta*D_vr;
    nu_D = D_vr/D_vl is derived, never stored.  ``k_u`` defaults to
    theta*k_v, the coupling required for the two species to share one
    eigenfunction basis (``coupled``); setting it to anything else only
    warns, since the time stepper does not need the coupling, but the
    modal analysis no longer applies.

    Grid: each side holds N+1 unknowns at spacing dx with the membrane value
    duplicated (left trace and right trace are distinct unknowns at x_m).
    The cell counts N_l and N_r are derived from dx, which must tile both
    segments; the grid and the stepper's faces both read this dx.  Every
    float field must be finite, a subclass's fields included.
    """

    L: float = 1.0
    x_m: float = 0.5
    D_vl: float = 1.0
    D_vr: float = 1.0
    theta: float = 7.8e-2
    k_u: float | None = None
    k_v: float = 1.0
    eps: float = 1.0
    alpha: float = 1.0
    Theta_scheme: float = 1.0
    dx: float = 1.0 / 200.0
    dt: float | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite")
        if not self.L > 0:
            raise ValueError("L: domain length must be positive")
        if not 0 < self.x_m < self.L:
            raise ValueError("x_m: membrane must sit strictly inside (0, L)")
        for name in ("D_vl", "D_vr"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: inhibitor diffusivity must be positive")
        if self.theta <= 0:
            raise ValueError("theta: diffusion ratio must be positive")
        if self.eps <= 0:
            raise ValueError("eps: reaction time scale must be positive")
        if self.k_v < 0:
            raise ValueError("k_v: permeability must be non-negative")
        if not 0 <= self.Theta_scheme <= 1:
            raise ValueError("Theta_scheme: scheme weight must lie in [0, 1]")
        if self.dx <= 0:
            raise ValueError("dx: grid step must be positive")
        if not 0 < self.alpha < 3:
            warnings.warn(
                "alpha outside (0, 3): h'(u) > -1 no longer guaranteed",
                stacklevel=2,
            )
        if self.k_u is None:
            object.__setattr__(self, "k_u", self.theta * self.k_v)
        elif self.k_u < 0:
            raise ValueError("k_u: permeability must be non-negative")
        elif not self.coupled:
            warnings.warn(
                "k_u != theta*k_v: species no longer share an eigenbasis, "
                "the modal analysis does not apply",
                stacklevel=2,
            )
        if self.dt is None:
            object.__setattr__(self, "dt", min(1e-2, self.eps / 4.0))
        elif self.dt <= 0:
            raise ValueError("dt: time step must be positive")
        elif self.dt > self.eps / 2.0:
            warnings.warn(
                "dt > eps/2: explicit reaction may destabilise the step",
                stacklevel=2,
            )
        for side, span, n in (("left", self.x_m, self.N_l),
                              ("right", self.L - self.x_m, self.N_r)):
            if n < 2:
                raise ValueError(f"dx: {self.dx!r} leaves {n + 1} cells on the "
                                 f"{side} segment, fewer than 3")
            if abs(span / (n + 1) - self.dx) > 1e-12 * self.dx:
                raise ValueError(
                    f"dx: {self.dx!r} does not tile the {side} segment "
                    f"(length {span!r}, {n + 1} cells of {span / (n + 1)!r})"
                )

    @property
    def N_l(self) -> int:
        """The left segment holds N_l + 1 cells of dx: x_m = (N_l + 1)*dx."""
        return round(self.x_m / self.dx) - 1

    @property
    def N_r(self) -> int:
        """The right segment holds N_r + 1 cells of dx: L - x_m = (N_r + 1)*dx."""
        return round((self.L - self.x_m) / self.dx) - 1

    @property
    def coupled(self) -> bool:
        """k_u = theta*k_v to 1e-12: the species share one eigenfunction basis."""
        return abs(self.k_u - self.theta * self.k_v) <= 1e-12 * max(1.0, self.k_u)

    @property
    def nu_D(self) -> float:
        return self.D_vr / self.D_vl

    @property
    def D_ul(self) -> float:
        return self.theta * self.D_vl

    @property
    def D_ur(self) -> float:
        return self.theta * self.D_vr


def h(u, alpha=1.0):
    """Reaction nonlinearity h(u) = alpha*u*(u-1)^2, non-negative on u >= 0."""
    if type(u) is not float:  # a float, as in steady_state's bisection, goes as is
        u = np.asarray(u, dtype=float) if np.ndim(u) else float(u)
    return alpha * u * (u - 1.0) ** 2


def h_prime(u, alpha=1.0):
    """h'(u) = alpha*(1-u)*(1-3u) = alpha*(3u^2 - 4u + 1); h' > -1 for 0 < alpha < 3."""
    if type(u) is not float:
        u = np.asarray(u, dtype=float) if np.ndim(u) else float(u)
    return alpha * (3.0 * u * u - 4.0 * u + 1.0)


def reaction(u, v, eps=1.0, alpha=1.0, *, out=None):
    """Evaluate (f, g) pointwise; g is the exact negation of f, so f + g == 0.

    f = (v - (alpha*u)*((u-1)*(u-1))) / eps, the same roundings as
    (v - h(u, alpha)) / eps.  With ``out=(f, scratch)``, two float arrays
    of the broadcast shape, f is written into the first (the second holds
    (u-1)^2) and returned alone, without allocating; g = -f is then left
    to the caller.  eps and alpha may be arrays that broadcast against u.
    """
    f_out, sq_out = (None, None) if out is None else out
    sq = np.subtract(u, 1.0, out=sq_out)
    sq = np.multiply(sq, sq, out=sq_out)
    f = np.multiply(alpha, u, out=f_out)
    f = np.multiply(f, sq, out=f_out)
    f = np.subtract(v, f, out=f_out)
    f = np.divide(f, eps, out=f_out)
    return (f, -f) if out is None else f


def conserved_mass(u0, v0, grid) -> float:
    """Mean of u0 + v0 over the domain by midpoint quadrature, (dx/L)*sum.

    The duplicated membrane cell is counted once per side, which makes the
    cell widths tile (0, L) exactly: (N_l + N_r + 2)*dx == L.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if u0.shape != (grid.n_points,) or v0.shape != (grid.n_points,):
        raise ValueError(
            f"profile length {u0.shape}/{v0.shape} does not match grid "
            f"({grid.n_points} points)"
        )
    return grid.dx * float(np.sum(u0) + np.sum(v0)) / grid.L


def steady_state(M: float, eps: float = 1.0, alpha: float = 1.0, *,
                 maxiter: int = 200) -> SteadyState:
    """Unique equilibrium with u_bar + v_bar = M, found by bisection.

    G(u) = M - u - h(u) is strictly decreasing for 0 < alpha < 3, so the
    bracket [0, M] (G(0) = M > 0, G(M) = -h(M) <= 0) contains exactly one
    root.  Bisection stops once |G| < 1e-12.
    """
    if M <= 0:
        raise MassError(f"M = {M}: no positive equilibrium")
    lo, hi = 0.0, float(M)
    glo = M - lo - h(lo, alpha)
    ghi = M - hi - h(hi, alpha)
    u_bar = hi if ghi == 0.0 else 0.5 * (lo + hi)
    if ghi != 0.0:
        for _ in range(maxiter):
            u_bar = 0.5 * (lo + hi)
            g = M - u_bar - h(u_bar, alpha)
            if abs(g) < 1e-12:
                break
            if g > 0.0:
                lo = u_bar
            else:
                hi = u_bar
    v_bar = h(u_bar, alpha)
    fu = -h_prime(u_bar, alpha) / eps
    fv = 1.0 / eps
    jac = Jacobian(fu=fu, fv=fv, gu=-fu, gv=-fv)
    return SteadyState(u_bar=u_bar, v_bar=v_bar, M=float(M), jac=jac)


def fig3_profile(x, L: float = 1.0, x_m: float = 0.5):
    """Discontinuous initial data of the reference experiment.

    On the left of the membrane u0 = 7/15 + sin(4 pi x/L)/5, on the right
    u0 = 1/5 + sin(4 pi x/L)/5; v0 complements so that u0 + v0 == 4/5
    everywhere (the sine terms cancel).
    """
    x = np.asarray(x, dtype=float)
    s = np.sin(4.0 * np.pi * x / L) / 5.0
    left = x <= x_m
    u0 = np.where(left, 7.0 / 15.0 + s, 1.0 / 5.0 + s)
    v0 = np.where(left, 1.0 / 3.0 - s, 3.0 / 5.0 - s)
    return u0, v0


PRESETS = ("paper-fig3", "constant-plus-noise", "eigenmode-perturbation")


def initial_data(preset: str, grid, params: ModelParams | None = None, *,
                 mass: float = 0.8, mode: int = 1, amplitude: float = 1e-3,
                 noise_amplitude: float = 1e-2, seed: int = 0):
    """Build (u0, v0) on the two-segment grid for a named preset.

    paper-fig3
        The reference discontinuous data; the duplicated membrane point takes
        the left branch on the left trace and the right branch on the right.
    constant-plus-noise
        Equilibrium for the given mass plus seeded uniform noise of the given
        amplitude on both species.
    eigenmode-perturbation
        Equilibrium plus amplitude * z_n(x) * (a, b), where z_n is membrane
        eigenfunction ``mode`` and (a, b) the dominant-growth direction of
        the linearised reaction-diffusion system at eta_n.
    """
    if preset == "paper-fig3":
        # each side takes its own branch, whatever x <= x_m says: the left
        # trace at (N_l + 1)*dx may round past x_m (x_m = +-inf picks a side)
        ul, vl = fig3_profile(grid.centers[grid.left], grid.L, math.inf)
        ur, vr = fig3_profile(grid.centers[grid.right], grid.L, -math.inf)
        return np.concatenate([ul, ur]), np.concatenate([vl, vr])

    if params is None:
        raise ValueError(f"preset {preset!r} needs model parameters")
    ss = steady_state(mass, params.eps, params.alpha)

    if preset == "constant-plus-noise":
        rng = np.random.default_rng(seed)
        u0 = ss.u_bar + noise_amplitude * rng.uniform(-1.0, 1.0, grid.n_points)
        v0 = ss.v_bar + noise_amplitude * rng.uniform(-1.0, 1.0, grid.n_points)
        return u0, v0

    if preset == "eigenmode-perturbation":
        from . import spectrum, stability  # local import: model is a leaf otherwise

        if mode < 1:
            raise ValueError("mode: eigenmode index must be >= 1")
        em = spectrum.eigenvalues(params, n_max=mode)[mode]
        a, b = stability.mode_eigenvector(em.eta, params.theta, ss.jac)
        z = spectrum.mode_values(em, grid)
        return ss.u_bar + amplitude * a * z, ss.v_bar + amplitude * b * z

    raise ValueError(f"unknown preset {preset!r} (expected one of {PRESETS})")
