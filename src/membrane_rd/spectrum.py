"""Eigenvalues and eigenfunctions of the 1-D Laplacian with membrane transmission.

The inhibitor operator -D_v d^2/dx^2 on (0, x_m) u (x_m, L) with zero-flux
outer boundaries and membrane conditions

    D_v z_l'(x_m) = D_v z_r'(x_m) = k_v (z_r(x_m) - z_l(x_m))

has eigenfunctions of piecewise-cosine form

    z_l(x) = C1 cos(a x),      z_r(x) = cos(b (x - L)),
    a = sqrt(eta/D_vl),        b = sqrt(eta/D_vr).

For equal left/right diffusivities (nu_D = 1) the matching conditions force
C1 = -1 and reduce the eigenvalue condition to one transcendental equation,

    x tan(x) = k_v L / D_v,     x = sqrt(eta) L / (2 sqrt(D_v)),

with exactly one root per branch x in (m*pi, (m + 1/2)*pi).  The limit
k_v = 0 gives eta_n = D_v (2 n pi / L)^2 with a double zero eigenvalue
(two decoupled Neumann halves); k_v -> infinity gives
eta_n = D_v ((2n - 1) pi / L)^2 and restores continuity at the membrane.
Eigenvalues increase continuously and monotonically in k_v between these
two families.

A dense symmetric-tridiagonal eigensolve of the discrete membrane Laplacian
(`discrete_spectrum_oracle`) provides an independent cross-check on the
transcendental roots.  Note that the discrete operator also carries the
membrane-transparent cosines cos(2 m pi x / L), eigenfunctions for every
k_v (zero jump and zero flux at x_m); the transcendental family enumerated
here consists of the modes that actually feel the membrane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .model import PERMEABILITY_INF, ModelParams

#: Permeabilities below this are treated as a sealed membrane (k = 0 family).
K_ZERO_TOL = 1e-12
#: Keep-away distance from the tangent poles when bracketing.
POLE_GUARD = 1e-10 * math.pi


class TangentPoleError(ValueError):
    """Evaluation point too close to a tangent pole; re-bracket and retry."""


@dataclass(frozen=True)
class EigenMode:
    """One membrane-Laplacian eigenpair.

    ``eta`` is the inhibitor eigenvalue, ``lam = theta*eta`` the matching
    activator eigenvalue.  ``a_n``/``b_n`` are the side wavenumbers, ``C1``
    the left amplitude and ``norm`` the L2 normalisation over both segments,
    with the sign convention z_r(L) = 1/norm > 0.  ``residual`` is the
    relative defect |x tan x - K| / (1 + K) of the defining equation (0.0
    for the closed-form families).  ``degenerate_zero`` marks the two
    zero modes of the sealed membrane.
    """

    n: int
    eta: float
    lam: float
    C1: float
    a_n: float
    b_n: float
    norm: float
    L: float
    x_m: float
    residual: float = 0.0
    degenerate_zero: bool = False


def _tan_arg_guard(arg: float):
    if abs(math.cos(arg)) < 1e-12:
        raise TangentPoleError(f"tangent argument {arg!r} is within 1e-12 of a pole")


def r_general(xi: float, params: ModelParams) -> float:
    """Root function of the full two-diffusivity eigenvalue condition.

    r(xi) = sqrt(xi) * tan_l*tan_r / (tan_l + sqrt(nu_D)*tan_r) - k_v/sqrt(D_vr)
    with tan_s = tan(sqrt(xi)/sqrt(D_vs) * L/2).  Zeros of r are the
    membrane eigenvalues.  For nu_D = 1 this collapses to r_simple/2.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    s = math.sqrt(xi)
    arg_l = s / math.sqrt(params.D_vl) * params.L / 2.0
    arg_r = s / math.sqrt(params.D_vr) * params.L / 2.0
    _tan_arg_guard(arg_l)
    _tan_arg_guard(arg_r)
    tl, tr = math.tan(arg_l), math.tan(arg_r)
    denom = tl + math.sqrt(params.nu_D) * tr
    return s * tl * tr / denom - params.k_v / math.sqrt(params.D_vr)


def r_simple(xi: float, params: ModelParams) -> float:
    """Root function for nu_D = 1: sqrt(xi)*tan(sqrt(xi)/sqrt(D_vr)*L/2) - 2k_v/sqrt(D_vr)."""
    if xi <= 0:
        raise ValueError("xi must be positive")
    s = math.sqrt(xi)
    arg = s / math.sqrt(params.D_vr) * params.L / 2.0
    _tan_arg_guard(arg)
    return s * math.tan(arg) - 2.0 * params.k_v / math.sqrt(params.D_vr)


def _bisect_branch(K: float, m: int, maxiter: int = 200) -> float:
    """Root of x tan x = K on (m*pi, (m+1/2)*pi); x tan x climbs 0 -> +inf there."""
    lo = m * math.pi + POLE_GUARD
    hi = (m + 0.5) * math.pi - POLE_GUARD
    f = lambda x: x * math.tan(x) - K
    if f(lo) > 0.0:  # root squeezed into the guard band; K astronomically small
        return lo
    if f(hi) < 0.0:  # squeezed against the pole; K should have hit the inf sentinel
        return hi
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-12:
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _require_nu1(params: ModelParams):
    if abs(params.nu_D - 1.0) > 1e-12:
        raise ValueError(
            "eigenvalue enumeration requires nu_D = 1; the general bracketing "
            "is unsupported (evaluate r_general for residuals instead)"
        )


def _mode(params: ModelParams, n: int, eta: float, C1: float, *,
          residual: float = 0.0, degenerate: bool = False) -> EigenMode:
    L, x_m = params.L, params.x_m
    a = math.sqrt(eta / params.D_vl)
    b = math.sqrt(eta / params.D_vr)

    def seg(amp2: float, wav: float, span: float) -> float:
        # integral of (amp*cos(wav*s))^2 over a segment of length span
        if wav == 0.0:
            return amp2 * span
        return amp2 * (span / 2.0 + math.sin(2.0 * wav * span) / (4.0 * wav))

    norm2 = seg(C1 * C1, a, x_m) + seg(1.0, b, L - x_m)
    return EigenMode(
        n=n, eta=eta, lam=params.theta * eta, C1=C1, a_n=a, b_n=b,
        norm=math.sqrt(norm2), L=L, x_m=x_m,
        residual=residual, degenerate_zero=degenerate,
    )


def eigenvalues(params: ModelParams, n_max: int) -> list[EigenMode]:
    """Modes 0..n_max of the inhibitor operator, sorted by eigenvalue.

    Mode 0 is the constant 1/sqrt(L).  For a sealed membrane (k_v below
    1e-12) the zero eigenvalue is double: mode 1 is the antisymmetric
    per-side constant, and the cosine family starts at mode 2.  A
    permeability at or above the 1e8 sentinel is taken as infinite.
    Finite intermediate permeabilities are bracketed per tangent branch
    and bisected to 1e-12 in x.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    _require_nu1(params)
    D = params.D_vr
    L = params.L
    k = params.k_v

    modes = [_mode(params, 0, 0.0, 1.0, degenerate=k < K_ZERO_TOL)]
    if k < K_ZERO_TOL:
        # two decoupled Neumann halves: double zero, then eta = D*(2m pi/L)^2
        if n_max >= 1:
            modes.append(_mode(params, 1, 0.0, -1.0, degenerate=True))
        for n in range(2, n_max + 1):
            a = 2.0 * (n - 1) * math.pi / L
            modes.append(_mode(params, n, D * a * a, -1.0))
        return modes
    if k >= PERMEABILITY_INF:
        for n in range(1, n_max + 1):
            a = (2.0 * n - 1.0) * math.pi / L
            modes.append(_mode(params, n, D * a * a, -1.0))
        return modes

    K = k * L / D
    for n in range(1, n_max + 1):
        x = _bisect_branch(K, n - 1)
        eta = D * (2.0 * x / L) ** 2
        res = abs(x * math.tan(x) - K) / (1.0 + K)
        modes.append(_mode(params, n, eta, -1.0, residual=res))
    return modes


def eigenfunction(mode: EigenMode, x, side: str):
    """Evaluate the normalised eigenfunction at x on side 'l' or 'r'."""
    x = np.asarray(x, dtype=float)
    tol = 1e-12 * mode.L
    if side == "l":
        if np.any(x < -tol) or np.any(x > mode.x_m + tol):
            raise ValueError(f"x outside the left segment [0, {mode.x_m}]")
        return mode.C1 * np.cos(mode.a_n * x) / mode.norm
    if side == "r":
        if np.any(x < mode.x_m - tol) or np.any(x > mode.L + tol):
            raise ValueError(f"x outside the right segment [{mode.x_m}, {mode.L}]")
        return np.cos(mode.b_n * (x - mode.L)) / mode.norm
    raise ValueError(f"side must be 'l' or 'r', got {side!r}")


def mode_values(mode: EigenMode, grid) -> np.ndarray:
    """Sample the eigenfunction on the two-segment grid (membrane duplicated)."""
    n_l = grid.N_l + 1
    zl = eigenfunction(mode, grid.centers[:n_l], "l")
    zr = eigenfunction(mode, grid.centers[n_l:], "r")
    return np.concatenate([zl, zr])


def project(deviation, modes, grid) -> np.ndarray:
    """Discrete L2 coefficients dx * sum(deviation * z_n) over both segments."""
    deviation = np.asarray(deviation, dtype=float)
    if deviation.shape != (grid.n_points,):
        raise ValueError(
            f"deviation length {deviation.shape} does not match grid "
            f"({grid.n_points} points)"
        )
    return np.array(
        [grid.dx * float(deviation @ mode_values(m, grid)) for m in modes]
    )


def unstable_mode_cap(rng, params: ModelParams) -> int:
    """Highest mode index that `count_unstable` examines for a non-empty range.

    The sealed-membrane family bounds every eta_n from below, so it caps n.
    """
    return int(math.ceil(
        1.0 + params.L * math.sqrt(rng.eta_plus / params.D_vr) / (2.0 * math.pi)
    )) + 2


def count_unstable(rng, params: ModelParams, *, with_modes: bool = False,
                   modes: list[EigenMode] | None = None):
    """Eigenvalues strictly inside the unstable interval (eta = 0 never counts).

    ``rng`` is a stability.InstabilityRange; an empty range yields (0, []).
    ``modes`` may pass an `eigenvalues` list reaching at least mode
    `unstable_mode_cap`; its prefix is used instead of solving again.
    Each eigenvalue is solved on its own branch, so that prefix is exactly
    the shorter list.
    """
    if rng.is_empty:
        return 0, []
    _require_nu1(params)
    n_max = unstable_mode_cap(rng, params)
    if modes is None:
        modes = eigenvalues(params, n_max)
    elif len(modes) <= n_max:
        raise ValueError(f"modes must reach mode {n_max}, got {len(modes) - 1}")
    hits = [m for m in modes[:n_max + 1]
            if m.eta > 0.0 and rng.eta_minus < m.eta < rng.eta_plus]
    if with_modes:
        return len(hits), hits
    return len(hits), [m.eta for m in hits]


def discrete_spectrum_oracle(params: ModelParams, N: int, n_max: int = 8) -> np.ndarray:
    """Smallest n_max eigenvalues of the discrete membrane Laplacian.

    Assembles the N-unknowns-per-side symmetric tridiagonal operator (same
    first-order stencil and ghost elimination as the time stepper, with the
    time step factored out) and diagonalises it with a dense symmetric
    eigensolver.  Fully independent of the transcendental root-finding; the
    returned list also contains the membrane-transparent cosine eigenvalues
    D_v (2 m pi / L)^2, which the root function does not enumerate.
    """
    if N < 50:
        raise ValueError("N must be >= 50 unknowns per side")
    dx_l = params.x_m / N
    dx_r = (params.L - params.x_m) / N
    if abs(dx_l - dx_r) > 1e-12 * dx_l:
        raise ValueError("oracle grid needs equal spacing on both sides")
    dx = dx_l
    cl, cr = params.D_vl / dx**2, params.D_vr / dx**2
    ck = params.k_v / dx
    n = 2 * N
    d = np.empty(n)
    d[:N] = 2.0 * cl
    d[N:] = 2.0 * cr
    d[0] = cl
    d[-1] = cr
    d[N - 1] = cl + ck
    d[N] = cr + ck
    e = np.empty(n - 1)
    e[: N - 1] = -cl
    e[N:] = -cr
    e[N - 1] = -ck
    return eigh_tridiagonal(
        d, e, select="i", select_range=(0, n_max - 1), eigvals_only=True
    )
