"""Eigenvalues and eigenfunctions of the 1-D Laplacian with membrane transmission.

The inhibitor operator -D_v d^2/dx^2 on (0, x_m) u (x_m, L) with zero-flux
outer boundaries and membrane conditions

    D_vl z_l'(x_m) = D_vr z_r'(x_m) = k_v (z_r(x_m) - z_l(x_m))

has eigenfunctions z_l = A cos(a x), z_r = B cos(b (x - L)), with
a = sqrt(eta/D_vl) and b = sqrt(eta/D_vr).  The membrane conditions are a
2x2 system for (A, B) whose determinant, with p_l = D_vl a sin(a x_m),
p_r = D_vr b sin(b (L - x_m)) and c_l, c_r the matching cosines,

    det(eta) = k_v (p_l c_r + p_r c_l) - p_l p_r = p_l p_r (k_v F - 1),
    F = cot(a x_m)/(D_vl a) + cot(b (L - x_m))/(D_vr b),

is analytic in eta, for any x_m, D_vl and D_vr (past the 1e8 sentinel its
limit det/k_v is used).  F falls from +inf to -inf between its poles, the
sealed values D_vl (j pi/x_m)^2 and D_vr (j pi/(L - x_m))^2 of the two
Neumann halves, so each gap between consecutive distinct sealed values
holds one root.  A value shared by both halves is a root too: a
membrane-transparent mode, continuous with zero flux at x_m, for every k_v
(cos(2 m pi x/L) at a midpoint membrane with D_vl = D_vr).  The listed
family is the modes that feel the membrane: mode 0 is the constant, and
mode n >= 1 lies in [d_{n-1}, d_n) for the distinct sealed values
0 = d_0 < d_1 < ..., at its lower end only for a sealed membrane.

`discrete_spectrum_oracle` diagonalises the stepper's own operator as an
independent cross-check; it also carries the transparent modes.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .fdm import _face_coefficients
from .model import MAX_MODES, PERMEABILITY_INF, ModelParams

#: Permeabilities below this are treated as a sealed membrane (k = 0 family).
K_ZERO_TOL = 1e-12
#: Two sealed values this close (relative) are one shared, double value.
DOUBLE_TOL = 1e-12


# a NamedTuple, as it is built about 5x faster than a frozen dataclass,
# which dominated the cost of a 1000-mode table
class EigenMode(NamedTuple):
    """One membrane-Laplacian eigenpair.

    ``eta`` is the inhibitor eigenvalue, ``lam = theta*eta`` the matching
    activator eigenvalue.  ``a_n``/``b_n`` are the side wavenumbers and
    ``A``/``B`` the side amplitudes of the L2-normalised eigenfunction,
    signed so that z_r(L) = B > 0, or z_l(0) = A > 0 for a mode that
    vanishes on the right.  ``residual`` is the determinant at ``eta``
    relative to the sum of the magnitudes of its terms (0.0 for a sealed
    membrane and for mode 0).  ``degenerate_zero`` marks the two zero modes
    of the sealed membrane.
    """

    n: int
    eta: float
    lam: float
    A: float
    B: float
    a_n: float
    b_n: float
    L: float
    x_m: float
    residual: float = 0.0
    degenerate_zero: bool = False


def _geometry(params: ModelParams):
    """Rows (left, right) of l/sqrt(D) and D/l for each side's length l and
    diffusivity D: the phase per unit w = sqrt(eta) and the flux ratio."""
    spans = np.array([[params.x_m], [params.L - params.x_m]])
    D = np.array([[params.D_vl], [params.D_vr]])
    return spans / np.sqrt(D), D / spans


def _sides(w, geometry):
    """Per side at w = sqrt(eta): the phase t, cos t, sin t, the flux
    factor p = D sqrt(eta/D) sin t = (D/l) t sin t and dp/dt."""
    per_w, ratio = geometry
    t = w * per_w
    sin, cos = np.sin(t), np.cos(t)
    rt = ratio * t
    return t, cos, sin, rt * sin, ratio * sin + rt * cos


def _det(cos, p, params: ModelParams):
    """(det, g, k): det = p_l g_r + k p_r c_l with g = k c - p and k = k_v.

    Past the sentinel k = 1 and g = c, which gives the limit det/k_v.
    """
    if params.k_v >= PERMEABILITY_INF:
        k, g = 1.0, cos
    else:
        k = params.k_v
        g = k * cos - p
    return p[0] * g[1] + k * p[1] * cos[0], g, k


def determinant(eta, params: ModelParams) -> np.ndarray:
    """The membrane determinant at each eta > 0 (its k -> inf limit det/k
    past the sentinel)."""
    w = np.sqrt(np.asarray(eta, dtype=float))
    _, cos, _, p, _ = _sides(w, _geometry(params))
    return _det(cos, p, params)[0]


def _sealed_values(params: ModelParams, count: int):
    """The distinct sealed values 0 = d_0 < d_1 < ... < d_count of the halves
    of lengths x_l = x_m and x_r = L - x_m.

    Returns (d, r, sides): d, the residue r of F at each (2/l from a half of
    length l, summed for a shared value; 1/x_l + 1/x_r at 0) and whose
    value each is: 1 (left), 2 (right) or 3 (both, and d_0).
    """
    x_l, x_r = params.x_m, params.L - params.x_m
    j2 = np.arange(1.0, count + 1) ** 2
    values = np.concatenate([[0.0], params.D_vl * (math.pi / x_l) ** 2 * j2,
                             params.D_vr * (math.pi / x_r) ** 2 * j2])
    order = np.argsort(values, kind="stable")
    values = values[order]
    sides = np.where(order > count, 2, 1)
    sides[0] = 3
    # each half's values increase, so a shared value is one adjacent pair
    double = values[1:] - values[:-1] <= DOUBLE_TOL * values[1:]
    sides[:-1][double] = 3
    keep = np.concatenate([[True], ~double])
    d, sides = values[keep][:count + 1], sides[keep][:count + 1]
    r = np.array([0.0, 2.0 / x_l, 2.0 / x_r, 2.0 / x_l + 2.0 / x_r])[sides]
    r[0] = 1.0 / x_l + 1.0 / x_r
    return d, r, sides


def _roots(params: ModelParams, geometry, d, r, maxiter: int = 100):
    """w = sqrt(eta) of the root of det in each open bracket (d_{n-1}, d_n).

    The start solves k F = 1 for F kept to its poles at the two ends, which
    is close both when the root hugs the lower end (small k) and
    mid-bracket (large k).  Newton steps in w follow.  The sign of
    det p_l p_r = (k F - 1) (p_l p_r)^2 tells on which side of the root an
    iterate lies; a step that would leave the bracket so narrowed bisects
    it instead.  A root stops on its own after a step below 1e-14 w or
    1e-7 of the start's distance to the nearer end, where Newton converges
    quadratically, or once the bisection leaves it where it is: the bracket
    has then narrowed to its end w, which lies within an ulp of the root.
    That happens when a root lies within an ulp of a shared value, where
    det and its derivative are rounding noise (mode 667 at k_v = 1e-10,
    x_m = 0.1, D_vr = 2.25).
    """
    lo, gap, r_lo = d[:-1], d[1:] - d[:-1], r[:-1]
    c = 0.0 if params.k_v >= PERMEABILITY_INF else 1.0 / params.k_v
    b = c * gap + r_lo + r[1:]
    w = np.sqrt(lo + 2.0 * r_lo * gap / (b + np.sqrt(b * b - 4.0 * c * r_lo * gap)))
    ends = np.sqrt(d)
    a, z = ends[:-1], ends[1:]
    tol = 1e-7 * np.minimum(w - a, z - w) + 1e-14 * w
    active = np.ones(w.size, dtype=bool)
    for _ in range(maxiter):
        t, cos, sin, p, dp = _sides(w, geometry)
        det, g, k = _det(cos, p, params)
        # d det/d t per side (swapped rows pair the sides); dt/dw = t/w
        ddt = (dp * g[::-1] - k * p[::-1] * sin) * t
        step = w * det / (ddt[0] + ddt[1])
        left = det * p[0] * p[1] > 0.0
        a = np.where(left, w, a)
        z = np.where(left, z, w)
        new = w - step
        done = np.abs(step) <= tol
        new = np.where((new > a) & (new < z) | done, new, 0.5 * (a + z))
        done |= new == w  # the bracket narrowed to its end w: nothing moves
        w = np.where(active, new, w)
        active &= ~done
        if not active.any():
            return w
    raise ArithmeticError(
        f"membrane determinant: {int(active.sum())} roots did not converge")


def _solve(params: ModelParams, n_max: int) -> np.ndarray:
    """Rows eta, A, B, a_n, b_n and residual of modes 1..n_max (see
    `EigenMode`); they do not depend on theta."""
    spans = np.array([[params.x_m], [params.L - params.x_m]])
    d, r, sides = _sealed_values(params, n_max)
    geometry = _geometry(params)
    if params.k_v < K_ZERO_TOL:
        eta = d[:-1]
        w = np.sqrt(eta)
        t, cos, *_ = _sides(w, geometry)
        # rows (A, B): a half's own mode, or at a shared value the mode with
        # a jump, orthogonal to the transparent one
        sides = sides[:-1]
        amp = np.where(sides == 3, cos * spans[::-1] * [[-1.0], [1.0]],
                       [sides == 1, sides == 2])
        residual = np.zeros(n_max)
    else:
        w = _roots(params, geometry, d, r)
        eta = w * w
        t, cos, _, p, _ = _sides(w, geometry)
        det, _, k = _det(cos, p, params)
        # rows (A, B) = (p_r, -p_l): flux continuity, D_vl z_l' = D_vr z_r'
        amp = p[::-1] * [[1.0], [-1.0]]
        # |det| over the sum of its terms' magnitudes
        terms = k * np.abs(p * cos[::-1]).sum(0)
        if params.k_v < PERMEABILITY_INF:
            terms += np.abs(p[0] * p[1])
        residual = np.abs(det) / terms
    # integral of cos^2 over a side: l/2 (1 + sin(2 t)/(2 t)); signed so
    # that B > 0, or A > 0 where B = 0
    seg = 0.5 * spans * (1.0 + np.sinc(t / (0.5 * math.pi)))
    norm = np.sqrt((amp * amp * seg).sum(0))
    amp /= np.copysign(norm, np.where(amp[1] != 0.0, amp[1], amp[0]))
    return np.vstack((eta, amp, w / np.sqrt([[params.D_vl], [params.D_vr]]), residual))


class _Memo:
    """The solved spectra of the operators used last, by (L, x_m, D_vl,
    D_vr, k_v), holding at most `MAX_MODES` modes in all.

    An entry holds the rows of `_solve` for modes 1..n and serves any
    shorter list as its prefix: each root stops on its own, and the sealed
    values up to d_n do not depend on the list's length, so a prefix is the
    list a solve of that length gives, bit for bit.  A longer request
    solves again and replaces the entry, a solve that raises stores
    nothing, and the least recently used operator is evicted first.  It
    takes no lock: the program calls it from one thread.
    """

    def __init__(self):
        self.entries = {}  # key -> _solve rows, least recently used first
        self.modes = 0  # the modes held by all entries

    def rows(self, params: ModelParams, n_max: int) -> np.ndarray:
        key = (params.L, params.x_m, params.D_vl, params.D_vr, params.k_v)
        held = self.entries.get(key)
        if held is not None and held.shape[1] >= n_max:
            self.entries[key] = self.entries.pop(key)  # now the most recent
            return held
        rows = _solve(params, n_max)  # a solve that raises stores nothing
        self.entries.pop(key, None)
        self.modes += n_max - (0 if held is None else held.shape[1])
        while self.modes > MAX_MODES:
            self.modes -= self.entries.pop(next(iter(self.entries))).shape[1]
        self.entries[key] = rows
        return rows

    def clear(self):
        self.entries.clear()
        self.modes = 0


_memo = _Memo()


def eigenvalues(params: ModelParams, n_max: int) -> list[EigenMode]:
    """Modes 0..n_max of the membrane-feeling family, sorted by eigenvalue.

    Mode 0 is the constant 1/sqrt(L).  For a sealed membrane (k_v below
    1e-12) the zero eigenvalue is double: mode 1 is the per-side constant
    orthogonal to it, and the modes are the distinct sealed values.  A
    permeability at or above the 1e8 sentinel is taken as infinite.  The
    modes do not depend on theta, so each operator is solved once per
    process and its longest list kept (`_Memo`); only lam = theta*eta is
    made per call.
    """
    if not 1 <= n_max <= MAX_MODES:
        raise ValueError(f"n_max must be between 1 and {MAX_MODES}, got {n_max}")
    L, x_m, theta = params.L, params.x_m, params.theta
    eta, A, B, a_n, b_n, residual = _memo.rows(params, n_max)[:, :n_max].tolist()
    sealed = params.k_v < K_ZERO_TOL
    const = 1.0 / math.sqrt(L)
    modes = [EigenMode(0, 0.0, 0.0, const, const, 0.0, 0.0, L, x_m, 0.0, sealed)]
    modes += [EigenMode(n, e, theta * e, amp_l, amp_r, wl, wr, L, x_m, res,
                        sealed and e == 0.0)
              for n, e, amp_l, amp_r, wl, wr, res in zip(
                  range(1, n_max + 1), eta, A, B, a_n, b_n, residual)]
    return modes


def eigenfunction(mode: EigenMode, x, side: str):
    """Evaluate the normalised eigenfunction at x on side 'l' or 'r'."""
    x = np.asarray(x, dtype=float)
    tol = 1e-12 * mode.L
    if side == "l":
        if np.any(x < -tol) or np.any(x > mode.x_m + tol):
            raise ValueError(f"x outside the left segment [0, {mode.x_m}]")
        return mode.A * np.cos(mode.a_n * x)
    if side == "r":
        if np.any(x < mode.x_m - tol) or np.any(x > mode.L + tol):
            raise ValueError(f"x outside the right segment [{mode.x_m}, {mode.L}]")
        return mode.B * np.cos(mode.b_n * (x - mode.L))
    raise ValueError(f"side must be 'l' or 'r', got {side!r}")


def mode_values(mode: EigenMode, grid) -> np.ndarray:
    """Sample the eigenfunction on the two-segment grid (membrane duplicated)."""
    zl = eigenfunction(mode, grid.centers[grid.left], "l")
    zr = eigenfunction(mode, grid.centers[grid.right], "r")
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
    """Highest mode index that can lie in a non-empty unstable range.

    Mode n >= 1 is at least the (n-1)-th distinct sealed value, and at most
    n_l + n_r sealed values lie below eta_plus (n_l, n_r per half, a shared
    value counted twice), so no mode past 1 + n_l + n_r lies below it.
    Each half counts at most MAX_MODES values, which keeps the cap finite
    for any eta_plus: a cap past MAX_MODES says only that the list is too
    long to solve.
    """
    return 1 + sum(int(min(span * math.sqrt(rng.eta_plus / D) / math.pi, MAX_MODES))
                   for span, D in ((params.x_m, params.D_vl),
                                   (params.L - params.x_m, params.D_vr)))


def count_unstable(rng, params: ModelParams):
    """Eigenvalues strictly inside the unstable interval (eta = 0 never counts).

    ``rng`` is a stability.InstabilityRange; an empty range yields (0, []).
    """
    if rng.is_empty:
        return 0, []
    modes = eigenvalues(params, unstable_mode_cap(rng, params))
    etas = [m.eta for m in modes if m.eta in rng]
    return len(etas), etas


def discrete_spectrum_oracle(params: ModelParams, N: int, n_max: int = 8) -> np.ndarray:
    """Smallest n_max eigenvalues of the stepper's discrete membrane Laplacian.

    The grid has N cells left of the membrane, dx = x_m / N (N unknowns per
    side for a midpoint membrane), and must tile L - x_m too; it needs at
    least 100 cells in all.  The operator is the inhibitor's C/dt, built
    from the stepper's own face coefficients, and a dense symmetric
    tridiagonal eigensolver diagonalises it.  Fully independent of the root
    finding; the result also holds the membrane-transparent eigenvalues,
    which the root family leaves out.  scipy's solver is imported on the
    first call, so the rest of the module needs only numpy.
    """
    from scipy.linalg import eigh_tridiagonal

    dx = params.x_m / N
    if params.L / dx < 100:
        raise ValueError("oracle grid needs at least 100 cells")
    grid = replace(params, dx=dx)
    faces = _face_coefficients(grid, params.D_vl, params.D_vr, params.k_v) / grid.dt
    diag = np.zeros(faces.size + 1)
    diag[:-1] += faces
    diag[1:] += faces
    return eigh_tridiagonal(
        diag, -faces, select="i", select_range=(0, n_max - 1), eigvals_only=True
    )
