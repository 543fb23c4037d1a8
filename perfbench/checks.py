"""Independent computations, and the checks that hold the program's files to them.

Nothing here imports membrane_rd.  The steady state, the stability numbers,
the membrane eigenvalues and the theta-scheme are solved again from the
equations the package documents:

- reactions f = (v - h(u))/eps, g = -f, h(u) = alpha*u*(u - 1)^2;
- on (0, x_m) u (x_m, L), zero flux at both ends and the Kedem-Katchalsky
  law D u_x = k (u_r - u_l) on both sides of the membrane;
- the activator diffuses with theta*D_v and crosses with k_u = theta*k_v.

Every check returns a list of messages; an empty list is a pass.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.optimize import brentq

#: The stepper stops once max|dU, dV|/dt falls below this.
STEADY_TOL = 1e-8
#: The program takes a permeability at or above this as infinite.
K_INF = 1e8
#: Relative accuracy asked of every listed eigenvalue.
ROOT_RTOL = 1e-8
#: Largest relative mass drift allowed over a simulation.
MASS_TOL = 1e-12
#: The T/64 snapshot may differ from the benchmark's own integration by this.
SCHEME_TOL = 1e-9


# ----------------------------------------------------------- steady state

def h(u, alpha=1.0):
    return alpha * u * (u - 1.0) ** 2


def steady_u(M: float, alpha: float = 1.0) -> float:
    """The u_bar with u_bar + h(u_bar) = M; u + h(u) increases for 0 < alpha < 3."""
    return brentq(lambda u: u + h(u, alpha) - M, 0.0, M, xtol=1e-16, rtol=1e-15)


def jacobian(u_bar: float, eps: float = 1.0, alpha: float = 1.0):
    """(fu, fv, gu, gv) at the steady state."""
    fu = -alpha * (1.0 - u_bar) * (1.0 - 3.0 * u_bar) / eps
    fv = 1.0 / eps
    return fu, fv, -fu, -fv


def stability_numbers(theta: float, jac):
    """(theta_c, eta_minus, eta_plus) from the dispersion quadratic.

    A mode eta grows iff p(eta) = theta eta^2 - (fu + theta gv) eta + det < 0.
    The interval is None when p has no negative values.  theta_c is where
    the minimum of p touches 0: gv^2 t^2 + (2 fu gv - 4 det) t + fu^2 = 0,
    whose discriminant is 16 det (det - fu gv), with fu + t gv >= 0.
    """
    fu, fv, gu, gv = jac
    det = fu * gv - fv * gu
    a, b = gv * gv, 2.0 * fu * gv - 4.0 * det
    sq = math.sqrt(max(16.0 * det * (det - fu * gv), 0.0))
    roots = [(-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)]
    admissible = [t for t in roots
                  if t > 0 and fu + t * gv >= -1e-12 * (abs(fu) + abs(t * gv))]
    theta_c = max(admissible) if admissible else math.nan
    s = fu + theta * gv
    disc = s * s - 4.0 * theta * det
    if s <= 0.0 or disc <= 0.0:
        return theta_c, None, None
    r = math.sqrt(disc)
    return theta_c, (s - r) / (2.0 * theta), (s + r) / (2.0 * theta)


# ------------------------------------------------------ membrane spectrum

def kk_det(eta: float, k: float, x_m: float, L: float = 1.0, D: float = 1.0) -> float:
    """Determinant of the membrane conditions for piecewise cosines.

    With z_l = A cos(w x), z_r = B cos(w (x - L)), w = sqrt(eta/D), the two
    conditions D z_l'(x_m) = D z_r'(x_m) = k (z_r(x_m) - z_l(x_m)) are a
    2x2 system for (A, B); its determinant is

        k D w (cos(w x_m) sin(w (L - x_m)) + sin(w x_m) cos(w (L - x_m)))
          - (D w)^2 sin(w x_m) sin(w (L - x_m)),

    valid for any x_m and free of poles.  For k = inf (continuity of value
    and flux) the limit det/k is returned.
    """
    w = math.sqrt(eta / D)
    cl, sl = math.cos(w * x_m), math.sin(w * x_m)
    cr, sr = math.cos(w * (L - x_m)), math.sin(w * (L - x_m))
    cross = D * w * (cl * sr + sl * cr)
    if k >= K_INF:
        return cross
    return k * cross - (D * w) ** 2 * sl * sr


def _sealed_values(x_m: float, L: float, D: float, count: int) -> list[float]:
    """Sealed-membrane eigenvalues, both Neumann halves merged, with multiplicity."""
    sides = [[D * (j * math.pi / span) ** 2 for j in range(count)]
             for span in (x_m, L - x_m)]
    top = min(side[-1] for side in sides)
    return sorted(e for side in sides for e in side if e <= top)


def membrane_spectrum(k: float, x_m: float, n_modes: int, L: float = 1.0,
                      D: float = 1.0) -> np.ndarray:
    """The first n_modes eigenvalues of the family the program lists.

    The roots of kk_det interlace with the sealed values s_0 <= s_1 <= ...:
    the n-th root lies in [s_n, s_{n+1}] (a positive permeability is a
    rank-one positive coupling).  A double sealed value is a root itself,
    a transparent mode with no jump and no flux at x_m; the program lists
    the modes that feel the membrane, so one copy of each positive double
    value is dropped.  For k = 0 the roots are the sealed values.
    """
    s = _sealed_values(x_m, L, D, 2 * n_modes + 8)
    roots, transparent = [], []
    for lo, hi in zip(s, s[1:]):
        double = hi - lo <= 1e-12 * hi
        if double and hi > 0.0:
            transparent.append(lo)
        if k == 0.0 or double:
            roots.append(lo)
            continue
        # the ends may be roots themselves (transparent values): stay inside
        a, b = lo + 1e-11 * hi, hi - 1e-11 * hi
        fa, fb = kk_det(a, k, x_m, L, D), kk_det(b, k, x_m, L, D)
        if fa * fb > 0.0:
            raise ArithmeticError(f"no root of the membrane condition in [{lo}, {hi}]")
        roots.append(brentq(kk_det, a, b, args=(k, x_m, L, D),
                            xtol=1e-15 * hi, rtol=1e-15))
    family = list(roots)
    for t in transparent:
        family.remove(t)
    if len(family) < n_modes:
        raise ArithmeticError("too few sealed values to bracket the modes")
    return np.array(family[:n_modes])


def unstable_count(family: np.ndarray, eta_minus, eta_plus) -> int:
    if eta_minus is None:
        return 0
    return int(np.sum((family > 0.0) & (family > eta_minus) & (family < eta_plus)))


def mode_shape(eta: float, k: float, x: np.ndarray, left: np.ndarray,
               x_m: float, L: float = 1.0, D: float = 1.0) -> np.ndarray:
    """Piecewise cosine at eta with (A, B) from the null space of the 2x2 system."""
    w = math.sqrt(eta / D)
    cl, sl = math.cos(w * x_m), math.sin(w * x_m)
    cr = math.cos(w * (L - x_m))
    A, B = k * cr, k * cl - D * w * sl  # orthogonal to the first row
    return np.where(left, A * np.cos(w * x), B * np.cos(w * (x - L)))


# ------------------------------------------------------ the theta-scheme

def diffusion_matrix(n_left: int, n_right: int, dx: float, D: float, k: float) -> np.ndarray:
    """H with du/dt = -H u: face fluxes D (u_j - u_i)/dx inside a side,
    k (u_r - u_l) across the membrane, none at the ends, per cell width dx."""
    n = n_left + n_right
    coef = np.full(n - 1, D / dx**2)
    coef[n_left - 1] = k / dx
    H = np.zeros((n, n))
    i = np.arange(n - 1)
    H[i, i] += coef
    H[i + 1, i + 1] += coef
    H[i, i + 1] -= coef
    H[i + 1, i] -= coef
    return H


def integrate(u, v, n_left: int, dx: float, dt: float, n_steps: int, *,
              theta: float, k_v: float, scheme: float = 1.0,
              eps: float = 1.0, alpha: float = 1.0):
    """(I + S dt H) w_new = (I - (1 - S) dt H) w + dt r(w), reactions explicit."""
    n = u.size
    eye = np.eye(n)
    ops = []
    for D, k in ((theta, theta * k_v), (1.0, k_v)):
        H = diffusion_matrix(n_left, n - n_left, dx, D, k)
        ops.append((lu_factor(eye + scheme * dt * H), eye - (1.0 - scheme) * dt * H))
    (lu_u, b_u), (lu_v, b_v) = ops
    for _ in range(n_steps):
        f = (v - h(u, alpha)) / eps
        u, v = lu_solve(lu_u, b_u @ u + dt * f), lu_solve(lu_v, b_v @ v - dt * f)
    return u, v


def fig3_data(x: np.ndarray, left: np.ndarray, L: float = 1.0):
    """The reference data: u0 = 7/15 or 1/5 plus sin(4 pi x/L)/5, u0 + v0 = 4/5."""
    s = np.sin(4.0 * np.pi * x / L) / 5.0
    u0 = np.where(left, 7.0 / 15.0, 1.0 / 5.0) + s
    v0 = np.where(left, 1.0 / 3.0, 3.0 / 5.0) - s
    return u0, v0


# ----------------------------------------------------------- file readers

class Profile:
    """A written `x,side,u,v` profile."""

    def __init__(self, path: Path):
        rows = [line.split(",") for line in
                path.read_text(encoding="utf-8").splitlines()[1:]]
        self.x = np.array([float(r[0]) for r in rows])
        self.left = np.array([r[1] == "l" for r in rows])
        self.u = np.array([float(r[2]) for r in rows])
        self.v = np.array([float(r[3]) for r in rows])
        self.n_left = int(self.left.sum())
        self.dx = float(self.x[1] - self.x[0])

    def mass(self, dx: float) -> float:
        return dx * float(np.sum(self.u + self.v))

    def jump(self, values: np.ndarray) -> float:
        return abs(float(values[self.n_left] - values[self.n_left - 1]))

    def variation(self, values: np.ndarray) -> tuple[float, float]:
        return (float(np.ptp(values[:self.n_left])),
                float(np.ptp(values[self.n_left:])))

    def sign_changes(self, values: np.ndarray, level: float) -> tuple[int, int]:
        def count(seg):
            s = np.sign(seg - level)
            s = s[s != 0]
            return int(np.sum(s[1:] != s[:-1]))
        return count(values[:self.n_left]), count(values[self.n_left:])


def read_keys(path: Path) -> dict[str, str]:
    """`key = value` lines of a report; comment lines are skipped."""
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def read_csv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_fresh(out: Path, since: float) -> list[str]:
    """Files under `out` last written before `since` (a time.time() value):
    left by an earlier run, so the program did not write them in this one."""
    stale = sorted(str(p.relative_to(out)) for p in out.rglob("*")
                   if p.is_file() and p.stat().st_mtime < since)
    return [f"{len(stale)} files not written by this run: {', '.join(stale[:3])}"] if stale else []


# ------------------------------------------------------------ simulations

def check_simulation(out: Path, dx: float) -> list[str]:
    """Mass conservation and file round-trip of one `simulate` directory."""
    errs = []
    manifest = read_csv(out / "snapshots.csv")
    if len(manifest) < 2:
        return [f"{out.name}: {len(manifest)} snapshots"]
    profiles = [Profile(out / row["file"]) for row in manifest]
    masses = [p.mass(dx) for p in profiles]
    m0 = masses[0]
    drift = max(abs(m - m0) for m in masses) / abs(m0)
    if drift > MASS_TOL:
        errs.append(f"{out.name}: relative mass drift {drift:.2e} > {MASS_TOL:g}")
    for row, m in zip(manifest, masses):
        if not close(float(row["mass"]), m, 1e-13):
            errs.append(f"{out.name}: snapshot {row['index']} lists mass "
                        f"{row['mass']}, its profile sums to {m!r}")
    final = Profile(out / "final.csv")
    last = profiles[-1]
    if not (np.array_equal(final.u, last.u) and np.array_equal(final.v, last.v)):
        errs.append(f"{out.name}: final.csv differs from the last snapshot")
    rep = read_keys(out / "report.txt")
    var_l, var_r = final.variation(final.u)
    for key, value in (("jump_u", final.jump(final.u)), ("jump_v", final.jump(final.v)),
                       ("supvar_u_l", var_l), ("supvar_u_r", var_r)):
        if not close(float(rep[key]), value, 1e-12, 1e-15):
            errs.append(f"{out.name}: report {key} = {rep[key]}, final.csv gives {value!r}")
    if float(rep["mass_drift"]) > MASS_TOL:
        errs.append(f"{out.name}: report mass_drift {rep['mass_drift']}")
    return errs


def check_scheme(out: Path, cfg: dict) -> list[str]:
    """The T/64 snapshot against the benchmark's own theta-scheme run."""
    manifest = read_csv(out / "snapshots.csv")
    start, snap = Profile(out / manifest[0]["file"]), Profile(out / manifest[1]["file"])
    u0, v0 = fig3_data(start.x, start.left)
    if np.max(np.abs(start.u - u0)) > 1e-15 or np.max(np.abs(start.v - v0)) > 1e-15:
        return [f"{out.name}: the t = 0 snapshot is not the paper-fig3 data"]
    n_steps = round(float(manifest[1]["t"]) / cfg["dt"])
    u, v = integrate(u0, v0, start.n_left, cfg["dx"], cfg["dt"], n_steps,
                     theta=cfg["theta"], k_v=cfg["k_v"])
    dev = max(np.max(np.abs(snap.u - u)), np.max(np.abs(snap.v - v)))
    if dev > SCHEME_TOL:
        return [f"{out.name}: snapshot t = {manifest[1]['t']} is {dev:.2e} from "
                f"the theta-scheme ({n_steps} steps)"]
    return []


def check_single_mode(out: Path, k_v: float, x_m: float = 0.5) -> list[str]:
    """The final profile is the one-mode membrane jump pattern of z_1."""
    errs = []
    final = Profile(out / "final.csv")
    u_bar = steady_u(final.mass(final.dx))
    dev = final.u - u_bar
    crossings = final.sign_changes(final.u, u_bar)
    if any(crossings):
        errs.append(f"{out.name}: interior sign changes {crossings}, expected none")
    eta1 = membrane_spectrum(k_v, x_m, 2)[1]
    z = mode_shape(eta1, k_v, final.x, final.left, x_m)
    share = abs(float(dev @ z)) / math.sqrt(float(dev @ dev) * float(z @ z))
    if share < 0.95:
        errs.append(f"{out.name}: z_1 carries {share:.3f} of u - u_bar, expected >= 0.95")
    jump, var = final.jump(final.u), max(final.variation(final.u))
    if jump <= 10.0 * var / 3.0:
        errs.append(f"{out.name}: jump {jump:.3e} <= 10/3 x side variation {var:.3e}")
    return errs


def stationary_residual(prof: Profile, theta: float, k_v: float,
                        eps: float = 1.0, alpha: float = 1.0):
    """max |-H w + r(w)| over both species, and the bound the steady test implies.

    The stepper stops when |w_new - w|/dt < STEADY_TOL, so at the old state
    |R| <= |I + dt H| * tol, and one more step moves R by at most
    dt |H - J| * tol.
    """
    n = prof.u.size
    Hu = diffusion_matrix(prof.n_left, n - prof.n_left, prof.dx, theta, theta * k_v)
    Hv = diffusion_matrix(prof.n_left, n - prof.n_left, prof.dx, 1.0, k_v)
    f = (prof.v - h(prof.u, alpha)) / eps
    res = max(np.max(np.abs(-Hu @ prof.u + f)), np.max(np.abs(-Hv @ prof.v - f)))
    dt = min(1e-2, eps / 4.0)  # the program's default step
    lip = (np.max(np.abs(alpha * (1 - prof.u) * (1 - 3 * prof.u))) + 1.0) / eps
    norm_h = np.max(np.sum(np.abs(Hv), axis=1))
    return float(res), STEADY_TOL * (1.0 + 2.0 * dt * (norm_h + lip))


# ----------------------------------------------------------------- sweeps

def check_sweep(out: Path, expected: list[float], k_v: float, dx: float) -> list[str]:
    """Summary rows and child directories of one `sweep --param theta` run."""
    rows = read_csv(out / "sweep_summary.csv")
    if len(rows) != len(expected):
        return [f"sweep_summary.csv has {len(rows)} rows for {len(expected)} values"]
    children = [p for p in out.iterdir() if p.is_dir()]
    errs = []
    if len(children) != len(expected):
        errs.append(f"{len(expected)} values wrote {len(children)} child directories")
    for want, row in zip(expected, rows):
        value = float(row["value"])
        tag = f"theta={value!r}"
        if row["status"] != "ok":
            errs.append(f"{tag}: status {row['status']}")
            continue
        if not close(value, want, 1e-9):
            errs.append(f"{tag}: summary value, expected {want!r}")
        child = out / f"theta_{value:g}"
        rep = read_keys(child / "report.txt")
        if float(rep["theta"]) != value:
            errs.append(f"{tag}: {child.name} holds the run of theta = {rep['theta']}"
                        " (child directory overwritten)")
            continue
        errs += check_simulation(child, dx)
        final = Profile(child / "final.csv")
        u_bar = steady_u(Profile(child / "snapshot_000.csv").mass(dx))
        var_l, var_r = final.variation(final.u)
        expect = {"jump_u": final.jump(final.u), "jump_v": final.jump(final.v),
                  "supvar_l": var_l, "supvar_r": var_r}
        for key, val in expect.items():
            if not close(float(row[key]), val, 1e-12, 1e-15):
                errs.append(f"{tag}: summary {key} = {row[key]}, files give {val!r}")
        if np.min(np.abs(final.u - u_bar)) > 1e-10:  # crossings are well posed
            crossings = final.sign_changes(final.u, u_bar)
            if (int(row["crossings_l"]), int(row["crossings_r"])) != crossings:
                errs.append(f"{tag}: summary crossings ({row['crossings_l']}, "
                            f"{row['crossings_r']}) vs {crossings}")
        masses = [float(r["mass"]) for r in read_csv(child / "snapshots.csv")]
        drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
        if not close(float(row["mass_drift"]), drift, 1e-6, 1e-15):
            errs.append(f"{tag}: summary mass_drift {row['mass_drift']} vs {drift!r}")
        _, lo, hi = stability_numbers(value, jacobian(u_bar))
        count = unstable_count(membrane_spectrum(k_v, 0.5, _modes_below(hi)), lo, hi)
        if int(row["count"]) != count:
            errs.append(f"{tag}: summary count {row['count']}, expected {count}")
        converged = rep["converged"] == "True"
        if int(row["converged"]) != int(converged):
            errs.append(f"{tag}: summary converged {row['converged']} vs report")
        if converged:
            res, bound = stationary_residual(final, value, k_v)
            if res > bound:
                errs.append(f"{tag}: converged state leaves a stationary residual "
                            f"{res:.2e} > {bound:.2e}")
    return errs


def _modes_below(eta_plus, L: float = 1.0, D: float = 1.0) -> int:
    """Modes enough to pass eta_plus: the n-th mode exceeds D((n - 1) pi/L)^2."""
    if eta_plus is None:
        return 2
    return int(math.sqrt(eta_plus / D) * L / math.pi) + 3


# ----------------------------------------------------- analysis and spectra

class SpectrumRef:
    """Eigenvalues per (k_v, x_m), solved once and reused by every point."""

    def __init__(self):
        self._cache = {}

    def family(self, k_v: float, x_m: float, n: int) -> np.ndarray:
        have = self._cache.get((k_v, x_m))
        if have is None or have.size < n:
            have = membrane_spectrum(k_v, x_m, max(n, 64))
            self._cache[(k_v, x_m)] = have
        return have[:n]


def _at_edge(eta: float, eta_plus) -> bool:
    """Too close to eta_plus for the inside/outside call to be well posed."""
    return eta_plus is not None and abs(eta - eta_plus) <= 1e-9 * eta_plus


def _eta_errors(etas: np.ndarray, family: np.ndarray) -> list[str]:
    return [f"eta_{n} = {float(e)!r} vs root {float(r)!r}"
            for n, (e, r) in enumerate(zip(etas, family)) if not close(e, r, ROOT_RTOL, 1e-12)]


def check_analysis(path: Path, theta: float, k_v: float, x_m: float,
                   ref: SpectrumRef) -> tuple[list[str], bool]:
    """(messages, shows_midpoint_fault) for one analysis.txt.

    The second value is True when the only fault is that the listed
    eigenvalues are those of a midpoint membrane while x_m is elsewhere.
    """
    rep = read_keys(path)
    errs = []
    M = float(rep["M"])
    if not close(M, 0.8, 1e-12):
        errs.append(f"M = {M!r}, the paper-fig3 data have mass 0.8")
    u_bar = steady_u(0.8)
    jac = jacobian(u_bar)
    if not close(float(rep["u_bar"]), u_bar, 1e-10):
        errs.append(f"u_bar = {rep['u_bar']} vs {u_bar!r}")
    theta_c, lo, hi = stability_numbers(theta, jac)
    if not close(float(rep["theta_c"]), theta_c, 1e-9):
        errs.append(f"theta_c = {rep['theta_c']} vs {theta_c!r}")
    scale = (abs(jac[0]) + theta * abs(jac[3])) / theta
    if hi is None:
        if rep["eta_plus"] != "none" or rep["eta_minus"] != "none":
            errs.append(f"interval ({rep['eta_minus']}, {rep['eta_plus']}) vs empty")
    elif rep["eta_plus"] == "none" or not (
            close(float(rep["eta_minus"]), lo, 0.0, 1e-9 * scale)
            and close(float(rep["eta_plus"]), hi, 0.0, 1e-9 * scale)):
        errs.append(f"interval ({rep['eta_minus']}, {rep['eta_plus']}) vs ({lo!r}, {hi!r})")
    modes = [(key, value.split()) for key, value in rep.items() if key.startswith("mode[")]
    if [key for key, _ in modes] != [f"mode[{n}]" for n in range(len(modes))]:
        return errs + ["mode list is not numbered 0, 1, ..."], False
    etas = np.array([float(m[0]) for _, m in modes])
    for (key, m), eta in zip(modes, etas):
        if not close(float(m[1]), theta * eta, 1e-12):
            errs.append(f"{key}: lambda {m[1]} vs theta*eta")
        flag = int(hi is not None and eta > 0.0 and lo < eta < hi)
        if int(m[3]) != flag and not _at_edge(eta, hi):
            errs.append(f"{key}: unstable flag {m[3]} vs {flag}")
    family = ref.family(k_v, x_m, max(etas.size, _modes_below(hi)))
    root_errs = _eta_errors(etas, family)
    count = unstable_count(family, lo, hi)
    if int(rep["unstable_count"]) != count and not any(_at_edge(e, hi) for e in family):
        root_errs.append(f"unstable_count {rep['unstable_count']} vs {count} roots "
                         f"in the interval less the transparent cosines")
    midpoint_fault = False
    if root_errs and x_m != 0.5:
        midpoint = ref.family(k_v, 0.5, etas.size)
        midpoint_fault = not errs and not _eta_errors(etas, midpoint)
    return errs + root_errs, midpoint_fault


def check_spectrum(path: Path, theta: float, k_v: float, n_max: int,
                   ref: SpectrumRef) -> list[str]:
    rows = read_csv(path)
    if [int(r["n"]) for r in rows] != list(range(n_max + 1)):
        return [f"{path.parent.name}: rows are not n = 0..{n_max}"]
    etas = np.array([float(r["eta"]) for r in rows])
    errs = [f"{path.parent.name}: {e}" for e in _eta_errors(etas, ref.family(k_v, 0.5, n_max + 1))]
    for r, eta in zip(rows, etas):
        if not close(float(r["lambda"]), theta * eta, 1e-12):
            errs.append(f"{path.parent.name}: n = {r['n']} lambda {r['lambda']}")
    return errs
