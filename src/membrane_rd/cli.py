"""Configuration, experiment orchestration and file output.

Commands:
    analyze  --config F [--out D]            stability + spectrum report
    simulate --config F [--out D] [--svg]    time integration, CSV snapshots
    spectrum --config F --n-max N [--out D]  eigenvalue table
    sweep    --config F --param P --values v1,v2,... [--out D]

Every command writes its files to the directory D, by default `out`.
Config files are `key = value` lines with `#` comments.  Exit codes:
0 success, 2 config error, 3 numerical blow-up, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import fdm, spectrum, stability
from .model import (ConfigError, ModelParams, SteadyState, conserved_mass,
                    initial_data, steady_state)


@dataclass(frozen=True)
class RunConfig(ModelParams):
    """A problem and its horizon; parse -> serialize -> parse is the identity.

    The keys are the `ModelParams` fields, validated and resolved (k_u, dt)
    when the config is built, and the final time ``T``.
    """

    T: float = 1000.0

    def __post_init__(self):
        super().__post_init__()
        if not self.T > 0:
            raise ConfigError("T", "final time must be positive")


# each key parses as its RunConfig field's type (without the None of an open field)
_KEY_TYPES = {
    name: next(a for a in typing.get_args(hint) or (hint,) if a is not type(None))
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_TYPE_NAMES = {int: "an integer", float: "a number"}


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; unknown keys and bad values are rejected."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(line.split()[0], f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise ConfigError(key, "unknown key")
        if key in values:
            raise ConfigError(key, "duplicate key")
        try:
            values[key] = kind(val)
        except ValueError:
            raise ConfigError(key, f"cannot parse {val!r} as {_TYPE_NAMES[kind]}") from None
    return RunConfig(**values)


def serialize_config(cfg: RunConfig) -> str:
    """Emit the fully resolved config; floats use repr so parsing round-trips."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{f.name} = {value!r}" if isinstance(value, float)
                     else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _g(x: float) -> str:
    return format(float(x), ".17g")


# ------------------------------------------------------------------- analyze

@dataclass(eq=False)
class AnalysisReport:
    ss: SteadyState  # at the mass of the initial data
    ode: stability.OdeStability
    rng: stability.InstabilityRange
    modes: list  # EigenModes 0..n, n = max(8, last unstable mode + 2)
    unstable: list  # the EigenModes in rng
    dominant: spectrum.EigenMode | None  # the one with the largest growth rate


def analyze(cfg: RunConfig) -> AnalysisReport:
    if not cfg.coupled:
        raise ConfigError("k_u", f"{cfg.k_u!r} is not theta*k_v = "
                                 f"{cfg.theta * cfg.k_v!r}: the species share no "
                                 "eigenbasis, so the modal analysis does not apply")
    grid = fdm.build_grid(cfg)
    u0, v0 = initial_data(cfg, grid)
    ss = steady_state(conserved_mass(u0, v0, grid), cfg.eps, cfg.alpha)
    ode = stability.ode_stability(ss.jac)
    rng = stability.instability_range(cfg.theta, ss.jac)
    # one spectrum serves the count and the listed modes; the modes past the
    # cap lie above eta_plus
    n_cap = 0 if rng.is_empty else spectrum.unstable_mode_cap(rng, cfg)
    if n_cap + 2 > spectrum.MAX_MODES:
        raise ConfigError("theta", f"mode cap {n_cap} for eta_plus = "
                                   f"{_g(rng.eta_plus)} is past the "
                                   f"{spectrum.MAX_MODES} modes that are solved")
    modes = spectrum.eigenvalues(cfg, max(8, n_cap + 2))
    hits = [m for m in modes if m.eta in rng]
    n_show = max(8, (hits[-1].n + 2) if hits else 0)
    dominant = max(hits, default=None,
                   key=lambda m: stability.dispersion(m.eta, cfg.theta, ss.jac).max_re)
    return AnalysisReport(ss=ss, ode=ode, rng=rng, modes=modes[:n_show + 1],
                          unstable=hits, dominant=dominant)


def _format_analysis(cfg: RunConfig, rep: AnalysisReport) -> str:
    ss, ode, rng = rep.ss, rep.ode, rep.rng
    count = len(rep.unstable)
    out = [
        "# stability analysis",
        f"M = {_g(ss.M)}",
        f"u_bar = {_g(ss.u_bar)}",
        f"v_bar = {_g(ss.v_bar)}",
        f"fu = {_g(ss.jac.fu)}",
        f"fv = {_g(ss.jac.fv)}",
        f"gu = {_g(ss.jac.gu)}",
        f"gv = {_g(ss.jac.gv)}",
        f"tr = {_g(ode.tr)}",
        f"det = {_g(ode.det)}",
        f"det_borderline = {ode.det_borderline}",
        f"ode_stable = {ode.stable}",
        f"activator_inhibitor = {ode.activator_inhibitor}",
        f"theta = {_g(cfg.theta)}",
        f"theta_c = {_g(rng.theta_c)}",
        f"eta_minus = {'none' if rng.is_empty else _g(rng.eta_minus)}",
        f"eta_plus = {'none' if rng.is_empty else _g(rng.eta_plus)}",
        f"unstable_count = {count}",
        f"dominant_mode = {rep.dominant.n if rep.dominant else 'none'}",
        "verdict = " + (f"pattern expected ({count} unstable modes)" if count
                        else "converges to equilibrium"),
        "# modes: n, eta, lambda, residual, unstable",
    ]
    for m in rep.modes:
        out.append(f"mode[{m.n}] = {_g(m.eta)} {_g(m.lam)} {_g(m.residual)} "
                   f"{int(m.eta in rng)}")
    return "\n".join(out) + "\n"


def _write(out_dir: str | Path, name: str, text: str):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8")


def cmd_analyze(cfg: RunConfig, out_dir: str | Path) -> AnalysisReport:
    rep = analyze(cfg)
    _write(out_dir, "analysis.txt", _format_analysis(cfg, rep))
    return rep


# ------------------------------------------------------------------ simulate

def _write_profile_csv(path: Path, grid, U, V):
    rows = ["x,side,u,v"]
    for side, part in (("l", grid.left), ("r", grid.right)):
        for x, u, v in zip(grid.centers[part], U[part], V[part]):
            rows.append(f"{_g(x)},{side},{_g(u)},{_g(v)}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _svg_profile(path: Path, grid, values, label: str):
    # two polylines (one per side) with the membrane marked by a vertical rule
    w, hgt, ml, mr, mt, mb = 640, 400, 50, 10, 10, 30
    lo, hi = float(np.min(values)), float(np.max(values))
    pad = 0.05 * (hi - lo) or 1.0
    lo, hi = lo - pad, hi + pad

    def sx(x):
        return ml + (w - ml - mr) * x / grid.L

    def sy(y):
        return mt + (hgt - mt - mb) * (hi - y) / (hi - lo)

    def poly(sl):
        pts = " ".join(
            f"{sx(x):.2f},{sy(y):.2f}"
            for x, y in zip(grid.centers[sl], values[sl])
        )
        return (f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" '
                f'points="{pts}"/>')

    xm = sx(grid.x_m)
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {hgt}">',
        f'<rect x="{ml}" y="{mt}" width="{w-ml-mr}" height="{hgt-mt-mb}" '
        f'fill="white" stroke="black"/>',
        f'<line x1="{xm:.2f}" y1="{mt}" x2="{xm:.2f}" y2="{hgt-mb}" '
        f'stroke="#888888" stroke-dasharray="4 3"/>',
        poly(grid.left),
        poly(grid.right),
        f'<text x="{ml}" y="{hgt-8}" font-size="12">0</text>',
        f'<text x="{w-mr-10}" y="{hgt-8}" font-size="12">{grid.L:g}</text>',
        f'<text x="4" y="{mt+12}" font-size="12">{hi:.4g}</text>',
        f'<text x="4" y="{hgt-mb}" font-size="12">{lo:.4g}</text>',
        f'<text x="{w//2}" y="{hgt-8}" font-size="12">{label}</text>',
        "</svg>",
    ]
    path.write_text("\n".join(svg) + "\n", encoding="utf-8")


def simulate(cfg: RunConfig) -> fdm.SimResult:
    u0, v0 = initial_data(cfg, fdm.build_grid(cfg))
    return fdm.run(cfg, (u0, v0), cfg.T)


def _format_sim_report(cfg: RunConfig, res: fdm.SimResult) -> str:
    U = res.u
    var_l, var_r = fdm.side_variation(U, res.grid)
    lines = [
        "# simulation report",
        f"converged = {res.converged}",
        f"t_final = {_g(res.t_final)}",
        f"n_steps = {res.n_steps}",
        f"jump_u = {_g(res.jump[0])}",
        f"jump_v = {_g(res.jump[1])}",
        f"supvar_u_l = {_g(var_l)}",
        f"supvar_u_r = {_g(var_r)}",
        f"mass_initial = {_g(res.mass_initial)}",
        f"mass_final = {_g(res.mass_series[-1][1])}",
        f"mass_drift = {_g(res.mass_drift)}",
        "# resolved configuration",
    ]
    lines += serialize_config(cfg).rstrip("\n").splitlines()
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: RunConfig, out_dir: str | Path, svg: bool = False) -> fdm.SimResult:
    res = simulate(cfg)
    _write_simulation(cfg, res, out_dir, svg)
    return res


def _write_simulation(cfg: RunConfig, res: fdm.SimResult, out_dir: str | Path,
                      svg: bool = False):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = ["index,t,file,mass"]
    for i, ((t, U, V), (_, m)) in enumerate(zip(res.snapshots, res.mass_series)):
        name = f"snapshot_{i:03d}.csv"
        _write_profile_csv(out / name, res.grid, U, V)
        manifest.append(f"{i},{_g(t)},{name},{_g(m)}")
    (out / "snapshots.csv").write_text("\n".join(manifest) + "\n", encoding="utf-8")
    _write_profile_csv(out / "final.csv", res.grid, res.u, res.v)
    (out / "report.txt").write_text(_format_sim_report(cfg, res), encoding="utf-8")
    if svg:
        _svg_profile(out / "final_u.svg", res.grid, res.u, "u")
        _svg_profile(out / "final_v.svg", res.grid, res.v, "v")


# ------------------------------------------------------------------ spectrum

def cmd_spectrum(cfg: RunConfig, n_max: int, out_dir: str | Path) -> list:
    modes = spectrum.eigenvalues(cfg, n_max)
    rows = ["n,eta,lambda,xi_over_pi,residual,degenerate_zero"]
    for m in modes:
        rows.append(
            f"{m.n},{_g(m.eta)},{_g(m.lam)},{_g(m.b_n / np.pi)},"
            f"{_g(m.residual)},{int(m.degenerate_zero)}"
        )
    _write(out_dir, "spectrum.csv", "\n".join(rows) + "\n")
    return modes


# --------------------------------------------------------------------- sweep

_SWEEP_PARAMS = ("theta", "k_v", "eps")


def _sweep_child(cfg: RunConfig, param: str, value: float) -> RunConfig:
    # the coupled regime k_u = theta*k_v, and for eps the dt cap, are re-derived
    return replace(cfg, **{param: value}, k_u=None,
                   dt=None if param == "eps" else cfg.dt)


# the columns of sweep_summary.csv between value and status, which a
# failed child leaves empty
_SUMMARY_COLUMNS = ("count", "converged", "jump_u", "jump_v", "supvar_l",
                    "supvar_r", "crossings_l", "crossings_r", "mass_drift")


def _child_summary(rep: AnalysisReport, res: fdm.SimResult) -> dict:
    var_l, var_r = fdm.side_variation(res.u, res.grid)
    sc_l, sc_r = fdm.sign_changes(res.u, rep.ss.u_bar, res.grid)
    return dict(zip(_SUMMARY_COLUMNS, (len(rep.unstable), res.converged,
                                       *res.jump, var_l, var_r, sc_l, sc_r,
                                       res.mass_drift)))


def _cell(value) -> str:
    return _g(value) if isinstance(value, float) else str(int(value))


def _failure(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def cmd_sweep(cfg: RunConfig, param: str, values: list[float],
              out_dir: str | Path) -> list[dict]:
    """One simulation per value, all stepped together by `fdm.run_batch`.

    A child that fails (its config, analysis, run or files) is recorded in
    its row and the others carry on.
    """
    if param not in _SWEEP_PARAMS:
        raise ConfigError("param", f"sweep parameter must be one of {_SWEEP_PARAMS}")
    if not 1 <= len(values) <= 64:
        raise ConfigError("values", "need between 1 and 64 sweep values")
    results = [None] * len(values)
    ready = []  # (row, child config, analysis, initial state)
    for row, value in enumerate(values):
        try:
            child = _sweep_child(cfg, param, value)
            rep = analyze(child)
            initial = initial_data(child, fdm.build_grid(child))
        except Exception as exc:  # failures recorded per-row, sweep continues
            results[row] = _failure(exc)
            continue
        ready.append((row, child, rep, initial))
    try:
        runs = fdm.run_batch([r[1] for r in ready], [r[3] for r in ready], cfg.T)
    except Exception as exc:  # an error common to the batch fails every child
        runs = [exc] * len(ready)
    for (row, child, rep, _), res in zip(ready, runs):
        if isinstance(res, Exception):
            results[row] = _failure(res)
            continue
        try:
            _write_simulation(child, res, Path(out_dir) / f"{param}_{values[row]:g}")
            results[row] = _child_summary(rep, res)
        except Exception as exc:
            results[row] = _failure(exc)

    rows = [",".join(("param", "value", *_SUMMARY_COLUMNS, "status"))]
    summary = []
    for v, r in zip(values, results):
        cells = ([""] * len(_SUMMARY_COLUMNS) if "error" in r
                 else [_cell(r[c]) for c in _SUMMARY_COLUMNS])
        rows.append(",".join((param, _g(v), *cells, r.get("error", "ok"))))
        summary.append({"param": param, "value": v, **r})
    _write(out_dir, "sweep_summary.csv", "\n".join(rows) + "\n")
    return summary


def _parse_sweep_values(cfg: RunConfig, text: str) -> list[float]:
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "theta_c":
            # the children re-derive k_u = theta*k_v, and so does their theta_c
            rep = analyze(replace(cfg, k_u=None))
            values.append(rep.rng.theta_c)
            continue
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError("values", f"cannot parse {tok!r} as a number") from None
    return values


# ---------------------------------------------------------------------- main

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    defaults = RunConfig()
    p = argparse.ArgumentParser(
        prog="membrane-rd",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "config defaults: L=1, x_m=0.5, dx=1/200, D_vl=D_vr=1, "
            f"theta={defaults.theta}, k_v=1, k_u=theta*k_v, eps=1, alpha=1, "
            "Theta_scheme=1, dt=min(1e-2, eps/4), preset=paper-fig3, "
            "T=1000, seed=0"
        ),
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="path to a key = value file")
        sp.add_argument("--out", default="out", help="output directory (default: out)")

    sp = sub.add_parser("analyze", help="steady state, critical ratio, unstable modes")
    common(sp)
    sp = sub.add_parser("simulate", help="time integration with CSV snapshots")
    common(sp)
    sp.add_argument("--svg", action="store_true", help="also write SVG line plots")
    sp = sub.add_parser("spectrum", help="membrane eigenvalue table")
    common(sp)
    sp.add_argument("--n-max", type=int, default=8)
    sp = sub.add_parser("sweep", help="one simulation per parameter value")
    common(sp)
    sp.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    sp.add_argument("--values", required=True,
                    help="comma-separated values; 'theta_c' is accepted")
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 4
        cfg = parse_config(text)
        if args.cmd == "analyze":
            cmd_analyze(cfg, args.out)
        elif args.cmd == "simulate":
            cmd_simulate(cfg, args.out, svg=args.svg)
        elif args.cmd == "spectrum":
            cmd_spectrum(cfg, args.n_max, args.out)
        elif args.cmd == "sweep":
            values = _parse_sweep_values(cfg, args.values)
            summary = cmd_sweep(cfg, args.param, values, args.out)
            failed = [s for s in summary if "error" in s]
            for s in failed:
                print(f"sweep {args.param}={s['value']:g} failed: {s['error']}",
                      file=sys.stderr)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except fdm.BlowUpError as exc:
        print(f"blow-up: {exc} (step {exc.step_index}, t = {exc.t})",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
