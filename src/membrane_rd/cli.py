"""Configuration, experiment orchestration and file output.

Commands:
    analyze  --config F [--out D]            stability + spectrum report
    simulate --config F [--out D] [--svg]    time integration, CSV snapshots
    spectrum --config F --n-max N [--out D]  eigenvalue table
    sweep    --config F --param P --values v1,v2,... [--out D]

Every command writes its files to the directory D, by default `out`.
Config files are `key = value` lines with `#` comments.  Exit codes:
0 success, 2 config error, 3 numerical blow-up, 4 I/O failure, 5 a
numerical method that failed (a root that did not converge).
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
    values = ((f.name, getattr(cfg, f.name)) for f in fields(cfg))
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in values)


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _text(value) -> str:
    """A report value: floats as %.17g, None as none, anything else with str."""
    if isinstance(value, float):
        return "%.17g" % value
    return "none" if value is None else str(value)


def _lines(record: dict) -> str:
    """The `key = value` lines of a report record, in its order."""
    return "".join(f"{key} = {_text(value)}\n" for key, value in record.items())


# ------------------------------------------------------------------- analyze

@dataclass(eq=False)
class AnalysisReport:
    ss: SteadyState  # at the mass of the initial data
    ode: stability.OdeStability
    rng: stability.InstabilityRange
    modes: list  # EigenModes 0..n, n = max(8, last unstable mode + 2)
    unstable: list  # the EigenModes in rng
    dominant: spectrum.EigenMode | None  # the one with the largest growth rate


def _steady_state(cfg: RunConfig) -> SteadyState:
    """The steady state at the mass of the config's initial data."""
    grid = fdm.build_grid(cfg)
    u0, v0 = initial_data(cfg, grid)
    return steady_state(conserved_mass(u0, v0, grid), cfg.eps, cfg.alpha)


def analyze(cfg: RunConfig) -> AnalysisReport:
    if not cfg.coupled:
        raise ConfigError("k_u", f"{cfg.k_u!r} is not theta*k_v = "
                                 f"{cfg.theta * cfg.k_v!r}: the species share no "
                                 "eigenbasis, so the modal analysis does not apply")
    ss = _steady_state(cfg)
    ode = stability.ode_stability(ss.jac)
    rng = stability.instability_range(cfg.theta, ss.jac)
    # one spectrum serves the count and the listed modes; the modes past the
    # cap lie above eta_plus
    n_cap = 0 if rng.is_empty else spectrum.unstable_mode_cap(rng, cfg)
    if n_cap + 2 > spectrum.MAX_MODES:
        raise ConfigError("theta", f"mode cap {n_cap} for eta_plus = "
                                   f"{_text(rng.eta_plus)} is past the "
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
    record = {
        "M": ss.M, "u_bar": ss.u_bar, "v_bar": ss.v_bar,
        "fu": ss.jac.fu, "fv": ss.jac.fv, "gu": ss.jac.gu, "gv": ss.jac.gv,
        "tr": ode.tr, "det": ode.det, "det_borderline": ode.det_borderline,
        "ode_stable": ode.stable, "activator_inhibitor": ode.activator_inhibitor,
        "theta": cfg.theta, "theta_c": rng.theta_c,
        "eta_minus": rng.eta_minus, "eta_plus": rng.eta_plus,  # None if empty
        "unstable_count": count,
        "dominant_mode": rep.dominant.n if rep.dominant else None,
        "verdict": (f"pattern expected ({count} unstable modes)" if count
                    else "converges to equilibrium"),
    }
    modes = ["mode[%d] = %.17g %.17g %.17g %d\n"
             % (m.n, m.eta, m.lam, m.residual, m.eta in rng) for m in rep.modes]
    return "".join(["# stability analysis\n", _lines(record),
                    "# modes: n, eta, lambda, residual, unstable\n", *modes])


def _write_file(path: Path, blocks: typing.Iterable[str]):
    """Write the text `blocks` to `path`, making its directory if need be.

    The one writer of the CLI's files.  An existing file is cut to one byte,
    not to zero: ext4 (`auto_da_alloc`) forces writeback at close() of a file
    that was truncated to zero, which made a rewrite take about four times
    as long as after a cut to one byte.  The text is written from offset 0,
    so its first byte covers the one left and sets the length, and empty
    text truncates the file to zero.  A killed write leaves a prefix of the
    new text, never old bytes behind new ones; a write that raises leaves
    the file empty.
    """
    import os

    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        fd = os.open(path, flags, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, flags, 0o666)
    try:
        if os.fstat(fd).st_size > 1:
            os.ftruncate(fd, 1)
        size = 0
        for block in blocks:
            if os.linesep != "\n":  # the newline translation of text mode
                block = block.replace("\n", os.linesep)
            data = memoryview(block.encode("utf-8"))
            while data:
                n = os.write(fd, data)
                data, size = data[n:], size + n
        if not size:  # else the write from offset 0 set the length
            os.ftruncate(fd, 0)
    except BaseException:
        os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


def cmd_analyze(cfg: RunConfig, out_dir: str | Path) -> AnalysisReport:
    rep = analyze(cfg)
    _write_file(Path(out_dir) / "analysis.txt", [_format_analysis(cfg, rep)])
    return rep


# ------------------------------------------------------------------ simulate

_PROFILE_BLOCK_ROWS = 4096  # rows of a profile CSV held as text at once


def _profile_csv(grid, U, V):
    """The text of a profile CSV in blocks of at most `_PROFILE_BLOCK_ROWS` rows."""
    yield "x,side,u,v\n"
    for side, part in (("l", grid.left), ("r", grid.right)):
        row = f"%.17g,{side},%.17g,%.17g\n".__mod__
        x, u, v = grid.centers[part], U[part], V[part]
        for i in range(0, len(x), _PROFILE_BLOCK_ROWS):
            block = slice(i, i + _PROFILE_BLOCK_ROWS)
            yield "".join(map(row, zip(x[block].tolist(), u[block].tolist(),
                                       v[block].tolist())))


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
    _write_file(path, ["\n".join(svg) + "\n"])


def cmd_simulate(cfg: RunConfig, out_dir: str | Path, svg: bool = False) -> fdm.SimResult:
    res = fdm.run(cfg, initial_data(cfg, fdm.build_grid(cfg)), cfg.T)
    _write_simulation(cfg, res, out_dir, svg)
    return res


def _write_simulation(cfg: RunConfig, res: fdm.SimResult, out_dir: str | Path,
                      svg: bool = False) -> dict:
    """Write a run's files; return the run record that `report.txt` renders."""
    out = Path(out_dir)
    manifest = ["index,t,file,mass\n"]
    for i, ((t, U, V), (_, m)) in enumerate(zip(res.snapshots, res.mass_series)):
        name = f"snapshot_{i:03d}.csv"
        _write_file(out / name, _profile_csv(res.grid, U, V))
        manifest.append("%d,%.17g,%s,%.17g\n" % (i, t, name, m))
    _write_file(out / "snapshots.csv", ["".join(manifest)])
    _write_file(out / "final.csv", _profile_csv(res.grid, res.u, res.v))
    var_l, var_r = fdm.side_variation(res.u, res.grid)
    run = {"converged": res.converged, "t_final": res.t_final,
           "n_steps": res.n_steps, "jump_u": res.jump[0], "jump_v": res.jump[1],
           "supvar_u_l": var_l, "supvar_u_r": var_r,
           "mass_initial": res.mass_initial, "mass_final": res.mass_series[-1][1],
           "mass_drift": res.mass_drift}
    _write_file(out / "report.txt", ["# simulation report\n", _lines(run),
                                     "# resolved configuration\n",
                                     serialize_config(cfg)])
    if svg:
        _svg_profile(out / "final_u.svg", res.grid, res.u, "u")
        _svg_profile(out / "final_v.svg", res.grid, res.v, "v")
    return run


# ------------------------------------------------------------------ spectrum

def cmd_spectrum(cfg: RunConfig, n_max: int, out_dir: str | Path) -> list:
    modes = spectrum.eigenvalues(cfg, n_max)
    rows = ["n,eta,lambda,xi_over_pi,residual,degenerate_zero\n"]
    rows += ["%d,%.17g,%.17g,%.17g,%.17g,%d\n"
             % (m.n, m.eta, m.lam, m.b_n / np.pi, m.residual, m.degenerate_zero)
             for m in modes]
    _write_file(Path(out_dir) / "spectrum.csv", ["".join(rows)])
    return modes


# --------------------------------------------------------------------- sweep

_SWEEP_PARAMS = ("theta", "k_v", "eps")


def _sweep_child(cfg: RunConfig, param: str, value: float) -> RunConfig:
    # the coupled regime k_u = theta*k_v, and for eps the dt cap, are
    # re-derived; a k_u off the coupled regime is kept, for analyze to refuse
    return replace(cfg, **{param: value},
                   k_u=None if cfg.coupled else cfg.k_u,
                   dt=None if param == "eps" else cfg.dt)


# the columns of sweep_summary.csv between value and status, which a
# failed child leaves empty
_SUMMARY_COLUMNS = ("count", "converged", "jump_u", "jump_v", "supvar_l",
                    "supvar_r", "crossings_l", "crossings_r", "mass_drift")


def _csv_cell(text: str) -> str:
    """`text` as one CSV cell: quoted, with `"` doubled, if it holds `,`, `"`
    or a line break (RFC 4180), else as it is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


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
            run = _write_simulation(child, res, Path(out_dir) / f"{param}_{values[row]:g}")
            results[row] = dict(zip(_SUMMARY_COLUMNS, (
                len(rep.unstable), int(run["converged"]), run["jump_u"],
                run["jump_v"], run["supvar_u_l"], run["supvar_u_r"],
                *fdm.sign_changes(res.u, rep.ss.u_bar, res.grid), run["mass_drift"])))
        except Exception as exc:
            results[row] = _failure(exc)

    rows = [",".join(("param", "value", *_SUMMARY_COLUMNS, "status"))]
    summary = []
    for v, r in zip(values, results):
        cells = ([""] * len(_SUMMARY_COLUMNS) if "error" in r
                 else [_text(r[c]) for c in _SUMMARY_COLUMNS])
        rows.append(",".join((param, _text(v), *cells, _csv_cell(r.get("error", "ok")))))
        summary.append({"param": param, "value": v, **r})
    _write_file(Path(out_dir) / "sweep_summary.csv", ["\n".join(rows) + "\n"])
    return summary


def _parse_sweep_values(cfg: RunConfig, param: str, text: str) -> list[float]:
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "theta_c":
            if param != "theta":
                raise ConfigError("values", f"theta_c is a value of theta, not of {param}")
            # theta_c depends on the steady state only, not on k_u or the spectrum
            values.append(stability.instability_range(cfg.theta,
                                                      _steady_state(cfg).jac).theta_c)
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
    rules = {"k_u": "theta*k_v", "dt": "min(1e-2, eps/4)"}  # the None defaults
    keys = [f"{f.name}={rules[f.name] if f.default is None else f.default}"
            for f in fields(RunConfig)]
    p = argparse.ArgumentParser(
        prog="membrane-rd",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="config keys and defaults:\n  " + ",\n  ".join(
            ", ".join(keys[i:i + 5]) for i in range(0, len(keys), 5)),
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
                    help="comma-separated values; 'theta_c' is accepted with "
                         "--param theta")
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
            values = _parse_sweep_values(cfg, args.param, args.values)
            summary = cmd_sweep(cfg, args.param, values, args.out)
            failed = [s for s in summary if "error" in s]
            for s in failed:
                print(f"sweep {args.param}={s['value']:g} failed: {s['error']}",
                      file=sys.stderr)
        return 0
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
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
