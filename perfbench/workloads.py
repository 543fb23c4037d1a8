"""The workloads: their inputs, made from the seed, and the CLI calls of one round.

A round runs the same calls on the same inputs, so every round of a run
attempts the same operations.  Rounds are short (about 0.5 to 1.5 s), so
that a run holds tens of them and their median steps over the minutes-long
swings in the speed of a shared machine.  Each plan also knows how to check
one round's output directory; the checks import scipy.optimize, so they are
loaded only after the timed rounds and the memory reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Fig. 3 reference: theta = 7.8e-2, k_v = 1, dx = 1/200, T = 1000 (1e5 steps of dt = 1e-2)
REFERENCE = {"theta": 0.078, "k_v": 1.0, "dx": 0.005, "dt": 0.01, "T": 1000.0}
# a timed round integrates the reference to T/16 (6 250 steps); the whole
# reference runs once per run, untimed, for the check of its final pattern
ROUND_T = REFERENCE["T"] / 16

# the 13 files of `simulate --svg`: 8 snapshots (t = 0 and T/64 ... T) and the rest
SIMULATE_FILES = ([f"snapshot_{i:03d}.csv" for i in range(8)]
                  + ["snapshots.csv", "final.csv", "report.txt", "final_u.svg", "final_v.svg"])

# theta_c, 0.2 and 0.01 stop on the steady test after 2 512, 4 130 and
# 4 897 steps; 0.078 does not converge and runs the whole horizon of
# T = 60 (6 000 steps)
SWEEP_VALUES = "theta_c,0.2,0.078,0.01"
SWEEP_T = 60.0

# (theta, k_v) map: sealed and transparent limits and four permeabilities
# between them, theta from 1e-5 to above theta_c (about 0.31)
MAP_K_VALUES = (0.0, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1e8)
MAP_THETA_RANGE = (1e-5, 0.5)
MAP_THETAS_PER_K = 40
# a row of off-centre membranes, independent of the seed; these points fail
# while spectrum.eigenvalues ignores x_m
OFF_CENTRE = {"x_m": 0.3, "k_v": 1.0, "points": 8}
SPECTRUM_N_MAX = 1000


@dataclass
class Plan:
    name: str
    config: Path                # the config a fresh process resolves for setup_s
    calls: list                 # (argv without --out, output path in the round directory)
    ops: int                    # operations attempted per round
    check: Callable[[Path], tuple[int, list[str]]]  # (failed ops, errors) of one round
    # calls made once per run before the rounds, untimed, with their own check
    prelude: list = field(default_factory=list)
    check_prelude: Callable[[Path], tuple[int, list[str]]] | None = None


def _write_config(path: Path, **keys) -> Path:
    text = "".join(f"{k} = {v if isinstance(v, str) else repr(v)}\n" for k, v in keys.items())
    path.write_text(text, encoding="utf-8")
    return path


def _simulate(seed: int, inputs: Path) -> Plan:
    ref = REFERENCE
    cfg = _write_config(inputs / "round.cfg", theta=ref["theta"], k_v=ref["k_v"],
                        dx=ref["dx"], T=ROUND_T, preset="paper-fig3")
    whole = _write_config(inputs / "reference.cfg", theta=ref["theta"], k_v=ref["k_v"],
                          dx=ref["dx"], T=ref["T"], preset="paper-fig3")

    def files_and_scheme(out: Path) -> list[str]:
        import checks
        errs = [f"simulate wrote no {name}" for name in SIMULATE_FILES
                if not (out / name).is_file()]
        return errs or checks.check_simulation(out, ref["dx"]) + checks.check_scheme(out, ref)

    def check(round_dir: Path):
        return 0, files_and_scheme(round_dir / "simulate")

    def check_reference(prelude_dir: Path):
        import checks
        out = prelude_dir / "simulate"
        return 0, files_and_scheme(out) or checks.check_single_mode(out, ref["k_v"])

    argv = ["simulate", "--config", str(cfg), "--svg"]
    return Plan("simulate-reference", cfg, [(argv, "simulate")], 1, check,
                [(["simulate", "--config", str(whole), "--svg"], "simulate")],
                check_reference)


def _sweep(seed: int, inputs: Path) -> Plan:
    cfg = _write_config(inputs / "sweep.cfg", T=SWEEP_T)
    tokens = SWEEP_VALUES.split(",")

    def check(round_dir: Path):
        import checks
        theta_c = checks.stability_numbers(1.0, checks.jacobian(checks.steady_u(0.8)))[0]
        expected = [theta_c if t == "theta_c" else float(t) for t in tokens]
        return 0, checks.check_sweep(round_dir / "sweep", expected, 1.0, REFERENCE["dx"])

    argv = ["sweep", "--config", str(cfg), "--param", "theta", "--values", SWEEP_VALUES]
    return Plan("sweep-theta", cfg, [(argv, "sweep")], len(tokens), check)


def _log_strata(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One log-uniform draw in each of n equal strata of [lo, hi]: every seed
    covers the whole range, so the work per round hardly depends on it."""
    a, b = math.log10(lo), math.log10(hi)
    return 10.0 ** (a + (np.arange(n) + rng.random(n)) * (b - a) / n)


def _analyze_map(seed: int, inputs: Path) -> Plan:
    rng = np.random.default_rng(seed)
    points = []   # (theta, k_v, x_m)
    for k_v in MAP_K_VALUES:
        points += [(float(t), k_v, 0.5)
                   for t in _log_strata(rng, *MAP_THETA_RANGE, MAP_THETAS_PER_K)]
    lo, hi = (math.log10(t) for t in MAP_THETA_RANGE)
    points += [(float(t), OFF_CENTRE["k_v"], OFF_CENTRE["x_m"])
               for t in 10.0 ** np.linspace(lo, hi, OFF_CENTRE["points"])]
    calls = []
    for i, (theta, k_v, x_m) in enumerate(points):
        cfg = _write_config(inputs / f"point_{i:04d}.cfg", theta=theta, k_v=k_v, x_m=x_m)
        calls.append((["analyze", "--config", str(cfg)], f"point_{i:04d}"))
    for j, k_v in enumerate(MAP_K_VALUES):
        cfg = _write_config(inputs / f"spectrum_{j}.cfg", k_v=k_v)
        calls.append((["spectrum", "--config", str(cfg), "--n-max", str(SPECTRUM_N_MAX)],
                      f"spectrum_{j}"))

    spectra = None  # roots per (k_v, x_m), solved once for all rounds

    def check(round_dir: Path):
        nonlocal spectra
        import checks
        spectra = spectra or checks.SpectrumRef()
        failed, errs = 0, []
        for i, (theta, k_v, x_m) in enumerate(points):
            found, midpoint_fault = checks.check_analysis(
                round_dir / f"point_{i:04d}" / "analysis.txt", theta, k_v, x_m, spectra)
            if midpoint_fault:
                failed += 1
            else:
                errs += [f"point_{i:04d} (theta={theta!r}, k_v={k_v!r}, x_m={x_m!r}): {e}"
                         for e in found]
        theta = 0.078  # the spectrum configs leave theta at its default
        for j, k_v in enumerate(MAP_K_VALUES):
            errs += checks.check_spectrum(round_dir / f"spectrum_{j}" / "spectrum.csv",
                                          theta, k_v, SPECTRUM_N_MAX, spectra)
        return failed, errs

    return Plan("analyze-map", inputs / "point_0000.cfg", calls, len(calls), check)


_PLANS = {"simulate-reference": _simulate, "sweep-theta": _sweep, "analyze-map": _analyze_map}
NAMES = tuple(_PLANS)


def make_plan(name: str, seed: int, inputs: Path) -> Plan:
    inputs.mkdir(parents=True, exist_ok=True)
    return _PLANS[name](seed, inputs)
