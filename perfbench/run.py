"""Benchmark of the membrane-rd command line, one workload per run.

    python3 perfbench/run.py --workload simulate-reference --seed 1 --seconds 28 --trace 0

Run from a checkout: the program is imported from its `src/`.  A run
makes the workload's prelude calls, if it has any, and one warm-up round,
both untimed; then it repeats whole rounds of the workload's CLI calls, in
this process, until `--seconds` have passed, and checks every round's files
against the independent computations in `checks.py`.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics`, the end-to-end metrics with `--trace 0` and the per-layer ones
with `--trace 1`.

Round directories are kept and overwritten by the next run, never deleted:
deleting some 10^4 files makes the file creations that follow slower for
a while, which would fall into the next run.  A file older than the start of
the run was not written by it and fails the check.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import layers
import workloads

STARTED = time.time()  # files older than this were not written by this run
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7

# a fresh interpreter imports the CLI and resolves the workload's config,
# reading it as `cli.main` does
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import membrane_rd.cli as cli
with open(sys.argv[2], encoding="utf-8") as f:
    cli.parse_config(f.read())
print(time.perf_counter() - t0)
"""


class Round(NamedTuple):
    out: Path
    timed: bool
    traced: bool
    wall_s: float
    exit_codes: list


def import_program() -> dict:
    """The checkout's own membrane_rd; never an installed copy."""
    package = SRC / "membrane_rd"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: {package} is missing; run from a membrane-rd checkout")
    sys.path.insert(0, str(SRC))
    from membrane_rd import cli, fdm, spectrum, stability
    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported {cli.__file__}, not the checkout's package")
    return {"cli": cli, "fdm": fdm, "spectrum": spectrum, "stability": stability}


def run_round(main, calls: list, out: Path, tracer: layers.Tracer | None) -> tuple:
    """(wall seconds, exit codes) of one pass over `calls`, writing under `out`."""
    argvs = [args + ["--out", str(out / rel)] for args, rel in calls]
    if tracer is not None:
        with tracer.installed():
            t0 = time.perf_counter()
            codes = [tracer.command(main, argv) for argv in argvs]
            return time.perf_counter() - t0, codes
    t0 = time.perf_counter()
    codes = [main(argv) for argv in argvs]
    return time.perf_counter() - t0, codes


def run_rounds(plan: workloads.Plan, modules: dict, seconds: float,
               tracer: layers.Tracer | None) -> list[Round]:
    """An untimed warm-up round, then whole rounds until `seconds` have
    passed; with a tracer, every other timed round is traced, so both kinds
    run under the same conditions."""
    main = modules["cli"].main
    out = WORK / plan.name / "warmup"
    rounds = [Round(out, False, False, *run_round(main, plan.calls, out, None))]
    start = time.perf_counter()
    while True:
        k = len(rounds) - 1
        traced = tracer is not None and k % 2 == 1
        out = WORK / plan.name / f"round_{k:03d}"
        rounds.append(Round(out, True, traced,
                            *run_round(main, plan.calls, out, tracer if traced else None)))
        if time.perf_counter() - start >= seconds and (tracer is None or k >= 1):
            return rounds


def check_round(r: Round, check) -> tuple[int, list[str]]:
    """Failed operations and error messages of one round; `check` gives the
    (failed, errors) of its directory."""
    import checks
    errors = [f"exit codes {sorted(set(r.exit_codes))}"] if any(r.exit_codes) else []
    try:
        failed, errs = check(r.out)
        errs += checks.check_fresh(r.out, STARTED)
    except (OSError, LookupError, ValueError, ArithmeticError) as exc:
        failed, errs = 0, [f"output missing or unreadable: {exc!r}"]
    return failed, [f"{r.out.name}: {e}" for e in errors + errs]


def setup_seconds(config: Path) -> list[float]:
    """Fresh-interpreter times to import the CLI and resolve `config`."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(config)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def files_and_bytes(out: Path) -> tuple[int, int]:
    files = [p for p in out.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    modules = import_program()
    plan = workloads.make_plan(args.workload, args.seed, WORK / args.workload / "inputs")
    tracer = layers.Tracer(modules) if args.trace else None

    checked = []  # (round, check) pairs
    if plan.prelude:
        out = WORK / plan.name / "prelude"
        prelude = Round(out, False, False, *run_round(modules["cli"].main, plan.prelude, out, None))
        checked.append((prelude, plan.check_prelude))
    rounds = run_rounds(plan, modules, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, errors = 0, []
    for r, check in checked + [(r, plan.check) for r in rounds]:
        f, errs = check_round(r, check)
        failed += f
        errors += errs
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    timed = [r for r in rounds if r.timed]
    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(r.wall_s for r in timed), "s"),
            "setup_s": (statistics.median(setup_seconds(plan.config)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        traced = [r for r in timed if r.traced]
        plain = [r for r in timed if not r.traced]
        metrics = tracer.metrics(len(traced))
        written = [files_and_bytes(r.out) for r in traced]
        metrics["cli.files_written"] = (statistics.mean(w[0] for w in written), "count")
        metrics["cli.bytes_written"] = (statistics.mean(w[1] for w in written), "B")
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                       - statistics.median(r.wall_s for r in plain), "s")
    print(json.dumps({
        "correct": not errors,
        "attempted": plan.ops * len(rounds) + len(plan.prelude),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
