"""Per-layer timing: wrap the program's public names where the calling layer looks them up.

`fdm.run` steps with the `step`, `assemble` and `reaction` it finds in its
own module, and `cli` calls `fdm.run`, `spectrum.*`, `stability.*` and its
own `analyze`, `parse_config` and `initial_data`; replacing those module
attributes times every call without touching the program.  A name a later
change removes is skipped, and its metrics are left out of the report.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# (module, attribute looked up by the caller, layer name in the report)
TARGETS = (
    ("fdm", "run", "fdm.run"),
    ("fdm", "step", "fdm.step"),
    ("fdm", "assemble", "fdm.assemble"),
    ("fdm", "reaction", "model.reaction"),
    ("cli", "initial_data", "model.initial_data"),
    ("spectrum", "eigenvalues", "spectrum.eigenvalues"),
    ("spectrum", "count_unstable", "spectrum.count_unstable"),
    ("stability", "instability_range", "stability.instability_range"),
    ("stability", "dispersion", "stability.dispersion"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "analyze", "cli.analyze"),
)
# called by a command but not numerical work: stays in cli.output.s
_NOT_NUMERICAL = {"cli.parse_config"}


class Tracer:
    """Call counts and inclusive seconds per layer, plus per-result counters."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.calls = {}
        self.seconds = {}
        self.counts = {"fdm.steps": 0, "fdm.converged_runs": 0, "spectrum.modes": 0}
        self.depth = 0            # 1 inside a command, more inside a wrapped call
        self.command_s = 0.0      # time inside cli.main
        self.numerical_s = 0.0    # time in numerical calls made by cli.main itself

    @contextmanager
    def installed(self):
        saved = []
        for mod_name, attr, layer in TARGETS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr, None)
            if callable(fn):
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, layer))
                self.calls.setdefault(layer, 0)
                self.seconds.setdefault(layer, 0.0)
        try:
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def _wrap(self, fn, layer: str):
        clock = time.perf_counter
        calls, seconds, counts = self.calls, self.seconds, self.counts
        numerical = layer not in _NOT_NUMERICAL

        def traced(*args, **kwargs):
            self.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.depth -= 1
                calls[layer] += 1
                seconds[layer] += dt
                if numerical and self.depth == 1:
                    self.numerical_s += dt
            if layer == "fdm.run":
                counts["fdm.steps"] += getattr(out, "n_steps", 0)
                counts["fdm.converged_runs"] += int(getattr(out, "converged", False))
            elif layer == "spectrum.eigenvalues":
                counts["spectrum.modes"] += len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def command(self, main, argv):
        """Run one CLI command, timed as the root of its call tree."""
        self.depth = 1
        t0 = time.perf_counter()
        try:
            return main(argv)
        finally:
            self.command_s += time.perf_counter() - t0
            self.depth = 0

    def metrics(self, rounds: int) -> dict:
        """Per-round values of every layer still present; means are per call."""
        have = self.calls.keys()
        c, s, n = self.calls, self.seconds, self.counts

        def mean_us(layer):
            return 1e6 * s[layer] / c[layer] if c[layer] else 0.0

        out = {}
        if "fdm.run" in have:
            steps = n["fdm.steps"]
            out["fdm.run.s"] = (s["fdm.run"] / rounds, "s")
            out["fdm.run.calls"] = (c["fdm.run"] / rounds, "count")
            out["fdm.steps"] = (steps / rounds, "count")
            out["fdm.converged_runs"] = (n["fdm.converged_runs"] / rounds, "count")
            out["fdm.us_per_step"] = (1e6 * s["fdm.run"] / steps if steps else 0.0, "us")
            if "fdm.step" in have and "fdm.assemble" in have:
                loop = s["fdm.run"] - s["fdm.step"] - s["fdm.assemble"]
                out["fdm.loop.us_per_step"] = (1e6 * loop / steps if steps else 0.0, "us")
        if "fdm.step" in have:
            out["fdm.step.us"] = (mean_us("fdm.step"), "us")
        if "fdm.assemble" in have:
            out["fdm.assemble.us"] = (mean_us("fdm.assemble"), "us")
            out["fdm.assemble.calls"] = (c["fdm.assemble"] / rounds, "count")
        if "model.reaction" in have:
            out["model.reaction.us"] = (mean_us("model.reaction"), "us")
            out["model.reaction.calls"] = (c["model.reaction"] / rounds, "count")
        if "model.initial_data" in have:
            out["model.initial_data.us"] = (mean_us("model.initial_data"), "us")
        if "spectrum.eigenvalues" in have:
            out["spectrum.eigenvalues.us"] = (mean_us("spectrum.eigenvalues"), "us")
            out["spectrum.eigenvalues.calls"] = (c["spectrum.eigenvalues"] / rounds, "count")
            out["spectrum.modes"] = (n["spectrum.modes"] / rounds, "count")
        if "spectrum.count_unstable" in have:
            out["spectrum.count_unstable.us"] = (mean_us("spectrum.count_unstable"), "us")
        if "stability.instability_range" in have:
            out["stability.instability_range.us"] = (mean_us("stability.instability_range"), "us")
        if "stability.dispersion" in have:
            out["stability.dispersion.calls"] = (c["stability.dispersion"] / rounds, "count")
        if "cli.parse_config" in have:
            out["cli.parse_config.us"] = (mean_us("cli.parse_config"), "us")
        if "cli.analyze" in have:
            out["cli.analyze.us"] = (mean_us("cli.analyze"), "us")
            out["cli.analyze.calls"] = (c["cli.analyze"] / rounds, "count")
        out["cli.output.s"] = ((self.command_s - self.numerical_s) / rounds, "s")
        return out
