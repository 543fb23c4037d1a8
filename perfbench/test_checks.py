"""Each check passes on the program's own output and fails on a corrupted copy.

    python3 -m unittest discover -s perfbench -p "test_*.py"

The outputs come from short runs of the CLI (a few hundred steps), written
under the checkout's `.perfbench_out/tests`.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
import unittest
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from membrane_rd import cli  # noqa: E402

DX = 0.005


def _config(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _replace_value(path: Path, row: int, column: int, delta: float):
    """Add delta to one field of a CSV file (row 0 is the first data row)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[row + 1].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class OutputChecks(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        base = ROOT / ".perfbench_out" / "tests"
        base.mkdir(parents=True, exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=base)
        cls.tmp = Path(cls._tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def _simulate(self, name: str) -> Path:
        cfg = _config(self.tmp / f"{name}.cfg", "theta = 0.078\nT = 2.0\n")
        out = self.tmp / name
        self.assertEqual(cli.main(["simulate", "--config", cfg, "--out", str(out)]), 0)
        return out

    def _analyze(self, name: str, text: str) -> Path:
        cfg = _config(self.tmp / f"{name}.cfg", text)
        out = self.tmp / name
        self.assertEqual(cli.main(["analyze", "--config", cfg, "--out", str(out)]), 0)
        return out / "analysis.txt"

    def test_shifted_eigenvalue_fails_the_root_check(self):
        path = self._analyze("roots", "theta = 1e-3\nk_v = 1.0\n")
        ref = checks.SpectrumRef()
        self.assertEqual(checks.check_analysis(path, 1e-3, 1.0, 0.5, ref), ([], False))
        text = path.read_text(encoding="utf-8")
        line = next(s for s in text.splitlines() if s.startswith("mode[2] = "))
        eta, *rest = line.split(" = ")[1].split()
        shifted = f"mode[2] = {float(eta) * (1 + 1e-6)!r} " + " ".join(rest)
        path.write_text(text.replace(line, shifted), encoding="utf-8")
        errs, fault = checks.check_analysis(path, 1e-3, 1.0, 0.5, ref)
        self.assertFalse(fault)
        self.assertTrue(any(e.startswith("eta_2 = ") for e in errs), errs)

    def test_off_centre_membrane_shows_the_midpoint_fault(self):
        path = self._analyze("offcentre", "theta = 1e-3\nk_v = 1.0\nx_m = 0.3\n")
        errs, fault = checks.check_analysis(path, 1e-3, 1.0, 0.3, checks.SpectrumRef())
        self.assertTrue(errs)
        self.assertTrue(fault, errs)

    def test_mass_leak_fails_the_mass_check(self):
        out = self._simulate("leak")
        self.assertEqual(checks.check_simulation(out, DX), [])
        _replace_value(out / "snapshot_003.csv", 40, 2, 1e-6)
        errs = checks.check_simulation(out, DX)
        self.assertTrue(any("mass drift" in e for e in errs), errs)

    def test_perturbed_final_profile_fails_the_round_trip(self):
        out = self._simulate("final")
        self.assertEqual(checks.check_scheme(out, {"theta": 0.078, "k_v": 1.0,
                                                   "dx": DX, "dt": 0.01}), [])
        _replace_value(out / "final.csv", 99, 2, 1e-9)  # the left membrane trace
        errs = checks.check_simulation(out, DX)
        self.assertTrue(any("final.csv differs" in e for e in errs), errs)
        self.assertTrue(any("jump_u" in e for e in errs), errs)

    def test_perturbed_snapshot_fails_the_scheme_check(self):
        out = self._simulate("scheme")
        cfg = {"theta": 0.078, "k_v": 1.0, "dx": DX, "dt": 0.01}
        _replace_value(out / "snapshot_001.csv", 10, 3, 1e-8)
        self.assertTrue(checks.check_scheme(out, cfg))

    def test_overwritten_child_directory_fails_the_sweep_check(self):
        cfg = _config(self.tmp / "sweep.cfg", "T = 2.0\n")
        ok, clash = self.tmp / "sweep_ok", self.tmp / "sweep_clash"
        for out, values in ((ok, [0.0123, 0.0124]), (clash, [0.01234561, 0.01234564])):
            argv = ["sweep", "--config", cfg, "--param", "theta",
                    "--values", ",".join(map(repr, values)), "--out", str(out)]
            self.assertEqual(cli.main(argv), 0)
            errs = checks.check_sweep(out, values, 1.0, DX)
            if out is ok:
                self.assertEqual(errs, [])
        # both children write theta_0.0123456: the first run is lost
        self.assertTrue(any("overwritten" in e for e in errs), errs)
        self.assertTrue(any("child directories" in e for e in errs), errs)

    def test_file_left_by_an_earlier_run_fails_the_freshness_check(self):
        out = self._simulate("fresh")
        self.assertEqual(checks.check_fresh(out, time.time() - 60.0), [])
        os.utime(out / "report.txt", (0.0, time.time() - 120.0))
        errs = checks.check_fresh(out, time.time() - 60.0)
        self.assertTrue(any("report.txt" in e for e in errs), errs)

    def test_converged_member_off_its_steady_state_fails(self):
        out = self.tmp / "steady"
        cfg = _config(self.tmp / "steady.cfg", "T = 100.0\n")
        argv = ["sweep", "--config", cfg, "--param", "theta", "--values", "0.2",
                "--out", str(out)]
        self.assertEqual(cli.main(argv), 0)
        self.assertEqual(checks.check_sweep(out, [0.2], 1.0, DX), [])
        child = out / "theta_0.2"
        _replace_value(child / "final.csv", 50, 2, 1e-6)
        errs = checks.check_sweep(out, [0.2], 1.0, DX)
        self.assertTrue(any("stationary residual" in e for e in errs), errs)


if __name__ == "__main__":
    unittest.main()
