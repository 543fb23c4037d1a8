"""The written reports, token for token, against copies frozen in tests/data/reports.

Every non-numeric token must match exactly.  Numbers match to a relative
1e-12, the residual columns to an absolute 1e-12, as a residual is
rounding noise.  This pins the format that readers of `analysis.txt`,
`report.txt`, `spectrum.csv` and `sweep_summary.csv` parse.
"""

import math
import re
from pathlib import Path

import pytest

from membrane_rd.cli import main

REPORTS = Path(__file__).parent / "data" / "reports"

# frozen file -> (config text, command line after --config, written file)
CASES = {
    "analysis_reference.txt": ("", ["analyze"], "analysis.txt"),
    "analysis_theta_3e-4.txt": ("theta = 3e-4\n", ["analyze"], "analysis.txt"),
    "analysis_k_v_0.txt": ("k_v = 0\n", ["analyze"], "analysis.txt"),
    "analysis_k_v_1e8.txt": ("k_v = 1e8\n", ["analyze"], "analysis.txt"),
    "analysis_theta_c.txt": ("theta = 0.3101693089477196\n", ["analyze"],
                             "analysis.txt"),
    "analysis_theta_0.5.txt": ("theta = 0.5\n", ["analyze"], "analysis.txt"),
    "analysis_x_m_0.3.txt": ("x_m = 0.3\n", ["analyze"], "analysis.txt"),
    "analysis_D_vr_0.1.txt": ("D_vr = 0.1\n", ["analyze"], "analysis.txt"),
    "spectrum_k_v_3_x_m_0.3.csv": ("k_v = 3\nx_m = 0.3\n",
                                   ["spectrum", "--n-max", "50"], "spectrum.csv"),
    "report_theta_0.2.txt": ("dx = 0.025\nT = 5\ntheta = 0.2\n", ["simulate"],
                             "report.txt"),
    # theta = -1 fails its config, which leaves an error row
    "sweep_summary_theta.csv": ("T = 5\n", ["sweep", "--param", "theta", "--values",
                                            "theta_c,0.2,-1,0.01"],
                                "sweep_summary.csv"),
    # analyze refuses each decoupled child; the quoted status holds commas
    "sweep_summary_decoupled.csv": ("dx = 0.025\nT = 2\nk_u = 0.05\n",
                                    ["sweep", "--param", "theta", "--values",
                                     "0.2,theta_c"], "sweep_summary.csv"),
}

# index of the residual among a line's space- or comma-separated fields
_RESIDUAL = {"analysis.txt": 4, "spectrum.csv": 4}


def _number(token: str):
    try:
        return float(token)
    except ValueError:
        return None


def _mismatches(name: str, got: str, want: str) -> list[str]:
    got, want = got.splitlines(), want.splitlines()
    if len(got) != len(want):
        return [f"{len(got)} lines vs {len(want)}"]
    bad = []
    for i, (g_line, w_line) in enumerate(zip(got, want), start=1):
        g_tok, w_tok = re.split("[ ,]", g_line), re.split("[ ,]", w_line)
        if len(g_tok) != len(w_tok):
            bad.append(f"line {i}: {g_line!r} vs {w_line!r}")
            continue
        for j, (g, w) in enumerate(zip(g_tok, w_tok)):
            a, b = _number(g), _number(w)
            if a is None or b is None:
                same = g == w
            elif j == _RESIDUAL.get(name):
                same = abs(a - b) <= 1e-12
            else:
                same = math.isclose(a, b, rel_tol=1e-12) or a == b or (
                    math.isnan(a) and math.isnan(b))
            if not same:
                bad.append(f"line {i}, field {j}: {g!r} vs {w!r}")
    return bad


@pytest.mark.parametrize("frozen", sorted(CASES))
def test_report_matches_frozen_copy(tmp_path, frozen):
    text, command, written = CASES[frozen]
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(text)
    out = tmp_path / "out"
    assert main([command[0], "--config", str(cfgf), *command[1:],
                 "--out", str(out)]) == 0
    got = (out / written).read_text(encoding="utf-8")
    want = (REPORTS / frozen).read_text(encoding="utf-8")
    assert _mismatches(written, got, want) == []
