"""Regenerate tests/data/goldens.json.

Runs the three reference pattern regimes to T = 1000 (no steady-state early
exit) at dx = 1/200 and dx = 1/400, records summary metrics plus decimated
final profiles, and checks that halving dx moves the profiles by O(dx)
before freezing anything.  Run from the repository root:

    python scripts/make_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from membrane_rd import ModelParams, build_grid, initial_data, run_batch, steady_state
from membrane_rd.fdm import side_variation, sign_changes

THETA_C = 0.3101693089477196
CASES = {
    "theta_c": dict(theta=THETA_C, k_v=1.0),
    "theta_7.8e-2": dict(theta=7.8e-2, k_v=1.0),
    "theta_3e-4": dict(theta=3e-4, k_v=1.0),
}
T_FINAL = 1000.0
STRIDE = 4


def run_cases(dx):
    """The three cases at one dx, stepped as one batch (each bitwise its own run)."""
    params = [ModelParams(dx=dx, **kw) for kw in CASES.values()]
    initials = [initial_data(p, build_grid(p)) for p in params]
    results = run_batch(params, initials, T_FINAL, steady_stop=False)
    for res in results:
        if isinstance(res, Exception):
            raise res
    return [summarize(res, dx) for res in results]


def summarize(res, dx):
    grid = res.grid
    ss = steady_state(0.8)
    U, V = res.u, res.v
    var_l, var_r = side_variation(U, grid)
    sc_l, sc_r = sign_changes(U, ss.u_bar, grid)
    return grid, res, {
        "dx": dx,
        "t_final": res.t_final,
        "converged": res.converged,
        "jump_u": res.jump[0],
        "jump_v": res.jump[1],
        "supvar_u_l": var_l,
        "supvar_u_r": var_r,
        "crossings_l": sc_l,
        "crossings_r": sc_r,
        "supdist_u": float(np.max(np.abs(U - ss.u_bar))),
        "supdist_v": float(np.max(np.abs(V - ss.v_bar))),
        "mass_drift": res.mass_drift,
    }


def decimate(grid, values, stride=STRIDE):
    return {
        "stride": stride,
        "left": values[grid.left][::stride].tolist(),
        "right": values[grid.right][::stride].tolist(),
    }


def refinement_gap(grid_c, u_c, grid_f, u_f):
    on_f = np.concatenate([
        np.interp(grid_f.centers[side_f], grid_c.centers[side_c], u_c[side_c])
        for side_c, side_f in ((grid_c.left, grid_f.left),
                               (grid_c.right, grid_f.right))
    ])
    return float(np.max(np.abs(on_f - u_f)))


def main():
    out = {"T": T_FINAL, "cases": {}}
    coarse, fine = run_cases(1.0 / 200.0), run_cases(1.0 / 400.0)
    for (label, kw), (grid_c, res_c, sum_c), (grid_f, res_f, sum_f) in zip(
            CASES.items(), coarse, fine):
        gap = refinement_gap(grid_c, res_c.u, grid_f, res_f.u)
        print(f"{label}: dx=1/200 jump_u={sum_c['jump_u']:.4g} "
              f"var=({sum_c['supvar_u_l']:.3g},{sum_c['supvar_u_r']:.3g}) "
              f"crossings=({sum_c['crossings_l']},{sum_c['crossings_r']}); "
              f"refinement gap {gap:.3g}")
        # first-order membrane rows: halving dx should move profiles by O(dx)
        limit = 60.0 * (1.0 / 200.0)
        if gap > limit:
            raise SystemExit(
                f"{label}: refinement gap {gap} exceeds {limit}; not freezing"
            )
        out["cases"][label] = {
            "params": kw,
            "coarse": {**sum_c,
                       "u": decimate(grid_c, res_c.u),
                       "v": decimate(grid_c, res_c.v)},
            "fine": {**sum_f,
                     "u": decimate(grid_f, res_f.u, 2 * STRIDE),
                     "v": decimate(grid_f, res_f.v, 2 * STRIDE)},
            "refinement_gap_u": gap,
        }
    path = Path(__file__).resolve().parents[1] / "tests" / "data" / "goldens.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1), encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
