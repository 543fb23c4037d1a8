import importlib
import importlib.util
import subprocess
import sys
import textwrap
import time
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import membrane_rd
from membrane_rd import spectrum, stability
from membrane_rd.cli import (
    ConfigError,
    RunConfig,
    cmd_analyze,
    cmd_simulate,
    cmd_spectrum,
    cmd_sweep,
    load_config,
    main,
    parse_config,
    serialize_config,
)
from membrane_rd.model import MAX_CELLS

FAST = "dx = 0.025\nT = 20\n"  # coarse grid keeps command tests quick


# ------------------------------------------------------------------- parsing

def test_empty_config_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg.L == 1.0 and cfg.x_m == 0.5
    assert cfg.dx == pytest.approx(1.0 / 200.0)
    assert cfg.D_vl == cfg.D_vr == 1.0 and cfg.nu_D == 1.0
    assert cfg.eps == 1.0 and cfg.alpha == 1.0 and cfg.Theta_scheme == 1.0
    assert cfg.preset == "paper-fig3"
    assert cfg.N_l == cfg.N_r == 99
    assert cfg.k_u == pytest.approx(cfg.theta * cfg.k_v)
    assert cfg.dt == pytest.approx(1e-2)


def test_parse_case3_configuration():
    cfg = parse_config("theta = 3e-4\n")
    assert cfg.theta == pytest.approx(3e-4)
    assert cfg.k_v == 1.0
    assert cfg.k_u == pytest.approx(3e-4)


def test_parse_comments_and_whitespace():
    cfg = parse_config("# full line\n  theta = 0.01  # trailing\n\nT=5\n")
    assert cfg.theta == 0.01 and cfg.T == 5.0


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="theta"):
        parse_config("theta = -1\n")
    with pytest.raises(ConfigError, match="theta"):
        parse_config("theta = abc\n")
    with pytest.raises(ConfigError, match="wibble"):
        parse_config("wibble = 3\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("theta = 0.1\ntheta = 0.2\n")
    with pytest.raises(ConfigError, match="nu_D: unknown key"):
        parse_config("nu_D = 2\n")  # derived from D_vr/D_vl, not a key
    with pytest.raises(ConfigError, match="N_l"):
        parse_config("N_l = 49\n")
    with pytest.raises(ConfigError, match="T"):
        parse_config("T = 0\n")
    for key in ("D_vl", "D_vr"):
        with pytest.raises(ConfigError, match=f"^{key}: ") as exc:
            parse_config(f"{key} = -1\n")
        assert exc.value.key == key
    with pytest.raises(ConfigError, match="^preset: unknown preset 'nope'"):
        parse_config("preset = nope\n")


@pytest.mark.parametrize("preset, line", [
    ("paper-fig3", "mass = 0.5"),
    ("paper-fig3", "noise_amplitude = 0.1"),
    ("paper-fig3", "seed = 3"),
    ("paper-fig3", "preset_mode = 2"),
    ("paper-fig3", "preset_amplitude = 0.01"),
    ("eigenmode-perturbation", "noise_amplitude = 0.1"),
    ("eigenmode-perturbation", "seed = 3"),
    ("constant-plus-noise", "preset_mode = 2"),
    ("constant-plus-noise", "preset_amplitude = 0.01"),
])
def test_parse_rejects_keys_the_preset_ignores(tmp_path, capsys, preset, line):
    key = line.split()[0]
    text = f"preset = {preset}\n{line}\n"
    with pytest.raises(ConfigError, match=f"^{key}: preset {preset} ignores it") as exc:
        parse_config(text)
    assert exc.value.key == key
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("dx = 0.025\n" + text)
    assert main(["analyze", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("line", ["N_l = 99", "N_r = 99", "command = simulate",
                                  "out_dir = x"])
def test_parse_refuses_derived_counts_and_command(line):
    # N_l and N_r follow from dx, and the command and the output directory
    # come from the command line
    key = line.split()[0]
    with pytest.raises(ConfigError, match=f"^{key}: unknown key"):
        parse_config(line + "\n")


@pytest.mark.parametrize("mode", ["0", "200000"])
def test_main_names_preset_mode_out_of_range(tmp_path, capsys, mode):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"dx = 0.025\npreset = eigenmode-perturbation\npreset_mode = {mode}\n")
    assert main(["analyze", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: preset_mode: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("line", ["mass = -1", "seed = -1"])
def test_main_names_a_bad_mass_or_seed(tmp_path, capsys, line):
    key = line.split()[0]
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"dx = 0.025\npreset = constant-plus-noise\n{line}\n")
    assert main(["analyze", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("dx", [1e-310, 1.0 / (MAX_CELLS + 2)])
def test_main_refuses_more_cells_than_the_bound(tmp_path, capsys, dx):
    # L/dx is inf for the subnormal step; the other tiles both halves of the
    # unit domain in two cells more than the bound
    if dx > 1e-300:
        n = round(0.5 / dx)
        assert 2 * n == MAX_CELLS + 2 and abs(0.5 / n - dx) <= 1e-12 * dx
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"dx = {dx!r}\n")
    t0 = time.perf_counter()
    assert main(["analyze", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err.startswith("config error: dx: ")
    assert not (tmp_path / "o").exists()


def test_every_config_is_validated_when_built():
    # a config made directly or by replace is checked like a parsed one
    with pytest.raises(ConfigError, match="theta") as exc:
        RunConfig(theta=-1)
    assert exc.value.key == "theta"
    with pytest.raises(ConfigError, match="T") as exc:
        replace(parse_config(""), T=0)
    assert exc.value.key == "T"


@pytest.mark.parametrize("cmd, line", [
    ("analyze", "theta = nan"),
    ("analyze", "k_v = nan"),
    ("analyze", "D_vr = inf"),
    ("simulate", "T = inf"),
    ("simulate", "L = inf"),
    ("simulate", "dt = nan"),
    ("simulate", "T = nan"),
    ("simulate", "mass = -inf"),
])
def test_main_rejects_non_finite_numbers(tmp_path, capsys, cmd, line):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("dx = 0.025\n" + line + "\n")
    key = line.split()[0]
    assert main([cmd, "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {key}: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_parse_accepts_two_diffusivity_domains(tmp_path):
    cfg = parse_config("D_vl = 0.1\nD_vr = 0.01\n")
    assert cfg.nu_D == pytest.approx(0.1)
    # the spectrum of a two-diffusivity domain is solved, not refused
    assert cmd_analyze(cfg, tmp_path).modes[1].eta > 0.0


def test_roundtrip_is_identity():
    for text in ("", "theta = 3e-4\nseed = 7\npreset = constant-plus-noise\n",
                  "dx = 0.0125\neps = 0.2\nk_v = 1e8\nT = 12.5\n",
                  "preset = eigenmode-perturbation\nmass = 0.5\npreset_mode = 2\n"
                  "preset_amplitude = 0.01\n",
                  "mass = 0.8\nseed = 0\n"):  # defaults pass under any preset
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)


# ------------------------------------------------------------------ analyze

def test_analyze_single_mode_case(tmp_path):
    rep = cmd_analyze(parse_config("theta = 7.8e-2\n"), tmp_path)
    assert rep.rng.theta_c == pytest.approx(0.3101, abs=1e-3)
    assert rep.rng.eta_plus == pytest.approx(2.97, abs=0.01)
    assert len(rep.unstable) == 1
    assert rep.dominant.n == 1
    text = (tmp_path / "analysis.txt").read_text()
    assert "unstable_count = 1" in text
    assert "theta_c = 0.31016930894" in text


def test_analyze_at_critical_ratio(tmp_path):
    tc = 0.3101693089477196
    rep = cmd_analyze(parse_config(f"theta = {tc!r}\n"), tmp_path)
    assert rep.unstable == [] and rep.dominant is None
    assert "converges to equilibrium" in (tmp_path / "analysis.txt").read_text()


def test_analyze_permeability_cases(tmp_path):
    rep = cmd_analyze(parse_config("theta = 1e-2\nk_v = 0\n"), tmp_path)
    assert rep.unstable == []
    rep = cmd_analyze(parse_config("theta = 1e-2\nk_v = 1e-2\n"), tmp_path)
    assert len(rep.unstable) == 1
    assert rep.unstable[0].eta == pytest.approx(0.04, abs=1e-3)


def test_analyze_report_numbers_are_full_precision(tmp_path):
    rep = cmd_analyze(parse_config("theta = 7.8e-2\n"), tmp_path)
    text = (tmp_path / "analysis.txt").read_text()
    u_bar = float([l for l in text.splitlines()
                   if l.startswith("u_bar")][0].split("=")[1])
    assert u_bar == rep.ss.u_bar  # no precision lost in the report


def test_analyze_looks_up_eigenvalues_and_dispersion_in_their_modules(
        tmp_path, monkeypatch):
    # a per-layer timer (perfbench/layers.py) wraps spectrum.eigenvalues and
    # stability.dispersion where analyze finds them: one spectrum serves the
    # whole report, and each of the 6 unstable modes gets one growth rate
    calls = {}
    for module, name in ((spectrum, "eigenvalues"), (stability, "dispersion")):
        calls[name] = 0
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    rep = cmd_analyze(parse_config("theta = 3e-4\n"), tmp_path)
    assert len(rep.unstable) == 6
    assert calls == {"eigenvalues": 1, "dispersion": 6}


@pytest.mark.parametrize("theta, eta_plus", [
    ("1e-20", "3.1016930894771958e+19"),  # 1.8e9 modes, 13 GiB of roots
    ("1e-300", "3.1016930894771954e+299"),
    ("1e-310", "inf"),  # a subnormal theta: eta_plus overflows
])
def test_tiny_theta_is_refused_before_the_spectrum(tmp_path, capsys, monkeypatch,
                                                   theta, eta_plus):
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalues called")
    monkeypatch.setattr(spectrum, "eigenvalues", refuse)
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"theta = {theta}\n")
    assert main(["analyze", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        f"config error: theta: mode cap 200001 for eta_plus = {eta_plus} "
        "is past the 100000 modes that are solved\n")
    assert not (tmp_path / "o").exists()


def test_analyze_refuses_a_decoupled_k_u(tmp_path, capsys):
    # k_u != theta*k_v: the species share no eigenbasis, so no modal verdict
    # applies
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("dx = 0.05\nT = 5\ntheta = 0.2\nk_u = 0.05\n")
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="k_u"):
        assert main(["analyze", "--config", str(cfgf), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: k_u: ")
    assert not (out / "analysis.txt").exists()
    # a sweep's children, and its theta_c, re-derive k_u = theta*k_v
    with pytest.warns(UserWarning, match="k_u"):
        assert main(["sweep", "--config", str(cfgf), "--param", "theta",
                     "--values", "theta_c,0.1", "--out", str(out)]) == 0
    assert "k_u = 0.1\n" in (out / "theta_0.1" / "report.txt").read_text()


def test_spectrum_refuses_more_than_max_modes(tmp_path, capsys):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("")
    n = str(spectrum.MAX_MODES + 1)
    assert main(["spectrum", "--config", str(cfgf), "--n-max", n,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: n_max must be between")
    assert not (tmp_path / "o").exists()


# ------------------------------------------------------------------ simulate

def test_simulate_writes_csv_schema(tmp_path):
    cfg = parse_config(FAST)
    res = cmd_simulate(cfg, tmp_path)
    final = (tmp_path / "final.csv").read_text().splitlines()
    assert final[0] == "x,side,u,v"
    n_points = res.grid.n_points
    assert len(final) == 1 + n_points
    xs = [row.split(",")[0] for row in final[1:]]
    sides = [row.split(",")[1] for row in final[1:]]
    # the membrane abscissa appears once per side
    assert xs.count("0.5") == 2
    assert sides.count("l") == n_points // 2
    mid = n_points // 2
    assert sides[mid - 1] == "l" and sides[mid] == "r"
    assert (tmp_path / "snapshots.csv").exists()
    assert (tmp_path / "report.txt").exists()


def test_simulate_report_contains_resolved_config(tmp_path):
    cfg = parse_config(FAST)
    cmd_simulate(cfg, tmp_path)
    text = (tmp_path / "report.txt").read_text()
    assert "dt = 0.01" in text
    assert "jump_u = " in text and "mass_drift = " in text


def test_simulate_equilibrium_start_all_snapshots_identical(tmp_path):
    cfg = parse_config(FAST + "preset = constant-plus-noise\nnoise_amplitude = 0\n")
    res = cmd_simulate(cfg, tmp_path)
    assert res.converged and res.n_steps == 1
    rows = {}
    for f in sorted(tmp_path.glob("snapshot_*.csv")):
        rows[f.name] = f.read_text()
    assert len(set(rows.values())) == 1


def test_simulate_svg_output(tmp_path):
    cfg = parse_config(FAST)
    cmd_simulate(cfg, tmp_path, svg=True)
    svg = (tmp_path / "final_u.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "stroke-dasharray" in svg  # membrane rule
    assert (tmp_path / "final_v.svg").exists()


def test_simulate_outputs_are_deterministic(tmp_path):
    cfg = parse_config(FAST + "preset = constant-plus-noise\nseed = 5\n")
    cmd_simulate(cfg, tmp_path / "a")
    cmd_simulate(cfg, tmp_path / "b")
    for name in ("final.csv", "snapshots.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()


# --------------------------------------------------------------------- sweep

def test_sweep_theta_counts_grow_as_theta_drops(tmp_path):
    cfg = parse_config("dx = 0.025\nT = 40\n")
    tc = 0.3101693089477196
    summary = cmd_sweep(cfg, "theta", [tc, 1e-2, 1e-3], tmp_path)
    counts = [row["count"] for row in summary]
    assert counts[0] == 0
    assert counts == sorted(counts)
    text = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert text[0].startswith("param,value,count,converged")
    assert len(text) == 4
    assert all(row.endswith(",ok") for row in text[1:])


def test_sweep_k_v_restores_continuity(tmp_path):
    cfg = parse_config("dx = 0.025\nT = 40\ntheta = 3e-4\n")
    summary = cmd_sweep(cfg, "k_v", [0.0, 1.0, 1e8], tmp_path)
    assert summary[0]["count"] == 5
    assert summary[1]["count"] == 6
    assert summary[2]["jump_u"] < 1e-3


def test_sweep_children_match_standalone_simulate(tmp_path):
    # eps = 0.02 halves dt, so the batched children step with different dt
    cfg = parse_config("dx = 0.05\nT = 10\n")
    summary = cmd_sweep(cfg, "eps", [1.0, 0.5, 0.02], tmp_path / "sweep")
    assert all("error" not in row for row in summary)
    for child in ("eps_1", "eps_0.5", "eps_0.02"):
        got = tmp_path / "sweep" / child
        # the child's report echoes its fully resolved configuration
        report = (got / "report.txt").read_text()
        child_cfg = parse_config(report.split("# resolved configuration\n", 1)[1])
        cmd_simulate(child_cfg, tmp_path / "alone" / child)
        want = tmp_path / "alone" / child
        names = sorted(f.name for f in want.iterdir())
        assert "final.csv" in names and "snapshots.csv" in names
        assert sorted(f.name for f in got.iterdir()) == names
        for name in names:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_sweep_child_files_are_its_own_simulate(tmp_path):
    # every file of a child, its report included, is what simulate writes
    # for the child's value: neither names the directory it is written to
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("dx = 0.025\nT = 5\n")
    assert main(["sweep", "--config", str(cfgf), "--param", "theta",
                 "--values", "0.2,0.01", "--out", str(tmp_path / "sweep")]) == 0
    alone = tmp_path / "alone.cfg"
    alone.write_text("dx = 0.025\nT = 5\ntheta = 0.2\n")
    assert main(["simulate", "--config", str(alone), "--out", str(tmp_path / "sim")]) == 0
    got, want = tmp_path / "sweep" / "theta_0.2", tmp_path / "sim"
    names = sorted(f.name for f in want.iterdir())
    assert "report.txt" in names
    assert sorted(f.name for f in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_sweep_records_child_failures_and_continues(tmp_path):
    cfg = parse_config("dx = 0.05\nT = 5\n")
    # -1 and nan each fail their config, which names the key
    summary = cmd_sweep(cfg, "theta", [1e-2, -1.0, float("nan"), 2e-2], tmp_path)
    assert "error" not in summary[0] and "error" not in summary[3]
    assert "theta: diffusion ratio must be positive" in summary[1]["error"]
    assert "theta: must be finite" in summary[2]["error"]
    rows = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert "ok" in rows[1] and "theta" in rows[2] and rows[4].endswith(",ok")


def test_sweep_records_a_tiny_theta_child_and_continues(tmp_path):
    cfg = parse_config("dx = 0.05\nT = 5\n")
    summary = cmd_sweep(cfg, "theta", [1e-2, 1e-20, 2e-2], tmp_path)
    assert "error" not in summary[0] and "error" not in summary[2]
    assert summary[1]["error"].startswith("ConfigError: theta: ")
    rows = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert rows[2].startswith("theta,9.9999999999999995e-21,,,,,,,,,,ConfigError")
    assert rows[1].endswith(",ok") and rows[3].endswith(",ok")


def test_sweep_validates_arguments(tmp_path):
    cfg = parse_config("")
    with pytest.raises(ConfigError, match="param"):
        cmd_sweep(cfg, "alpha", [1.0], tmp_path)
    with pytest.raises(ConfigError, match="values"):
        cmd_sweep(cfg, "theta", [], tmp_path)


# ---------------------------------------------------------------- main/exits

def test_main_spectrum_writes_table(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("k_v = 0.5\n")
    assert main(["spectrum", "--config", str(cfgf), "--n-max", "4",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert rows[0].startswith("n,eta,lambda,xi_over_pi")
    assert len(rows) == 6
    xi1 = float(rows[2].split(",")[3])
    assert xi1 == pytest.approx(0.41588, abs=1e-4)


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(FAST)
    bad = tmp_path / "bad.cfg"
    bad.write_text("theta = -3\n")
    blow = tmp_path / "blow.cfg"
    blow.write_text("dx = 0.025\nTheta_scheme = 0\ndt = 0.01\nT = 1\n")
    out = str(tmp_path / "o")
    assert main(["analyze", "--config", str(good), "--out", out]) == 0
    assert main(["analyze", "--config", str(bad), "--out", out]) == 2
    assert main(["analyze", "--config", str(tmp_path / "nope.cfg"),
                 "--out", out]) == 4
    assert main(["simulate", "--config", str(blow), "--out", out]) == 3
    # one check refuses a diffusive mesh ratio D*dt/dx^2 above the bound
    # before the first step, names the key and warns nothing: mesh ratios
    # that lose the 1 of I + T*C in rounding (D = 1e12 drifted mass
    # silently, 1e306 left the factor no positive pivot) and ones that
    # overflow (1e308)
    for keys in ("D_vl = 1e12\nD_vr = 1e12\ntheta = 3e-4\n",
                 "D_vl = 1e306\ntheta = 0.5\n",
                 "D_vl = 1e308\nD_vr = 1e308\n"):
        huge = tmp_path / "huge.cfg"
        huge.write_text(FAST + keys)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", str(huge), "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: D_vl: ")


def test_commands_write_nothing_to_stdout(tmp_path, capfd):
    # the output is files, the errors go to stderr: stdout stays free for
    # whatever drives the command
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("dx = 0.025\nT = 2\n")
    for argv in (["analyze"], ["simulate", "--svg"], ["spectrum", "--n-max", "20"],
                 ["sweep", "--param", "theta", "--values", "0.1,0.01"]):
        out = tmp_path / argv[0]
        assert main([argv[0], "--config", str(cfgf), *argv[1:], "--out", str(out)]) == 0
        assert any(out.iterdir())
        assert capfd.readouterr().out == ""


def test_benchmark_layers_wrap_existing_names():
    # perfbench/layers.py drops the metrics of a name it cannot find without
    # a word; each name it wraps must stay a callable of its module
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for module, attr, _ in layers.TARGETS:
        assert callable(getattr(importlib.import_module(f"membrane_rd.{module}"), attr,
                                None)), (module, attr)


def test_analyze_and_spectrum_load_no_scipy(tmp_path):
    # a fresh interpreter, as a shell loop over `membrane-rd analyze` starts
    src = Path(membrane_rd.__file__).resolve().parents[1]
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FAST)
    sim = tmp_path / "sim.cfg"
    sim.write_text("dx = 0.025\nT = 0.05\n")
    script = textwrap.dedent(f"""
        import sys
        sys.path.insert(0, {str(src)!r})
        import membrane_rd
        from membrane_rd.cli import main

        def scipy_modules():
            return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

        out = {str(tmp_path)!r}
        assert main(["analyze", "--config", {str(cfg)!r}, "--out", out + "/an"]) == 0
        assert main(["spectrum", "--config", {str(cfg)!r}, "--n-max", "50",
                     "--out", out + "/sp"]) == 0
        assert not scipy_modules(), scipy_modules()
        assert main(["simulate", "--config", {str(sim)!r}, "--out", out + "/sim"]) == 0
        assert "scipy.linalg" in sys.modules
    """)
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "an" / "analysis.txt").exists()
    assert (tmp_path / "sp" / "spectrum.csv").exists()


def test_main_reuses_one_parser_without_leaking_options(tmp_path, capsys):
    from membrane_rd.cli import _build_parser

    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(FAST)

    def cli(cmd, out, *extra):
        return main([cmd, "--config", str(cfgf), "--out", str(tmp_path / out), *extra])

    assert cli("simulate", "svg", "--svg") == 0
    assert cli("simulate", "plain") == 0
    assert cli("analyze", "an") == 0
    with pytest.raises(SystemExit) as exc:
        cli("simulate", "bad", "--svg", "--n-max", "3")  # a spectrum option
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-max 3" in capsys.readouterr().err
    assert cli("simulate", "after") == 0
    assert _build_parser() is _build_parser()

    svgs = lambda out: sorted(f.name for f in (tmp_path / out).glob("*.svg"))
    assert svgs("svg") == ["final_u.svg", "final_v.svg"]
    assert svgs("plain") == [] and svgs("after") == []
    assert (tmp_path / "plain" / "final.csv").read_bytes() == \
           (tmp_path / "svg" / "final.csv").read_bytes()
    assert sorted(f.name for f in (tmp_path / "an").iterdir()) == ["analysis.txt"]
    assert not (tmp_path / "bad").exists()


def test_main_sweep_accepts_theta_c_token(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("dx = 0.05\nT = 5\n")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfgf), "--param", "theta",
                 "--values", "theta_c,1e-2", "--out", str(out)]) == 0
    rows = (out / "sweep_summary.csv").read_text().splitlines()
    assert float(rows[1].split(",")[1]) == pytest.approx(0.31017, abs=1e-4)


def test_load_config_reads_files(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("theta = 0.2\n")
    assert load_config(cfgf).theta == 0.2
