"""Experiment runners, report plumbing, config parsing, and the CLI."""

import csv
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

import fnls.cli as cli
from fnls.cli import CONFIG_KEYS, main
from fnls.config import load_config
from fnls.errors import MassDriftError, RegimeError, WrapAroundError
from fnls.evolution import default_dt
from fnls.experiments import (
    run_decoherence,
    run_dispersive_decay,
    run_galilean_error,
    run_scattering_probe,
    run_small_dispersion,
)
from fnls.experiments.decoherence import DecoherenceConfig, decoherence_time
from fnls.experiments.dispersive import check_horizon, frequency_bump
from fnls.experiments.report import ExperimentReport, loglog_fit
from fnls.grid import Grid
from fnls.io import read_field
from fnls.model import ModelParams
from fnls.profiles import ProfileSpec
from fnls.spectral import lebesgue_norm


def test_loglog_fit_recovers_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x**-1.7
    slope, intercept, resid = loglog_fit(x, y)
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert resid < 1e-12


def test_loglog_fit_needs_three_points():
    with pytest.raises(ValueError):
        loglog_fit([1.0, 2.0], [1.0, 2.0])


def test_report_write_produces_csv_and_summary(tmp_path):
    rep = ExperimentReport("demo", inputs={"alpha": 1.0})
    rep.add_row(x=1.0, y=2.0)
    rep.add_row(x=2.0, y=3.0)
    rep.fits["slope"] = 0.5
    rep.checks["ok"] = True
    rep.write(tmp_path)
    csv_text = (tmp_path / "report.csv").read_text()
    assert csv_text.splitlines()[0] == "x,y"
    assert "2.0,3.0" in csv_text
    summary = (tmp_path / "summary.txt").read_text()
    assert "check ok: PASS" in summary
    assert "overall: PASS" in summary


def test_config_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "sigma = 0.75  # trailing comment\n"
        "n = 256\n"
        "flag = true\n"
        "nu_list = 0.1, 0.05\n"
        "name = run-a\n"
        "t_end=inf\n"
    )
    # Each value's text, stripped; the key's type in fnls.cli parses it.
    assert load_config(cfg_file) == {
        "sigma": "0.75",
        "n": "256",
        "flag": "true",
        "nu_list": "0.1, 0.05",
        "name": "run-a",
        "t_end": "inf",
    }


def test_frequency_bump_is_unit_l1_and_centered():
    g = Grid(1, 1024, 64 * np.pi)
    u = frequency_bump(g, 2.0)
    assert lebesgue_norm(u, 1.0) == pytest.approx(1.0, rel=1e-12)
    spec = np.abs(np.fft.fftn(u.values))
    k = g.k_abs
    assert abs(k.flat[np.argmax(spec)] - 2.0) < 3 * g.k_min


def test_wraparound_guard():
    g = Grid(1, 256, 8 * np.pi)
    with pytest.raises(WrapAroundError):
        check_horizon(g, 0.75, [4.0], t_max=100.0)


def test_dispersive_runner_fits_decay(tmp_path):
    rep = run_dispersive_decay(
        d=1, sigma=0.75, N_list=[1.0, 4.0], t_grid=np.linspace(5, 40, 8),
        save_dir=tmp_path,
    )
    assert -0.6 < rep.fits["time_slope_N1.0"] < -0.4
    assert rep.checks["prefactor_scaling"]
    snap = read_field(tmp_path / "dispersive_N1_t5.fnls")
    assert snap.grid.n == (2**14,)


def test_small_dispersion_rate():
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    rep = run_small_dispersion(
        ProfileSpec(width=1.0, amplitude=1.0), params,
        nu_list=[0.1, 0.05, 0.025], t_eval=1.0, k=1,
    )
    assert rep.fits["error_slope"] == pytest.approx(1.5, rel=0.15)
    assert rep.passed


def test_galilean_requires_sigma_above_quarter_d():
    params = ModelParams(1, 0.2, 3, 1, 1.0)
    with pytest.raises(RegimeError):
        run_galilean_error(
            ProfileSpec(width=0.6), params, nu_list=[0.2, 0.1, 0.05],
            v=(8.0,), k=1, t_eval=0.5,
        )


def test_galilean_error_decays():
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    rep = run_galilean_error(
        ProfileSpec(width=0.6), params, nu_list=[0.2, 0.1, 0.05],
        v=(8.0,), k=1, t_eval=0.5,
    )
    assert rep.checks["error_decreasing_in_nu"]
    assert rep.fits["decay_exponent"] > 0.8


def test_decoherence_config_validation():
    with pytest.raises(ValueError):
        DecoherenceConfig(alpha=0.5)  # nu = lambda^alpha must not exceed lambda


def test_decoherence_requires_illposed_window():
    # s = -0.3 sits below s_c = -0.25 for these parameters
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    cfg = DecoherenceConfig(alpha=1.2, s=-0.3, epsilon=5.0)
    with pytest.raises(RegimeError):
        run_decoherence(cfg, ProfileSpec(width=1.0), params, nu_list=[0.1])


def test_decoherence_true_evolution_keeps_the_distance_inflated():
    # The full-dispersion solutions from the t = 0 u_tilde stay apart at t_dec too.
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    cfg = DecoherenceConfig(true_evolution=True, n_y=256)
    rep = run_decoherence(cfg, ProfileSpec(width=1.0), params, nu_list=(0.1, 0.09))
    assert len(rep.series) == 2
    for row in rep.series:
        assert np.isfinite(row["true_dist_tdec"])
        assert row["true_dist_tdec"] >= 5 * row["dist_t0"]


def test_decoherence_time_is_positive_and_finite():
    g = Grid(1, 512, 16 * np.pi)
    w = ProfileSpec(width=1.0, amplitude=1.0).realize(g)
    t_scan = np.linspace(0.1, 60.0, 600)
    t_dec, sep_at_t, sep_max = decoherence_time(w, 1.0, 0.9, 1, 3, t_scan)
    assert 0 < t_dec <= 60.0
    assert sep_at_t >= 0.5 * sep_max


def test_scattering_probe_requires_supercritical_power():
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    with pytest.raises(RegimeError):
        run_scattering_probe(
            ProfileSpec(width=1.0), params, amplitude_list=[1e-3], t_end=1.0,
        )


def test_scattering_probe_records_resolved_dt_steps_and_snapshots():
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 7, 1, 1.0)
    t_end = 0.5
    rep = run_scattering_probe(
        ProfileSpec(width=1.0), params, amplitude_list=[1e-3], t_end=t_end,
        grid=grid, windows=((0.1, 0.2), (0.2, 0.4)),
    )
    dt = rep.inputs["dt"]
    assert dt == default_dt(grid, params, t_end, "yoshida4")
    steps = rep.inputs["steps"]
    assert (steps - 1) * dt < t_end <= steps * dt + 1e-12
    # One report row per pair of consecutive snapshots.
    assert rep.inputs["snapshots"] == len(rep.series) + 1
    assert rep.inputs["nu"] == params.nu


# 512 points on 16 pi have criterion 11's spacing, so its default dt.
SCATTER_GRID = Grid(1, 512, 16 * np.pi)
SCATTER_PARAMS = ModelParams(1, 0.75, 7, 1, 1.0)


# A uniform stride cannot give 40 +- 2 snapshots at every step count: at
# 100 steps, stride 2 gives 51 and stride 3 gives 35, and the probe's 136
# and 217 yoshida4 steps at t_end 2.5 and 4 take 47 and 45. From about 800
# steps on, round(steps / 40) does.
@pytest.mark.parametrize(
    "grid, t_end, snapshots",
    [
        (Grid(1, 512, 128 * np.pi), 2.0, 51),
        (SCATTER_GRID, 2.5, 47),
        (SCATTER_GRID, 4.0, 45),
        (SCATTER_GRID, 10.0, 40),
    ],
)
def test_scattering_probe_default_stride_takes_about_40_snapshots(grid, t_end, snapshots):
    rep = run_scattering_probe(
        ProfileSpec(width=1.0), SCATTER_PARAMS, amplitude_list=[1e-3], t_end=t_end,
        grid=grid, windows=((t_end / 4, t_end / 2), (t_end / 2, t_end)),
    )
    dt, steps = rep.inputs["dt"], rep.inputs["steps"]
    stride = rep.inputs["snapshot_stride"]
    assert rep.inputs["scheme"] == "yoshida4"
    assert dt == default_dt(grid, SCATTER_PARAMS, t_end, "yoshida4")
    assert stride == max(1, round(t_end / dt / 40))
    # The initial snapshot, one per whole stride and the final step's.
    assert rep.inputs["snapshots"] == 1 + steps // stride + (steps % stride > 0)
    assert rep.inputs["snapshots"] == snapshots


@pytest.mark.parametrize("width, center", [(1.0, 0.0), (1.2, -4.0)])
def test_scattering_probe_default_stride_matches_every_step(width, center):
    # The benchmark's scatter-1d run (t_end 10, its windows) on a smaller box.
    reps = [
        run_scattering_probe(
            ProfileSpec(width=width, center=(center,)), SCATTER_PARAMS,
            amplitude_list=[1e-3], t_end=10.0, grid=SCATTER_GRID,
            windows=((2.5, 5.0), (5.0, 10.0)), snapshot_stride=stride,
        )
        for stride in (None, 1)
    ]
    fast, slow = reps
    assert slow.inputs["snapshot_stride"] == 1
    assert slow.inputs["snapshots"] == slow.inputs["steps"] + 1
    assert fast.inputs["snapshots"] <= 42
    for key in ("defect[2.5,5]_amp0.001", "defect[5,10]_amp0.001"):
        assert fast.fits[key] == pytest.approx(slow.fits[key], rel=0.02)
    assert fast.checks == slow.checks == {"defect_decays_amp0.001": True}


def test_cli_exponents_runs(capsys):
    assert main(["exponents", "--d", "1", "--sigma", "0.75", "--p", "3", "--s", "-0.1"]) == 0
    out = capsys.readouterr().out
    assert "-0.25" in out
    assert "ILLPOSED_RANGE" in out


def test_cli_evolve_norms_round_trip(tmp_path, capsys):
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(
        "d = 1\nsigma = 0.75\np = 3\nn = 256\nL = 50.26548245743669\n"
        "t_end = 0.2\ndt = 0.002\nsnapshot_stride = 20\n"
        "profile_width = 1.0\nprofile_amplitude = 0.5\n"
    )
    run_dir = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(run_dir)]) == 0
    assert (run_dir / "diagnostics.csv").exists()
    snaps = sorted(run_dir.glob("snap_*.fnls"))
    assert len(snaps) == 6
    assert main([
        "norms", "--traj", str(run_dir), "--q", "6", "--r", "6",
        "--s", "0", "--sigma", "0.75",
    ]) == 0
    out = capsys.readouterr().out
    assert "spacetime norm" in out
    with open(run_dir / "norms.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["snapshots"] == str(len(snaps))


def test_cli_soliton(tmp_path):
    cfg = tmp_path / "sol.cfg"
    cfg.write_text(
        "d = 1\nsigma = 0.75\np = 3\nmu = -1\nn = 512\nL = 100.53096491487338\n"
        "omega = 1.0\nv = 0.5\n"
    )
    out_dir = tmp_path / "sol"
    assert main(["soliton", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "Q.fnls").exists()
    assert (out_dir / "residuals.csv").exists()
    assert "converged: True" in (out_dir / "summary.txt").read_text()


def test_cli_experiment_subcommand(tmp_path):
    cfg = tmp_path / "disp.cfg"
    cfg.write_text("sigma = 0.75\nN_list = 1, 4\nt_grid = 5, 10, 20, 40\n")
    out_dir = tmp_path / "disp"
    assert main(["dispersive", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "report.csv").exists()
    assert "overall: PASS" in (out_dir / "summary.txt").read_text()


def test_cli_evolve_honours_mass_drift_guard(tmp_path):
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(
        "d = 1\nsigma = 0.75\np = 3\nn = 256\nL = 50.26548245743669\n"
        "t_end = 0.2\ndt = 0.002\nsnapshot_stride = 20\nmass_drift_guard = 1e-30\n"
    )
    with pytest.raises(MassDriftError):
        main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")])


EVOLVE_1D = (
    "d = 1\nsigma = 0.75\np = 3\nn = 256\nL = 50.26548245743669\n"
    "t_end = 0.2\ndt = 0.002\nsnapshot_stride = 20\n"
)


def _evolve_run(tmp_path, name, text=EVOLVE_1D):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    run_dir = tmp_path / name
    return main(["evolve", "--config", str(cfg), "--out", str(run_dir)]), run_dir


def _masses(run_dir):
    with open(run_dir / "diagnostics.csv", newline="") as fh:
        return [float(row["mass"]) for row in csv.DictReader(fh)]


def test_cli_evolve_keeps_the_snapshots_written_before_a_guard_trip(tmp_path):
    code, clean = _evolve_run(tmp_path, "clean")
    assert code == 0
    masses = _masses(clean)
    drifts = [abs(m - masses[0]) / masses[0] for m in masses]
    # A guard the third snapshot meets and a later one exceeds.
    guard = max(drifts[:3])
    tripped_at = next(i for i, drift in enumerate(drifts) if drift > guard)
    with pytest.raises(MassDriftError):
        _evolve_run(tmp_path, "tripped", EVOLVE_1D + f"mass_drift_guard = {guard!r}\n")
    run_dir = tmp_path / "tripped"
    assert _masses(run_dir) == masses[:tripped_at]
    assert sorted(p.name for p in run_dir.glob("snap_*.fnls")) == [
        f"snap_{i:05d}.fnls" for i in range(tripped_at)
    ]
    for path in run_dir.glob("snap_*.fnls"):
        assert path.read_bytes() == (clean / path.name).read_bytes()


def test_cli_norms_holds_at_most_two_snapshots(tmp_path, monkeypatch):
    code, run_dir = _evolve_run(tmp_path, "run")
    assert code == 0
    alive, most = [], 0

    def read_and_count(path):
        nonlocal most
        field = read_field(path)
        alive.append(weakref.ref(field))
        most = max(most, sum(ref() is not None for ref in alive))
        return field

    monkeypatch.setattr(cli, "read_field", read_and_count)
    for variant in ("PLAIN", "TILDE"):
        argv = ["norms", "--traj", str(run_dir), "--q", "6", "--r", "6", "--sigma", "0.75"]
        assert main(argv + ["--variant", variant]) == 0
    assert len(alive) == 2 * len(_masses(run_dir)) == 12
    assert most <= 2


def test_cli_norms_rejects_a_run_with_no_snapshots(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "diagnostics.csv").write_text("time,mass,energy,linf,boundary_amplitude\n")
    argv = ["norms", "--traj", str(run_dir), "--q", "6", "--r", "6", "--sigma", "0.75"]
    with pytest.raises(ValueError, match=re.escape(f"{run_dir}: diagnostics.csv lists no")):
        main(argv)


# Tiny runs: what is pinned is the files, not the experiments' verdicts.
SAVED_FIELDS = {
    "small-dispersion": (
        "sigma = 0.75\np = 3\nn = 64\nL = 20\nnu_list = 0.5, 0.4, 0.3\nt_eval = 0.1\n",
        [f"smalldisp_nu{nu}.fnls" for nu in ("0.5", "0.4", "0.3")],
    ),
    "galilean": (
        "sigma = 0.75\np = 3\nnu_list = 0.5, 0.4, 0.3\nt_eval = 0.05\nn_x = 256\nL_x = 40\n"
        "n_y = 64\nv = 4\n",
        [f"galilean_{u}_nu{nu}.fnls" for u in ("u", "utilde") for nu in ("0.5", "0.4", "0.3")],
    ),
    "decohere": (
        "sigma = 0.75\np = 3\nnu_list = 0.1, 0.09\nn_y = 64\nL_y = 20\nt_scan_max = 10\n"
        "max_n_x = 1024\n",
        [f"decohere_a_{t}_nu{nu}.fnls" for t in ("t0", "tdec") for nu in ("0.1", "0.09")],
    ),
    "scatter": (
        "sigma = 0.75\np = 7\nn = 256\nL = 40\nt_end = 1\nwindows = 0.2:0.5, 0.5:1\n",
        ["scatter_final_amp0.001.fnls"],
    ),
}


@pytest.mark.parametrize("command", sorted(SAVED_FIELDS))
def test_cli_save_fields_writes_fnls1_files_that_read_back(tmp_path, command):
    text, names = SAVED_FIELDS[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    main([command, "--config", str(cfg), "--out", str(out_dir), "--save-fields"])
    assert sorted(path.name for path in out_dir.glob("*.fnls")) == sorted(names)
    for name in names:
        read_field(out_dir / name)


def test_cli_decohere_honours_max_n_x(tmp_path, monkeypatch):
    seen = {}

    def fake_run_decoherence(cfg, profile, params, nu_list=(0.1, 0.09, 0.08), save_dir=None):
        seen["max_n_x"] = cfg.max_n_x
        return ExperimentReport("decoherence")

    monkeypatch.setattr("fnls.experiments.run_decoherence", fake_run_decoherence)
    cfg = tmp_path / "dc.cfg"
    cfg.write_text("d = 1\nsigma = 0.75\np = 3\nmax_n_x = 1024\n")
    assert main(["decohere", "--config", str(cfg), "--out", str(tmp_path / "dc")]) == 0
    assert seen == {"max_n_x": 1024}


@pytest.mark.parametrize(
    "command, line, match",
    [
        ("evolve", "t_ned = 0.2", "'t_ned' for evolve; did you mean 't_end'"),
        ("soliton", "seed_widht = 1.0", "'seed_widht' for soliton; did you mean 'seed_width'"),
        ("dispersive", "N_lsit = 1, 4", "'N_lsit' for dispersive; did you mean 'N_list'"),
        ("small-dispersion", "hs_trak = 0.5", "did you mean 'hs_track'"),
        ("galilean", "t_evl = 0.5", "'t_evl' for galilean; did you mean 't_eval'"),
        ("decohere", "dt_yy = 0.01", "'dt_yy' for decohere; did you mean 'dt_y'"),
        # The undocumented alias, now rejected with the documented key.
        ("scatter", "amplitudes = 1e-3", "'amplitudes' for scatter; did you mean 'amplitude_list'"),
        # The probe resolves its own stride; the CLI never passed this on.
        ("scatter", "snapshot_stride = 1", "unknown config key 'snapshot_stride' for scatter"),
    ],
)
def test_cli_rejects_unknown_config_keys(tmp_path, command, line, match):
    # dispersive never reads p, so p is itself unknown there.
    prelude = "d = 1\nsigma = 0.75\n" + ("" if command == "dispersive" else "p = 7\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{prelude}{line}\n")
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        main([command, "--config", str(cfg), "--out", str(out_dir)])
    assert not out_dir.exists()


def _backticked(text):
    return {word for word in re.findall(r"`([^`]*)`", text) if word.isidentifier()}


def test_cli_config_keys_match_readme():
    """README lists each subcommand's required and optional keys, as CONFIG_KEYS does."""
    with open(Path(__file__).parents[1] / "README.md") as fh:
        section = fh.read().split("### Config keys", 1)[1]
    documented = {}
    for entry in section.split("\n\n- ", 1)[1].split("\n\n", 1)[0].split("\n- "):
        name, keys = entry.split(":", 1)
        required, optional = keys.split("; optional", 1)
        documented[name.strip("`")] = (_backticked(required), _backticked(optional))
    assert documented == {
        name: (set(required), set(optional)) for name, (required, optional) in CONFIG_KEYS.items()
    }
