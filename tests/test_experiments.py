"""Experiment runners, report plumbing, config parsing, and the CLI."""

import csv

import numpy as np
import pytest

from fnls.cli import main
from fnls.config import load_config, parse_value
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
    )
    cfg = load_config(cfg_file)
    assert cfg["sigma"] == 0.75
    assert cfg["n"] == 256
    assert cfg["flag"] is True
    assert cfg["nu_list"] == [0.1, 0.05]
    assert cfg["name"] == "run-a"
    assert parse_value("inf") == np.inf


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
    assert dt == default_dt(grid, params, t_end)
    steps = rep.inputs["steps"]
    assert (steps - 1) * dt < t_end <= steps * dt + 1e-12
    # One report row per pair of consecutive snapshots.
    assert rep.inputs["snapshots"] == len(rep.series) + 1


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


def test_cli_decohere_honours_max_n_x(tmp_path, monkeypatch):
    seen = {}

    def fake_run_decoherence(cfg, profile, params, nu_list, save_dir=None):
        seen["max_n_x"] = cfg.max_n_x
        return ExperimentReport("decoherence")

    monkeypatch.setattr("fnls.experiments.run_decoherence", fake_run_decoherence)
    cfg = tmp_path / "dc.cfg"
    cfg.write_text("d = 1\nsigma = 0.75\np = 3\nmax_n_x = 1024\n")
    assert main(["decohere", "--config", str(cfg), "--out", str(tmp_path / "dc")]) == 0
    assert seen == {"max_n_x": 1024}
