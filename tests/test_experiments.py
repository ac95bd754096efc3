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
from fnls.evolution import ROUNDOFF, EvolveConfig, default_dt, evolve
from fnls.experiments import (
    run_decoherence,
    run_dispersive_decay,
    run_galilean_error,
    run_scattering_probe,
    run_small_dispersion,
)
from fnls.experiments.decoherence import decoherence_time
from fnls.experiments.dispersive import check_horizon, frequency_bump
from fnls.experiments.report import ExperimentReport, loglog_fit
from fnls.grid import Grid
from fnls.io import read_field
from fnls.model import ModelParams
from fnls.observables import scattering_defects
from fnls.profiles import ProfileSpec
from fnls.spectral import lebesgue_norm

from conftest import traced_peak
from references import free_flow, rk4_reference


def test_loglog_fit_recovers_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    y = 3.0 * x**-1.7
    slope, intercept, resid = loglog_fit(x, y)
    assert slope == pytest.approx(-1.7, abs=1e-12)
    assert np.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert resid < 1e-12


def test_loglog_fit_residual_is_the_rms_of_the_log_misfit():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    assert loglog_fit(x, np.ones_like(x)) == (0.0, 0.0, 0.0)  # log y = 0 exactly
    assert loglog_fit(x, 5.0 * x**2)[2] < 1e-14
    y = 3.0 * x**-1.7 * np.exp([0.01, -0.02, 0.015, 0.0, -0.005])
    slope, intercept, resid = loglog_fit(x, y)
    misfit = slope * np.log(x) + intercept - np.log(y)
    assert resid == pytest.approx(np.sqrt(np.sum(misfit**2) / x.size), rel=1e-12)
    assert 0 < resid < 0.02


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


def test_report_without_checks_passes():
    assert ExperimentReport("demo").passed
    rep = ExperimentReport("demo", checks={"ok": True, "bad": False})
    assert not rep.passed


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


def test_dispersive_runner_rejects_a_grid_of_another_dimension():
    # Judged against d = 2's prefactor ratio, a 1D run would fail.
    with pytest.raises(ValueError, match="grid's dimension d = 1 is not the run's d = 2"):
        run_dispersive_decay(
            2, 0.75, N_list=(1.0, 4.0), t_grid=(5, 10, 20), grid=Grid(1, 4096, 400 * np.pi)
        )


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
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    with pytest.raises(ValueError, match="alpha must be >= 1"):
        # nu = lambda^alpha must not exceed lambda
        run_decoherence(ProfileSpec(width=1.0), params, alpha=0.5)


def test_decoherence_requires_illposed_window():
    # s = -0.3 sits below s_c = -0.25 for these parameters
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    with pytest.raises(RegimeError):
        run_decoherence(
            ProfileSpec(width=1.0), params, nu_list=[0.1], alpha=1.2, s=-0.3, epsilon=5.0
        )


def test_decoherence_rejects_sigma_one_half():
    # At sigma = 1/2, p = 2.5, s = -0.1 sits in (s_c, 0) = (-1/6, 0), the
    # window's range, but the paper's results exclude sigma = 1/2.
    params = ModelParams(1, 0.5, 2.5, 1, 1.0)
    with pytest.raises(RegimeError, match="requires ILLPOSED_RANGE, got OUTSIDE_THEORY"):
        run_decoherence(
            ProfileSpec(width=1.0), params, nu_list=[0.1], alpha=1.2, s=-0.1, epsilon=5.0,
            n_y=64,
        )


@pytest.mark.parametrize("s", [0.0, 0.3])
def test_decoherence_rejects_a_nonnegative_s_through_the_regime_gate(tmp_path, s):
    # The ill-posed window is s_c < s < 0; s >= 0 fails the gate before any output.
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    match = (
        rf"decoherence requires ILLPOSED_RANGE, got \w+ "
        rf"\(d = 1, p = 3, sigma = 0.75, s = {s}, s_c = -0.25\)"
    )
    with pytest.raises(RegimeError, match=match):
        run_decoherence(ProfileSpec(width=1.0), params, s=s, save_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_decoherence_true_evolution_keeps_the_distance_inflated():
    # The full-dispersion solutions from the t = 0 u_tilde stay apart at t_dec too.
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    rep = run_decoherence(
        ProfileSpec(width=1.0), params, nu_list=(0.1, 0.09), true_evolution=True, n_y=256
    )
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


def test_scattering_probe_rejects_sigma_one_half():
    # p = 7 is supercritical in 1D, but at sigma = 1/2 the flow does not disperse.
    params = ModelParams(1, 0.5, 7, 1, 1.0)
    match = r"requires CRITICAL_LWP, got OUTSIDE_THEORY \(d = 1, p = 7, sigma = 0.5,"
    with pytest.raises(RegimeError, match=match):
        run_scattering_probe(
            ProfileSpec(width=1.0), params, amplitude_list=[1e-3], t_end=1.0,
            grid=Grid(1, 256, 40.0),
        )


# The default windows, (5, 10) and (10, 20), against runs to 10 and 4: the
# late window would sum nothing, and a PASS or FAIL would measure nothing.
@pytest.mark.parametrize(
    "t_end, windows",
    [
        (10.0, None),
        (4.0, None),
        (10.0, ((2.0, 2.0), (2.0, 4.0))),
        (10.0, ((-1.0, 2.0), (2.0, 4.0))),
    ],
    ids=["default-t10", "default-t4", "empty", "negative"],
)
def test_scattering_probe_rejects_a_window_outside_its_run(t_end, windows):
    params = ModelParams(1, 0.75, 7, 1, 1.0)
    given = {} if windows is None else {"windows": windows}
    with pytest.raises(ValueError, match=r"windows must satisfy 0 <= lo < hi <= t_end"):
        run_scattering_probe(
            ProfileSpec(width=1.0), params, t_end=t_end, grid=Grid(1, 1024, 64 * np.pi), **given
        )


# One window tests no trend, and windows listed late-first test the opposite
# one; overlapping windows count an increment twice.
@pytest.mark.parametrize(
    "windows, match",
    [
        (((0.5, 1.0),), "windows needs at least two"),
        (((0.5, 1.0), (0.25, 0.5)), r"windows must follow each other in time.*\(0.5, 1\) then"),
        (((0.25, 0.6), (0.5, 1.0)), "windows must follow each other in time"),
    ],
    ids=["one", "late-first", "overlapping"],
)
def test_scattering_probe_rejects_windows_that_test_no_trend_or_the_wrong_one(windows, match):
    with pytest.raises(ValueError, match=match):
        run_scattering_probe(
            ProfileSpec(width=1.0), ModelParams(1, 0.75, 7, 1, 1.0), t_end=1.0,
            grid=Grid(1, 256, 32 * np.pi), windows=windows,
        )


def test_scattering_probe_defect_decays_when_each_window_sums_below_the_last():
    windows = ((0.25, 0.5), (0.5, 0.75), (0.75, 1.0))
    rep = run_scattering_probe(
        ProfileSpec(width=1.0), ModelParams(1, 0.75, 7, 1, 1.0), t_end=1.0,
        grid=Grid(1, 256, 32 * np.pi), windows=windows,
    )
    sums = [rep.fits[f"defect[{lo:g},{hi:g}]_amp0.001"] for lo, hi in windows]
    assert rep.checks == {"defect_decays_amp0.001": sums[2] < sums[1] < sums[0]}


def test_scattering_probe_records_resolved_dt_steps_and_snapshots():
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 7, 1, 1.0)
    t_end = 0.5
    rep = run_scattering_probe(
        ProfileSpec(width=1.0), params, amplitude_list=[1e-3], t_end=t_end,
        grid=grid, windows=((0.1, 0.2), (0.2, 0.4)),
    )
    dt = rep.inputs["dt"]
    assert dt == default_dt(grid, params, t_end, "blanes_moan4")
    steps = rep.inputs["steps"]
    assert (steps - 1) * dt < t_end <= steps * dt + 1e-12
    # One report row per pair of consecutive snapshots.
    assert rep.inputs["snapshots"] == len(rep.series) + 1
    assert rep.inputs["nu"] == params.nu


# 512 points on 16 pi have criterion 11's spacing, so its default dt.
SCATTER_GRID = Grid(1, 512, 16 * np.pi)
SCATTER_PARAMS = ModelParams(1, 0.75, 7, 1, 1.0)


def test_scattering_probe_small_data_takes_the_free_flow(tmp_path):
    # At amplitude 1e-3 and p = 7 the run's rotations are below roundoff, so
    # its final field is the linear flow's; at 0.3 they are not.
    profile = ProfileSpec(width=1.0, center=(0.3,))
    t_end = 2.5
    rep = run_scattering_probe(
        profile, SCATTER_PARAMS, amplitude_list=[1e-3, 0.3], t_end=t_end, grid=SCATTER_GRID,
        windows=((0.5, 1.0), (1.0, 2.5)), save_dir=str(tmp_path),
    )
    small, large = rep.inputs["phase_bound"]
    assert small <= ROUNDOFF < large
    for amp in (1e-3, 0.3):
        u0 = amp * profile.realize(SCATTER_GRID)
        final = read_field(tmp_path / f"scatter_final_amp{amp:g}.fnls")
        want = free_flow(u0, SCATTER_PARAMS, t_end).values
        error = np.max(np.abs(final.values - want)) / np.max(np.abs(want))
        assert error <= 1e-12 if amp == 1e-3 else error > 1e-6


def test_scattering_probe_equals_the_trajectory_pass(tmp_path):
    # The probe streams its run through one defect pass; collecting the run
    # first and passing over the Trajectory gives the same rows, window sums
    # and final field, bit for bit.
    profile = ProfileSpec(width=1.0, center=(0.3,))
    t_end, windows = 2.5, ((0.5, 1.0), (1.0, 2.5))
    rep = run_scattering_probe(
        profile, SCATTER_PARAMS, amplitude_list=[1e-3, 0.3], t_end=t_end, grid=SCATTER_GRID,
        windows=windows, save_dir=str(tmp_path),
    )
    cfg = EvolveConfig(
        SCATTER_PARAMS, t_end, rep.inputs["dt"], rep.inputs["snapshot_stride"],
        scheme="blanes_moan4",
    )
    for amp in (1e-3, 0.3):
        traj = evolve(amp * profile.realize(SCATTER_GRID), cfg)
        rows = [
            dict(amplitude=amp, t_lo=lo, t_hi=hi, defect_direct=direct, defect_duhamel=duhamel)
            for lo, hi, direct, duhamel in scattering_defects(traj, SCATTER_PARAMS, rep.inputs["s_c"])
        ]
        assert [row for row in rep.series if row["amplitude"] == amp] == rows
        for lo, hi in windows:
            total = 0.0
            for row in rows:
                if lo <= 0.5 * (row["t_lo"] + row["t_hi"]) < hi:
                    total += row["defect_duhamel"]
            assert rep.fits[f"defect[{lo:g},{hi:g}]_amp{amp:g}"] == total
        final = read_field(tmp_path / f"scatter_final_amp{amp:g}.fnls")
        assert np.array_equal(final.values, traj.final.values)
        assert rep.inputs["snapshots"] == len(traj.times)


def test_scattering_probe_traced_peak_does_not_grow_with_its_snapshot_count():
    # 80 steps on 2^16 points, a field being 1 MiB, at strides 8 and 1: 11
    # and 81 snapshots. Collecting the run first held each snapshot; the
    # stream holds a fixed set of fields, and the 70 more report rows take
    # a few KiB. The grid's wavenumber caches count as input.
    grid = Grid(1, 2**16, 128 * np.pi)
    grid.x, grid.k_abs
    peaks = {}
    for stride, snapshots in ((8, 11), (1, 81)):
        peaks[stride], rep = traced_peak(
            lambda: run_scattering_probe(
                ProfileSpec(width=1.0), SCATTER_PARAMS, t_end=1.0, grid=grid, dt=1 / 80,
                snapshot_stride=stride, windows=((0.25, 0.5), (0.5, 1.0)),
            )
        )
        assert rep.inputs["snapshots"] == snapshots
    assert abs(peaks[1] - peaks[8]) <= 2**16 * np.dtype(complex).itemsize


# A uniform stride cannot give 40 +- 2 snapshots at every step count. Under
# 60 steps it is 1: the probe's 17 blanes_moan4 steps at t_end 2 on the
# coarse grid (its dt is the cap, 6 t_end/100) take 18 snapshots, and its 41
# at t_end 2.5 take 42. At 66 steps (t_end 4) stride 2 gives 34, where
# stride 1 would give 67. From about 800 steps on, round(steps / 40) does.
@pytest.mark.parametrize(
    "grid, t_end, snapshots",
    [
        (Grid(1, 512, 128 * np.pi), 2.0, 18),
        (SCATTER_GRID, 2.5, 42),
        (SCATTER_GRID, 4.0, 34),
        (SCATTER_GRID, 10.0, 42),
    ],
)
def test_scattering_probe_default_stride_takes_about_40_snapshots(grid, t_end, snapshots):
    rep = run_scattering_probe(
        ProfileSpec(width=1.0), SCATTER_PARAMS, amplitude_list=[1e-3], t_end=t_end,
        grid=grid, windows=((t_end / 4, t_end / 2), (t_end / 2, t_end)),
    )
    dt, steps = rep.inputs["dt"], rep.inputs["steps"]
    stride = rep.inputs["snapshot_stride"]
    assert rep.inputs["scheme"] == "blanes_moan4"
    assert dt == default_dt(grid, SCATTER_PARAMS, t_end, "blanes_moan4")
    assert stride == max(1, round(t_end / dt / 40))
    # The initial snapshot, one per whole stride and the final step's.
    assert rep.inputs["snapshots"] == 1 + steps // stride + (steps % stride > 0)
    assert rep.inputs["snapshots"] == snapshots


# The probe's scheme takes 20x Strang's default dt, a multiple set on
# criterion 11's spacing, which SCATTER_GRID has. There it must stay at least
# as close to the RK4 oracle as Strang at Strang's default dt, so that a
# larger multiple fails here. Measured: 4.6e-8 against 6.1e-7 at amplitude 1,
# and 3.4e-10 against 2.7e-9 at amplitude 0.5; the oracle's own error is
# about 1e-10.
@pytest.mark.parametrize("amplitude", [1.0, 0.5])
def test_probe_scheme_at_its_default_dt_is_as_accurate_as_strang(amplitude):
    u0 = amplitude * ProfileSpec(width=1.0).realize(SCATTER_GRID)
    t_end = 2.5
    ref = rk4_reference(u0, SCATTER_PARAMS, t_end, t_end / 500)
    errors = {}
    for scheme in ("strang", "blanes_moan4"):
        cfg = EvolveConfig(SCATTER_PARAMS, t_end=t_end, snapshot_stride=10**9, scheme=scheme)
        errors[scheme] = np.max(np.abs(evolve(u0, cfg).final.values - ref.values))
    assert errors["blanes_moan4"] <= errors["strang"]


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


def test_cli_evolve_runs_a_box_far_wider_than_the_profile(tmp_path):
    # Off the centre the profile's exponent overflows; Tier-1 makes that
    # warning an error, and exp(-inf) = 0 is the exact sample.
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text("sigma = 0.75\np = 3\nn = 8\nL = 1e10\nt_end = 0.1\nprofile_width = 1e-150\n")
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert np.array_equal(read_field(tmp_path / "run" / "snap_00000.fnls").values, np.eye(8)[4])


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


@pytest.mark.parametrize(
    "command, match",
    [
        ("small-dispersion", "nu must lie in"),
        ("galilean", "nu must lie in"),
        ("decohere", "require nu <= lambda"),
    ],
)
def test_cli_save_fields_checks_every_nu_before_the_first_run(tmp_path, command, match):
    # The sweep's second nu is out of range: it must raise before the first
    # nu's fields are written, so no --out is left behind.
    text = re.sub(r"nu_list = [^\n]*", "nu_list = 0.1, 1.5", SAVED_FIELDS[command][0])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        main([command, "--config", str(cfg), "--out", str(out_dir), "--save-fields"])
    assert not out_dir.exists()


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
