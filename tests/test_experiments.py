"""Experiment runners, report plumbing, config parsing, and the CLI."""

import csv
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fnls.cli as cli
from fnls.cli import CONFIG_KEYS, main
from fnls.config import load_config
from fnls.errors import MassDriftError, RegimeError, WrapAroundError
from fnls.evolution import ROUNDOFF, EvolveConfig, default_dt, evolve, snapshots
from fnls.experiments import (
    run_decoherence,
    run_dispersive_decay,
    run_galilean_error,
    run_scattering_probe,
    run_small_dispersion,
)
from fnls.experiments.decoherence import decoherence_time
from fnls.experiments.dispersive import check_horizon, frequency_bump
from fnls.experiments.report import ExperimentReport, loglog_fit, sweep
from fnls.exponents import critical_exponents
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


def test_small_dispersion_fails_a_slope_off_its_rate():
    # At t_eval = 1e-300 every H^1 error is roundoff, so the fit's slope is
    # ~0 against 2 sigma = 1.5; the size checks alone would pass it.
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    rep = run_small_dispersion(
        ProfileSpec(width=1.0), params, t_eval=1e-300, grid=Grid(1, 64, 20.0)
    )
    assert abs(rep.fits["error_slope"]) < 1e-6
    assert rep.checks == {
        "error_slope_matches": False, "linf_sizes_order_one": True, "hs_tracks_scaling": True
    }
    assert not rep.passed


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


@pytest.mark.parametrize("k", [0, -1, 1.5, math.inf])
def test_decoherence_takes_k_an_integer_above_half_d(k):
    # At k <= d/2 the correction term |log nu| (lambda/nu)^(-k) |v|^(-s-k)
    # need not fall with nu; the default k is the smallest integer above.
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    with pytest.raises(ValueError, match=f"^k must be an integer above d/2 = 0.5; got {k:g}$"):
        run_decoherence(ProfileSpec(width=1.0), params, k=k)


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
        # 0.23 is not a multiple of the snapshot spacing 1/40.
        (
            ((0.23, 0.5), (0.5, 1.0)),
            r"window edges must be multiples of the snapshot spacing t_end/40 = 0.025; got 0.23",
        ),
    ],
    ids=["one", "late-first", "overlapping", "off-the-clock"],
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
    # The default dt, 0.03, is longer than the snapshot spacing, so the run
    # takes one step per snapshot.
    dt, steps = rep.inputs["dt"], rep.inputs["steps"]
    assert default_dt(grid, params, t_end, "blanes_moan4") == 0.03
    assert rep.inputs["snapshot_spacing"] == dt == t_end / 40
    assert steps == 40
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
    dt, spacing = rep.inputs["dt"], rep.inputs["snapshot_spacing"]
    cfg = EvolveConfig(
        SCATTER_PARAMS, t_end, dt, round(spacing / dt), scheme="blanes_moan4"
    )
    for amp in (1e-3, 0.3):
        traj = evolve(amp * profile.realize(SCATTER_GRID), cfg)
        assert rep.inputs["snapshots"] == len(traj.times) == 41
        assert traj.times == pytest.approx([k * spacing for k in range(41)], rel=1e-15)
        rows = [
            dict(amplitude=amp, t_lo=lo, t_hi=hi, defect_direct=direct, defect_duhamel=duhamel)
            for lo, hi, direct, duhamel in scattering_defects(traj, SCATTER_PARAMS, rep.inputs["s_c"])
        ]
        assert [row for row in rep.series if row["amplitude"] == amp] == rows
        # No increment straddles a window edge, so binning by midpoint
        # picks the increments the probe sums.
        for lo, hi in windows:
            inside = [r["defect_duhamel"] for r in rows if lo <= 0.5 * (r["t_lo"] + r["t_hi"]) < hi]
            assert len(inside) == round((hi - lo) / spacing)
            assert rep.fits[f"defect[{lo:g},{hi:g}]_amp{amp:g}"] == math.fsum(inside)
        final = read_field(tmp_path / f"scatter_final_amp{amp:g}.fnls")
        assert np.array_equal(final.values, traj.final.values)


def test_scattering_probe_traced_peak_does_not_grow_with_its_snapshot_count():
    # The probe's stream, `snapshots` into one `scattering_defects` pass, at
    # 80 steps on 2^16 points, a field being 1 MiB, at strides 8 and 1: 11
    # and 81 snapshots. Collecting the run first held each snapshot; the
    # stream holds a fixed set of fields, and the 70 more rows take a few
    # KiB. The grid's wavenumber caches count as input.
    grid = Grid(1, 2**16, 128 * np.pi)
    grid.x, grid.k_abs
    u0 = 1e-3 * ProfileSpec(width=1.0).realize(grid)
    s_c, _ = critical_exponents(1, 7, 0.75)
    peaks = {}
    for stride, snapshots_taken in ((8, 11), (1, 81)):
        cfg = EvolveConfig(SCATTER_PARAMS, 1.0, 1 / 80, stride, scheme="blanes_moan4")
        stream = ((t, u) for t, u, _ in snapshots(u0, cfg))
        peaks[stride], rows = traced_peak(
            lambda: list(scattering_defects(stream, SCATTER_PARAMS, s_c))
        )
        assert len(rows) == snapshots_taken - 1
    assert abs(peaks[1] - peaks[8]) <= 2**16 * np.dtype(complex).itemsize


# The probe snapshots every tau = t_end/40 whatever its step count: 41
# snapshots from 40 ceil(tau/dt) equal steps, dt the scheme's default. The
# coarse grid's dt is the cap 6 t_end/100, longer than tau, so it takes one
# step per tau; SCATTER_GRID's is 0.0615, two steps per tau at t_end 2.5
# and 4 and five at 10.
@pytest.mark.parametrize(
    "grid, t_end",
    [
        (Grid(1, 512, 128 * np.pi), 2.0),
        (SCATTER_GRID, 2.5),
        (SCATTER_GRID, 4.0),
        (SCATTER_GRID, 10.0),
    ],
)
def test_scattering_probe_snapshots_every_fortieth_of_its_run(grid, t_end):
    rep = run_scattering_probe(
        ProfileSpec(width=1.0), SCATTER_PARAMS, amplitude_list=[1e-3], t_end=t_end,
        grid=grid, windows=((t_end / 4, t_end / 2), (t_end / 2, t_end)),
    )
    tau = t_end / 40
    longest = default_dt(grid, SCATTER_PARAMS, t_end, "blanes_moan4")
    assert rep.inputs["scheme"] == "blanes_moan4"
    assert rep.inputs["snapshot_spacing"] == tau
    assert rep.inputs["steps"] == 40 * math.ceil(tau / longest)
    assert rep.inputs["dt"] == pytest.approx(t_end / rep.inputs["steps"], rel=1e-15)
    assert rep.inputs["dt"] <= longest
    assert rep.inputs["snapshots"] == len(rep.series) + 1 == 41
    assert [row["t_hi"] for row in rep.series] == pytest.approx(
        [k * tau for k in range(1, 41)], rel=1e-15
    )


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
    # The benchmark's scatter-1d run (t_end 10, its windows) on a smaller box,
    # against the same steps snapshotted every step.
    profile = ProfileSpec(width=width, center=(center,))
    windows = ((2.5, 5.0), (5.0, 10.0))
    rep = run_scattering_probe(
        profile, SCATTER_PARAMS, amplitude_list=[1e-3], t_end=10.0, grid=SCATTER_GRID,
        windows=windows,
    )
    cfg = EvolveConfig(SCATTER_PARAMS, 10.0, rep.inputs["dt"], 1, scheme="blanes_moan4")
    stream = ((t, u) for t, u, _ in snapshots(1e-3 * profile.realize(SCATTER_GRID), cfg))
    rows = list(scattering_defects(stream, SCATTER_PARAMS, rep.inputs["s_c"]))
    assert len(rows) == rep.inputs["steps"] == 200
    sums = [
        math.fsum(duhamel for t_lo, t_hi, _, duhamel in rows if lo <= 0.5 * (t_lo + t_hi) < hi)
        for lo, hi in windows
    ]
    for (lo, hi), every_step in zip(windows, sums):
        assert rep.fits[f"defect[{lo:g},{hi:g}]_amp0.001"] == pytest.approx(every_step, rel=0.02)
    assert sums[1] < sums[0]
    assert rep.checks == {"defect_decays_amp0.001": True}


# One clock: the window sums are trapezoid sums of the Duhamel integrand at
# the fixed times k t_end/40, so they agree across schemes and step sizes to
# the fields' accuracy (measured: 6e-9). Snapshotting every round(steps/40)
# steps and binning increments by midpoint instead, the probe at dt and dt/4
# and Strang at its default dt spread by 1.8 % and 3.3 %.
def test_scattering_probe_window_sums_do_not_depend_on_the_integrator():
    profile, amp, t_end = ProfileSpec(width=1.0), 0.2, 10.0
    windows = ((2.5, 5.0), (5.0, 10.0))
    keys = [f"defect[{lo:g},{hi:g}]_amp{amp:g}" for lo, hi in windows]
    probe = dict(amplitude_list=[amp], t_end=t_end, grid=SCATTER_GRID, windows=windows)
    default = run_scattering_probe(profile, SCATTER_PARAMS, **probe)
    dt = default_dt(SCATTER_GRID, SCATTER_PARAMS, t_end, "blanes_moan4")
    quarter = run_scattering_probe(profile, SCATTER_PARAMS, dt=dt / 4, **probe)
    assert (default.inputs["steps"], quarter.inputs["steps"]) == (200, 680)
    # Strang at the probe's step, on its clock.
    tau, h = default.inputs["snapshot_spacing"], default.inputs["dt"]
    cfg = EvolveConfig(SCATTER_PARAMS, t_end, h, round(tau / h))
    stream = ((t, u) for t, u, _ in snapshots(amp * profile.realize(SCATTER_GRID), cfg))
    rows = scattering_defects(stream, SCATTER_PARAMS, default.inputs["s_c"])
    increments = [duhamel for _, _, _, duhamel in rows]
    strang = [math.fsum(increments[round(lo / tau):round(hi / tau)]) for lo, hi in windows]
    for key, by_strang in zip(keys, strang):
        assert default.fits[key] == pytest.approx(by_strang, rel=1e-6)
        assert quarter.fits[key] == pytest.approx(by_strang, rel=1e-6)


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
    assert rows[0]["sigma"] == "0.75"


def test_cli_evolve_ends_at_t_end_to_one_rounding(tmp_path):
    # The default dt takes 115 steps of 1/115. The row after step k is at
    # k (1/115); a running sum of the steps would end at 0.9999999999999973.
    cfg = tmp_path / "evolve.cfg"
    cfg.write_text(
        "sigma = 0.75\np = 3\nn = 256\nL = 50.26548245743669\nt_end = 1\nsnapshot_stride = 100\n"
    )
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    with open(tmp_path / "run" / "diagnostics.csv", newline="") as fh:
        times = [float(row["time"]) for row in csv.DictReader(fh)]
    assert times[:2] == [0.0, 100 * (1 / 115)]
    assert abs(times[-1] - 1.0) <= 2.0**-52


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


@pytest.mark.parametrize(
    "flag, value, match",
    [
        ("--sigma", "5", "sigma must lie in"),
        ("--sigma", "-1", "sigma must lie in"),
        ("--sigma", "0", "sigma must lie in"),
        ("--sigma", "nan", "sigma must lie in"),
        ("--s", "nan", "s must be finite"),
        ("--s", "inf", "s must be finite"),
        ("--q", "5", re.escape("(q, r) = (5.0, 6.0) not admissible for d = 1")),
    ],
)
def test_cli_norms_rejects_its_exponents_before_reading_a_snapshot(
    tmp_path, monkeypatch, flag, value, match
):
    code, run_dir = _evolve_run(tmp_path, "run")
    assert code == 0
    monkeypatch.setattr(cli, "read_field", lambda path: pytest.fail(f"read {path}"))
    argv = ["norms", "--traj", str(run_dir), "--q", "6", "--r", "6", "--sigma", "0.75"]
    with pytest.raises(ValueError, match=match):
        main(argv + [flag, value])
    assert not (run_dir / "norms.csv").exists()


def test_cli_norms_appends_only_under_its_own_header(tmp_path):
    code, run_dir = _evolve_run(tmp_path, "run")
    assert code == 0
    norms = run_dir / "norms.csv"
    old = "q,r,s,variant,snapshots,value\n6.0,6.0,0.0,PLAIN,6,1.0\n"
    norms.write_text(old)
    argv = ["norms", "--traj", str(run_dir), "--q", "6", "--r", "6", "--sigma", "0.75"]
    with pytest.raises(ValueError, match=re.escape(f"{norms}: header")):
        main(argv)
    assert norms.read_text() == old


def test_cli_norms_rejects_a_run_with_no_snapshots(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "diagnostics.csv").write_text("time,mass,energy,linf,boundary_amplitude\n")
    argv = ["norms", "--traj", str(run_dir), "--q", "6", "--r", "6", "--sigma", "0.75"]
    with pytest.raises(ValueError, match=re.escape(f"{run_dir}: diagnostics.csv lists no")):
        main(argv)


NU_RUNNERS = ("small-dispersion", "galilean", "decohere")

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
        ("small-dispersion", "nu_list entries must be positive and at most 1; got 1.5"),
        ("galilean", "nu_list entries must be positive and at most 1; got 1.5"),
        ("decohere", "nu_list entries must be positive and at most 1; got 1.5"),
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


# Each runner's sweep keys, with config text that runs on small grids
# (dispersive's is rejected before its box is sized).
SWEEP_KEYS = [
    ("dispersive", "N_list", "sigma = 0.75\nN_list = 1, 4\n"),
    ("dispersive", "t_grid", "sigma = 0.75\nt_grid = 5, 10, 20\n"),
    *((command, "nu_list", SAVED_FIELDS[command][0]) for command in NU_RUNNERS),
]


def _bad_sweeps():
    """(command, config text, match): each sweep key with one bad entry."""
    for command, key, text in SWEEP_KEYS:
        good = re.search(rf"{key} = ([^\n]*)", text)[1].split(", ")
        for bad in ("0", "-0.05", "inf", good[0]):
            entries = ", ".join([good[0], bad] + good[2:])
            if bad == good[0]:
                match = f"{key} entries must differ; got {bad} twice"
            else:
                match = f"{key} entries must be positive and (finite|at most 1); got {bad}"
            yield pytest.param(
                command, text.replace(", ".join(good), entries), match, id=f"{command}-{key}-{bad}"
            )
    text = SAVED_FIELDS["decohere"][0]
    yield pytest.param(
        "decohere", re.sub(r"nu_list = [^\n]*", "nu_list = 0.1", text),
        "nu_list needs at least 2 values", id="decohere-one-nu",
    )


# Above-1 entries of nu_list are test_cli_save_fields_checks_every_nu_before_the_first_run's.
@pytest.mark.parametrize("command, text, match", _bad_sweeps())
def test_cli_save_fields_rejects_a_bad_sweep_before_the_first_run(tmp_path, command, text, match):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match=match):
        main([command, "--config", str(cfg), "--out", str(out_dir), "--save-fields"])
    assert not out_dir.exists()


@pytest.mark.parametrize("command", NU_RUNNERS)
def test_an_increasing_nu_list_runs_as_the_decreasing_one(tmp_path, command):
    # Every nu runner runs its largest nu first: rows, fits and verdicts
    # do not depend on the order nu_list is given in.
    text = SAVED_FIELDS[command][0]
    nus = re.search(r"nu_list = ([^\n]*)", text)[1].split(", ")
    outputs = []
    for order in (nus, nus[::-1]):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace(", ".join(nus), ", ".join(order)))
        out_dir = tmp_path / f"out{len(outputs)}"
        main([command, "--config", str(cfg), "--out", str(out_dir)])
        outputs.append([(out_dir / name).read_text() for name in ("summary.txt", "report.csv")])
    assert outputs[0] == outputs[1]
    assert "overall: PASS" in outputs[0][0]


@given(
    values=st.lists(st.one_of(st.floats(), st.sampled_from([0.25, 0.5, 1.0])), max_size=5),
    least=st.integers(1, 4),
    upper=st.sampled_from([1.0, math.inf]),
)
def test_sweep_orders_a_valid_sweep_and_names_the_key_of_any_other(values, least, upper):
    valid = (
        len(values) >= least
        and len(set(values)) == len(values)
        and all(math.isfinite(v) and 0 < v <= upper for v in values)
    )
    if valid:
        assert sweep(values, "nu_list", least, "for the test", upper) == sorted(values)
    else:
        with pytest.raises(ValueError, match="^nu_list "):
            sweep(values, "nu_list", least, "for the test", upper)


def test_sweep_returns_plain_python_numbers():
    # A report prints its inputs with their reprs, and an integer N_list
    # names fit keys such as time_slope_N1.
    t_grid = sweep(np.linspace(5, 40, 4), "t_grid", 3, "for the test")
    assert str(t_grid) == "[5.0, 16.666666666666664, 28.333333333333332, 40.0]"
    N_list = sweep(np.array([4, 1]), "N_list", 2, "for the test")
    assert [(n, type(n)) for n in N_list] == [(1, int), (4, int)]


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
