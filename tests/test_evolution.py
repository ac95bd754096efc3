"""Strang and Blanes–Moan splitting: conservation, order, exact limits, and the RK4 oracle."""

import math
import re

import numpy as np
import pytest

from fnls.errors import NonFiniteFieldError
from fnls.evolution import (
    MAX_STEPS, EvolveConfig, default_dt, evolve, snapshots, spectral_snapshots, step_plan,
)
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.profiles import gaussian

from references import rk4_reference, scaling_transform

GRID = Grid(1, 256, 16 * np.pi)
PARAMS = ModelParams(d=1, sigma=0.75, p=3, mu=1, nu=1.0)


def test_default_dt_is_capped_by_grid_and_horizon():
    dt = default_dt(GRID, PARAMS, t_end=10.0)
    dx = GRID.L[0] / GRID.n[0]
    assert dt <= 0.1 * dx ** (2 * PARAMS.sigma) + 1e-15
    assert default_dt(GRID, PARAMS, t_end=1e-4) <= 1e-6 + 1e-15
    assert default_dt(GRID, PARAMS, 10.0, "blanes_moan4") == pytest.approx(20 * dt, rel=1e-15)
    # The cap counts FFT pairs, six per blanes_moan4 step.
    short = default_dt(GRID, PARAMS, 1e-4, "blanes_moan4")
    assert short == pytest.approx(6 * default_dt(GRID, PARAMS, 1e-4), rel=1e-15)


# At nu < 1 the linear flow is exp(i t nu^(2 sigma) |xi|^(2 sigma)), so the
# conserved energy scales its kinetic part by nu^(2 sigma). Snapshot energies
# that left the factor out drifted by 5-27 % on these runs.
@pytest.mark.parametrize(
    "grid, nu",
    [(Grid(1, 512, 32 * np.pi), 0.5), (Grid(2, 64, 16 * np.pi), 0.1), (GRID, 0.0)],
    ids=["1d-nu0.5", "2d-nu0.1", "1d-nu0"],
)
def test_snapshot_energy_is_conserved_at_small_dispersion(grid, nu):
    params = ModelParams(d=grid.d, sigma=0.75, p=3, mu=1, nu=nu)
    u0 = gaussian(grid, width=1.0, amplitude=1.0, center=(0.3,) * grid.d)
    traj = evolve(u0, EvolveConfig(params, t_end=0.5, dt=2e-3, snapshot_stride=25))
    energies = np.array([d["energy"] for d in traj.diagnostics])
    assert len(energies) == 11
    assert np.max(np.abs(energies - energies[0])) <= 1e-6 * abs(energies[0])


def test_mass_conserved_to_roundoff():
    u0 = gaussian(GRID, amplitude=1.0)
    traj = evolve(u0, EvolveConfig(PARAMS, t_end=1.0, dt=1e-3, snapshot_stride=100))
    masses = [d["mass"] for d in traj.diagnostics]
    assert abs(masses[-1] - masses[0]) / masses[0] < 1e-12


def test_blanes_moan4_conserves_mass_to_roundoff():
    # Three of its stages run a flow backwards; both flows stay exact.
    u0 = gaussian(GRID, amplitude=1.0)
    cfg = EvolveConfig(PARAMS, t_end=1.0, dt=1e-2, snapshot_stride=10, scheme="blanes_moan4")
    masses = np.array([d["mass"] for d in evolve(u0, cfg).diagnostics])
    assert len(masses) == 11
    assert np.max(np.abs(masses - masses[0])) / masses[0] < 1e-12


def test_energy_drift_is_second_order_in_dt():
    u0 = gaussian(GRID, amplitude=1.0)
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = evolve(u0, EvolveConfig(PARAMS, t_end=1.0, dt=dt, snapshot_stride=10**9))
        e = [d["energy"] for d in traj.diagnostics]
        drifts.append(abs(e[-1] - e[0]))
    for coarse, fine in zip(drifts, drifts[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_agrees_with_rk4_integrating_factor_reference():
    u0 = gaussian(GRID, amplitude=0.5)
    dt = 5e-4
    traj = evolve(u0, EvolveConfig(PARAMS, t_end=0.5, dt=dt, snapshot_stride=10**9))
    ref = rk4_reference(u0, PARAMS, 0.5, dt / 2)
    err = np.max(np.abs(traj.final.values - ref.values))
    assert err < 1e-6


def test_a_ragged_run_agrees_with_rk4_at_the_tiled_tolerance():
    # 0.5 is not a whole number of 5.3e-4: 944 equal steps of 0.5 / 944.
    u0 = gaussian(GRID, amplitude=0.5)
    traj = evolve(u0, EvolveConfig(PARAMS, t_end=0.5, dt=5.3e-4, snapshot_stride=10**9))
    ref = rk4_reference(u0, PARAMS, 0.5, 2.5e-4)
    assert traj.times[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.max(np.abs(traj.final.values - ref.values)) < 1e-6


def test_strang_step_is_second_order_against_rk4():
    u0 = gaussian(GRID, amplitude=0.5)
    ref = rk4_reference(u0, PARAMS, 0.25, 1e-4)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = evolve(u0, EvolveConfig(PARAMS, t_end=0.25, dt=dt, snapshot_stride=10**9))
        errs.append(np.max(np.abs(traj.final.values - ref.values)))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 < q < 2.2 for q in orders)


# RK4 at dt 1.25e-3 sits < 1e-13 from its dt/5 run, far below the finest
# blanes_moan4 error (~1.5e-11), so the measured orders are blanes_moan4's.
@pytest.mark.parametrize("grid", [GRID, Grid(2, 32, 8 * np.pi)], ids=["1d", "2d"])
def test_blanes_moan4_step_is_fourth_order_against_rk4(grid):
    params = ModelParams(d=grid.d, sigma=0.75, p=3, mu=1, nu=1.0)
    u0 = gaussian(grid, width=1.0, amplitude=1.0, center=(0.3,) * grid.d)
    ref = rk4_reference(u0, params, 0.5, 1.25e-3)
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        cfg = EvolveConfig(params, t_end=0.5, dt=dt, snapshot_stride=10**9, scheme="blanes_moan4")
        errs.append(np.max(np.abs(evolve(u0, cfg).final.values - ref.values)))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(3.7 <= q <= 4.3 for q in orders)


def test_zero_dispersion_reproduces_explicit_phase_solution():
    params0 = ModelParams(d=1, sigma=0.75, p=3, mu=1, nu=0.0)
    u0 = gaussian(GRID, amplitude=1.0)
    t_end = 1.0
    traj = evolve(u0, EvolveConfig(params0, t_end=t_end, dt=0.01, snapshot_stride=10**9))
    exact = u0.values * np.exp(
        1j * t_end * params0.mu * np.abs(u0.values) ** (params0.p - 1)
    )
    assert np.max(np.abs(traj.final.values - exact)) < 1e-12


def test_defocusing_sign_flips_phase_direction():
    params_def = ModelParams(d=1, sigma=0.75, p=3, mu=-1, nu=0.0)
    u0 = gaussian(GRID, amplitude=1.0)
    traj = evolve(u0, EvolveConfig(params_def, t_end=0.3, dt=0.01, snapshot_stride=10**9))
    exact = u0.values * np.exp(-1j * 0.3 * np.abs(u0.values) ** 2)
    assert np.max(np.abs(traj.final.values - exact)) < 1e-12


def test_snapshot_stride_controls_output_density():
    u0 = gaussian(GRID, amplitude=0.5)
    traj = evolve(u0, EvolveConfig(PARAMS, t_end=0.1, dt=1e-3, snapshot_stride=25))
    assert len(traj.times) == len(traj.fields) == len(traj.diagnostics)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1)


# The benchmark's (t_end, dt) pairs and the README's sol.cfg: dt tiles t_end,
# so the run keeps whole steps of dt.
@pytest.mark.parametrize(
    "t_end, dt, steps", [(0.5, 0.01, 50), (0.6, 0.02, 30), (0.2, 2e-3, 100), (1.0, 1e-3, 1000)]
)
def test_step_plan_keeps_dt_when_it_tiles_t_end(t_end, dt, steps):
    assert step_plan(t_end, dt) == (steps, dt)


def test_step_plan_evens_out_a_run_off_the_dt_grid():
    assert step_plan(0.0, 0.01) == (0, 0.01)
    # ceil(40.5) = 41 equal steps, each shorter than dt.
    assert step_plan(0.405, 0.01) == (41, 0.405 / 41)


# A tolerance of 1e-12 dt alone fails once t_end's own rounding outgrows it:
# a step planned as t_end/4640 then planned 4641 steps of itself.
@pytest.mark.parametrize("t_end, n", [(64.72247926230926, 4640), (10.0, 40), (20.0, 10**6)])
def test_step_plan_keeps_a_step_it_planned(t_end, n):
    steps, h = step_plan(t_end, t_end / 40 / (n // 40))
    assert steps == n
    assert step_plan(t_end, h) == (n, h)


@pytest.mark.parametrize("t_end, dt", [(1e300, 1e-3), (0.1, 1e-300), (1e300, 1e-300)])
def test_step_plan_refuses_a_run_of_more_than_max_steps(t_end, dt):
    assert MAX_STEPS == 10**9
    message = f"a run to t_end = {t_end:g} in steps of at most dt = {dt:g} takes more than"
    with pytest.raises(ValueError, match=re.escape(message)):
        step_plan(t_end, dt)


@pytest.mark.parametrize(
    "t_end, dt, match",
    [
        (1.0, 0.0, "dt must be positive and finite; got 0"),
        (1.0, -0.1, "dt must be positive and finite; got -0.1"),
        (1.0, math.nan, "dt must be positive and finite; got nan"),
        (1.0, math.inf, "dt must be positive and finite; got inf"),
        (-1.0, 0.1, "t_end must be finite and >= 0; got -1"),
        (math.inf, 0.1, "t_end must be finite and >= 0; got inf"),
        (math.nan, 0.1, "t_end must be finite and >= 0; got nan"),
    ],
)
def test_step_plan_names_a_step_or_an_end_it_cannot_plan(t_end, dt, match):
    with pytest.raises(ValueError, match=match):
        step_plan(t_end, dt)


def test_snapshots_plans_its_run_before_its_first_row():
    rows = snapshots(gaussian(GRID), EvolveConfig(PARAMS, t_end=1e300))
    with pytest.raises(ValueError, match="more than MAX_STEPS"):
        next(rows)


# Amplitude 0.5 rotates (Theta = 0.025); 1e-9 gives Theta = 1e-19 at p = 3
# and t_end 0.1, so that run jumps. 10 Strang steps at stride 3: rows at
# steps 0, 3, 6, 9 and 10.
@pytest.mark.parametrize("amplitude", [0.5, 1e-9])
def test_a_row_carries_a_read_only_view_of_its_spectrum_and_the_last_none(amplitude):
    u0 = gaussian(GRID, amplitude=amplitude)
    cfg = EvolveConfig(PARAMS, t_end=0.1, dt=0.01, snapshot_stride=3)
    rows = []
    for t, u, _, spectrum in spectral_snapshots(u0, cfg):
        if spectrum is not None:
            with pytest.raises(ValueError, match="read-only"):
                spectrum[0] = 0
            spectrum = spectrum.copy()
        rows.append((t, u, spectrum))
    assert [t for t, _, _ in rows] == pytest.approx([0, 0.03, 0.06, 0.09, 0.1], rel=1e-15)
    assert rows[-1][2] is None
    assert np.array_equal(rows[0][2], np.fft.fftn(u0.values))
    for _, u, spectrum in rows[1:-1]:
        want = np.fft.fftn(u.values)
        assert np.max(np.abs(spectrum - want)) <= 1e-13 * np.max(np.abs(want))
    # Writing was refused, so the run went on from the spectrum it held.
    assert np.array_equal(rows[-1][1].values, evolve(u0, cfg).final.values)


def test_a_model_of_another_dimension_than_its_grid_raises():
    u0 = gaussian(Grid(2, 32, 20.0))
    cfg = EvolveConfig(ModelParams(1, 0.75, 3), 0.1, 0.01, snapshot_stride=10**9)
    with pytest.raises(ValueError, match="model's dimension d = 1 is not the grid's d = 2"):
        evolve(u0, cfg)


def test_remainder_step_hits_t_end_exactly():
    u0 = gaussian(GRID, amplitude=0.5)
    # dt does not divide t_end; the final partial step must land on t_end
    traj = evolve(u0, EvolveConfig(PARAMS, t_end=0.1, dt=3e-3, snapshot_stride=10**9))
    assert traj.times[-1] == pytest.approx(0.1, abs=1e-12)


def test_nonfinite_guard_trips_on_amplitude_overflow():
    # |u|^(p-1) overflows for huge data, poisoning the phase rotation
    params = ModelParams(d=1, sigma=0.75, p=7, mu=-1, nu=1.0)
    u0 = gaussian(GRID, amplitude=1e60, width=0.5)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteFieldError):
        evolve(u0, EvolveConfig(params, t_end=0.01, dt=0.01, snapshot_stride=10**9))


def test_scaling_transform_commutes_with_flow():
    """u_lambda(t, x) = lambda^(-2 sigma/(p-1)) u(t / lambda^(2 sigma), x / lambda)."""
    lam = 2.0
    base = Grid(1, 256, 16 * np.pi)
    u0 = gaussian(base, amplitude=1.0)
    t_end = 0.2

    scaled0, time_scale = scaling_transform(u0, lam, PARAMS)
    assert time_scale == pytest.approx(lam ** (2 * PARAMS.sigma))

    traj = evolve(u0, EvolveConfig(PARAMS, t_end=t_end, dt=2e-4, snapshot_stride=10**9))
    scaled_final, _ = scaling_transform(traj.final, lam, PARAMS)

    traj_lam = evolve(
        scaled0,
        EvolveConfig(PARAMS, t_end=t_end * time_scale, dt=2e-4 * time_scale, snapshot_stride=10**9),
    )
    err = np.max(np.abs(traj_lam.final.values - scaled_final.values))
    assert err < 1e-7


def test_scaling_transform_requires_power_of_two():
    u0 = gaussian(GRID, amplitude=1.0)
    with pytest.raises(ValueError):
        scaling_transform(u0, 3.0, PARAMS)


@pytest.mark.parametrize("dt", [None, 0.01])
def test_zero_t_end_yields_only_the_input_field(dt):
    u0 = gaussian(GRID, amplitude=0.5)
    rows = list(snapshots(u0, EvolveConfig(PARAMS, t_end=0.0, dt=dt)))
    assert len(rows) == 1
    t, u, diagnostics = rows[0]
    assert t == 0.0 and u is u0 and diagnostics["time"] == 0.0


# NaN has to fail each check, so the checks read `not x > 0`.
@pytest.mark.parametrize(
    "kw, match",
    [
        ({"mass_drift_guard": float("nan")}, "mass_drift_guard must be positive"),
        ({"mass_drift_guard": -1.0}, "mass_drift_guard must be positive"),
        ({"mass_drift_guard": 0.0}, "mass_drift_guard must be positive"),
        ({"snapshot_stride": 2.5}, "snapshot stride must be a whole number"),
        ({"snapshot_stride": float("nan")}, "snapshot stride must be a whole number"),
        ({"snapshot_stride": 0}, "snapshot stride must be a whole number"),
        ({"t_end": float("nan")}, "t_end must be finite and >= 0"),
        ({"t_end": float("inf")}, "t_end must be finite and >= 0"),
        ({"t_end": -0.1}, "t_end must be finite and >= 0"),
        ({"dt": float("nan")}, "dt must be positive"),
        ({"dt": 0.0}, "dt must be positive"),
        ({"dt": -0.01}, "dt must be positive"),
        ({"scheme": "rk4"}, "scheme must be one of strang, blanes_moan4; got 'rk4'"),
        ({"dt": 0.2}, "dt must not exceed t_end"),
    ],
)
def test_evolve_config_rejects_values_that_would_misbehave(kw, match):
    with pytest.raises(ValueError, match=match):
        EvolveConfig(PARAMS, **{"t_end": 0.1, **kw})


@pytest.mark.parametrize("p", [float("nan"), 1.0])
def test_model_params_reject_a_power_that_is_not_above_one(p):
    # NaN used to pass and fail only at the first step, as a nonfinite field.
    with pytest.raises(ValueError, match="p must exceed 1"):
        ModelParams(1, 0.75, p)


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"d": 0}, "d must be 1, 2 or 3"),
        ({"d": 4}, "d must be 1, 2 or 3"),
        ({"d": float("nan")}, "d must be 1, 2 or 3"),
        ({"sigma": 0.0}, r"sigma must lie in \(0, 1\]"),
        ({"sigma": 1.5}, r"sigma must lie in \(0, 1\]"),
        ({"sigma": float("nan")}, r"sigma must lie in \(0, 1\]"),
        ({"mu": 0}, r"mu must be \+1 or -1"),
        ({"mu": float("nan")}, r"mu must be \+1 or -1"),
        ({"nu": -0.1}, r"nu must lie in \[0, 1\]"),
        ({"nu": 1.5}, r"nu must lie in \[0, 1\]"),
        ({"nu": float("nan")}, r"nu must lie in \[0, 1\]"),
    ],
)
def test_model_params_reject_coefficients_out_of_range(kw, match):
    with pytest.raises(ValueError, match=match):
        ModelParams(**{"d": 1, "sigma": 0.75, "p": 3, **kw})
