"""The fused `evolve` kernel pinned to the unfused Strang loop it replaced.

`_unfused_evolve` is the straightforward loop kept as the reference: two
FFT pairs per step (linear(dt/2), nonlinear(dt), linear(dt/2)), |u|^(p-1)
through log/exp, and diagnostics from `observables`. The linear flow of
i u_t + nu^(2 sigma) (-Lap)^sigma u + ... = 0 is the propagator at the
nu-scaled time nu^(2 sigma) t, and its conserved energy scales the kinetic
part by nu^(2 sigma). The fused kernel merges adjacent half-steps and
reorders the arithmetic, so results agree to roundoff, not bit for bit.
"""

import functools
import math

import numpy as np
import pytest

import fnls.evolution
import fnls.grid
from fnls.errors import MassDriftError, NonFiniteFieldError
from fnls.evolution import (
    ROUNDOFF,
    SCHEMES,
    EvolveConfig,
    default_dt,
    evolve,
    final_state,
    free_amplitude,
    linear_propagate,
    nonlinear_phase,
    phase_bound,
    snapshots,
    _rotate,
)
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.observables import energy, mass
from fnls.profiles import gaussian
from fnls.spectral import fft, lebesgue_norm
from fnls.symbols import LinearPropagator, evaluate_symbol

from conftest import traced_peak
from references import free_flow

FIELD_TOL = 1e-12
DIAGNOSTIC_TOL = 1e-11
ENERGY_TOL = 1e-12


def _amplitude_power(a, p_minus_1):
    with np.errstate(divide="ignore"):
        return np.where(a > 0, np.exp(p_minus_1 * np.log(np.maximum(a, 1e-300))), 0.0)


def _energy(u, params):
    """nu^(2 sigma) K + mu P from the nu = 1 energy K + mu P at mu = +1 and -1."""
    e = energy(u, params.sigma, params.mu, params.p)
    kinetic = 0.5 * (energy(u, params.sigma, 1, params.p) + energy(u, params.sigma, -1, params.p))
    return params.nu ** (2 * params.sigma) * kinetic + (e - kinetic)


def _diagnostics(t, u, params):
    return {
        "time": float(t),
        "mass": mass(u),
        "energy": _energy(u, params),
        "linf": float(np.max(np.abs(u.values))),
        "boundary_amplitude": u.boundary_amplitude(),
    }


def _unfused_evolve(u0, cfg):
    """(times, fields, diagnostics) of the unfused Strang loop."""
    params = cfg.params
    dt = cfg.dt if cfg.dt is not None else default_dt(u0.grid, params, cfg.t_end)
    times, fields, diags = [0.0], [u0], [_diagnostics(0.0, u0, params)]
    # Whole steps of dt when they tile t_end, else ceil(t_end / dt) equal ones.
    steps = int(np.floor(cfg.t_end / dt + 1e-12))
    if cfg.t_end - steps * dt > 1e-12 * dt:
        steps += 1
        dt = cfg.t_end / steps
    scale = params.nu ** (2 * params.sigma)
    half = evaluate_symbol(LinearPropagator(scale * dt / 2, params.sigma), u0.grid)
    u, t = u0, 0.0
    for step in range(steps):
        w = np.fft.ifftn(half * np.fft.fftn(u.values))
        a = _amplitude_power(np.abs(w), params.p - 1)
        w = w * np.exp(1j * dt * params.mu * a)
        w = np.fft.ifftn(half * np.fft.fftn(w))
        u = ComplexField(u.grid, w)
        t += dt
        if (step + 1) % cfg.snapshot_stride == 0 or step == steps - 1:
            times.append(t)
            fields.append(u)
            diags.append(_diagnostics(t, u, params))
    return times, fields, diags


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


# (grid, params, dt, t_end, stride); in each "-remainder" case t_end is not a
# whole number of dt, and every stride is exercised with at least one grid.
CASES = {
    "1d-p3-stride1-remainder": (
        Grid(1, 256, 16 * np.pi), ModelParams(1, 0.75, 3, 1, 1.0), 1e-2, 0.405, 1
    ),
    "1d-p7-stride7-remainder": (
        Grid(1, 256, 16 * np.pi), ModelParams(1, 0.75, 7, 1, 1.0), 2e-3, 0.201, 7
    ),
    "1d-p2.5-defocusing-stride1e9": (
        Grid(1, 512, 32 * np.pi), ModelParams(1, 0.6, 2.5, -1, 1.0), 5e-3, 1.0, 10**9
    ),
    "1d-nu0-stride7-remainder": (
        Grid(1, 256, 16 * np.pi), ModelParams(1, 0.75, 3, 1, 0.0), 1e-2, 0.333, 7
    ),
    "2d-p2.5-stride7-remainder": (
        Grid(2, (32, 64), (8 * np.pi, 12 * np.pi)), ModelParams(2, 0.8, 2.5, 1, 1.0), 1e-2, 0.205, 7
    ),
    "3d-p3-stride1e9": (
        Grid(3, 16, 8 * np.pi), ModelParams(3, 0.75, 3, 1, 1.0), 1e-2, 0.2, 10**9
    ),
    "3d-p3-stride1-remainder": (
        Grid(3, 16, 8 * np.pi), ModelParams(3, 1.0, 3, -1, 0.5), 1e-2, 0.055, 1
    ),
}


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_fused_evolve_matches_unfused_loop(case):
    grid, params, dt, t_end, stride = CASES[case]
    u0 = gaussian(grid, width=1.5, amplitude=1.0, center=(0.3,) * grid.d)
    cfg = EvolveConfig(params, t_end=t_end, dt=dt, snapshot_stride=stride)
    traj = evolve(u0, cfg)
    times, fields, diags = _unfused_evolve(u0, cfg)

    assert traj.times == pytest.approx(times, rel=0, abs=1e-12)
    assert len(traj.fields) == len(fields) == len(traj.diagnostics)
    for got, want in zip(traj.fields, fields):
        assert got.grid == want.grid
        assert _rel(got.values, want.values) <= FIELD_TOL
    for got, want, u in zip(traj.diagnostics, diags, traj.fields):
        assert got.keys() == want.keys()
        for key in ("time", "mass", "energy", "linf"):
            assert abs(got[key] - want[key]) <= DIAGNOSTIC_TOL * abs(want[key]), key
        # The boundary amplitude is a sample of the field, so its roundoff
        # is relative to the field's size, not to its own.
        assert abs(got["boundary_amplitude"] - want["boundary_amplitude"]) <= (
            DIAGNOSTIC_TOL * want["linf"]
        )
        # The snapshot energy comes from the held spectrum; it must be the
        # energy of the stored field.
        e = _energy(u, params)
        assert abs(got["energy"] - e) <= ENERGY_TOL * abs(e)
        # Mass and L^inf share one |u|^2 array; they are the mass and L^inf
        # kernels' values bit for bit.
        assert got["mass"] == mass(u)
        assert got["linf"] == lebesgue_norm(u, np.inf)


def test_strang_step_is_one_evolve_step():
    grid = Grid(2, 32, 8 * np.pi)
    params = ModelParams(2, 0.75, 2.5, -1, 1.0)
    u0 = gaussian(grid, width=1.5)
    stepped = final_state(u0, params, 0.01, 0.01)
    evolved = evolve(u0, EvolveConfig(params, t_end=0.01, dt=0.01)).final
    composed = linear_propagate(
        nonlinear_phase(linear_propagate(u0, 0.005, 0.75), 0.01, -1, 2.5), 0.005, 0.75
    )
    assert _rel(stepped.values, evolved.values) <= FIELD_TOL
    assert _rel(stepped.values, composed.values) <= FIELD_TOL


def test_nonlinear_phase_keeps_zeros_at_noninteger_power():
    grid = Grid(1, 64, 8 * np.pi)
    vals = gaussian(grid, width=1.0).values
    vals[::4] = 0.0
    u = ComplexField(grid, vals * np.exp(0.3j))
    with np.errstate(all="raise"):
        out = nonlinear_phase(u, 0.7, 1, 2.5)
    assert np.all(out.values[::4] == 0)
    exact = u.values * np.exp(0.7j * np.abs(u.values) ** 1.5)
    assert _rel(out.values, exact) <= 1e-14


def test_nonfinite_guard_trips_within_a_step_under_large_stride():
    # The data refocuses under the linear flow at t = 4.5, the midpoint of
    # step 5. Before that, max |u| <= 0.85 and |u|^1000 is negligible, so the
    # rotation is the identity; at the focus |u| = 2.4 and |u|^1000 overflows.
    grid = Grid(1, 1024, 64.0)
    params = ModelParams(d=1, sigma=1.0, p=1001, mu=1, nu=1.0)
    u0 = linear_propagate(gaussian(grid, width=0.5, amplitude=2.4), -4.5, params.sigma)
    cfg = EvolveConfig(params, t_end=10.0, dt=1.0, snapshot_stride=10**9)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteFieldError, match=r"at t = 5$"):
        evolve(u0, cfg)


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_snapshot_stream_is_evolve_bit_for_bit(case):
    grid, params, dt, t_end, stride = CASES[case]
    u0 = gaussian(grid, width=1.5, amplitude=1.0, center=(0.3,) * grid.d)
    cfg = EvolveConfig(params, t_end=t_end, dt=dt, snapshot_stride=stride)
    traj = evolve(u0, cfg)
    # Copies taken as each snapshot arrives: later steps must not write
    # into a field that has already been yielded.
    seen = []
    for t, u, diagnostics in snapshots(u0, cfg):
        seen.append((t, u, u.values.copy(), diagnostics))
    assert [t for t, *_ in seen] == traj.times
    assert [d for *_, d in seen] == traj.diagnostics
    for (_, u, at_yield, _), want in zip(seen, traj.fields):
        assert np.array_equal(u.values, at_yield)
        assert np.array_equal(u.values, want.values)

    final = final_state(u0, params, t_end, dt)
    endpoints = evolve(u0, EvolveConfig(params, t_end=t_end, dt=dt, snapshot_stride=10**9))
    assert np.array_equal(final.values, endpoints.final.values)
    assert np.array_equal(final.values, traj.final.values)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_the_row_after_step_k_is_the_run_that_ends_there(scheme):
    # Each step ends with its closing flow, so the spectrum held after step
    # k is the solution at k h: a strided run's row there is, bit for bit,
    # the last row of a run of k steps of h (for Strang, `final_state`).
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    u0 = gaussian(grid, width=1.5, amplitude=1.0)
    h = 0.01
    rows = list(snapshots(u0, EvolveConfig(params, 0.2, h, snapshot_stride=5, scheme=scheme)))
    assert [t for t, *_ in rows] == [k * h for k in (0, 5, 10, 15, 20)]
    for t, u, diagnostics in rows[1:]:
        cfg = EvolveConfig(params, t, h, snapshot_stride=math.inf, scheme=scheme)
        *_, (end, ended, at_end) = snapshots(u0, cfg)
        assert (end, at_end) == (t, diagnostics)
        assert np.array_equal(u.values, ended.values)
        if scheme == "strang":
            assert np.array_equal(u.values, final_state(u0, params, t, h).values)


# A block size that divides none of the CASES grids, so each of them spans
# two or more blocks of the blocked kernels and ends in a short one.
RAGGED_BLOCK = 100


@pytest.fixture
def ragged_blocks(monkeypatch):
    monkeypatch.setattr(fnls.grid, "BLOCK", RAGGED_BLOCK)


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_fused_evolve_matches_unfused_loop_in_ragged_blocks(ragged_blocks, case):
    assert CASES[case][0].total_points % RAGGED_BLOCK > 0
    test_fused_evolve_matches_unfused_loop(case)


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_snapshot_stream_is_evolve_bit_for_bit_in_ragged_blocks(ragged_blocks, case):
    test_snapshot_stream_is_evolve_bit_for_bit(case)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rotate_peak_keeps_a_nonfinite_sample_of_a_later_block(bad):
    # Python's max(0.0, nan) is 0.0: a peak taken that way would drop the
    # NaN of any block after the first.
    w = np.full(2 * fnls.grid.BLOCK + 5, 0.5 + 0.5j)
    w[-3] = bad
    with np.errstate(invalid="ignore"):
        peak = _rotate(w, 0.1, 1, 3)
    assert np.isnan(peak) if np.isnan(bad) else peak == np.inf


def test_nonfinite_guard_trips_at_the_step_whose_rotation_overflows(ragged_blocks):
    # At nu = 0 the field keeps |u| = 1e154 at its centre, in a later block
    # of the 41: |u|^2 is finite there, but the first step's angle dt |u|^2
    # = 2e308 is not, so that rotation turns the centre into NaN.
    grid = Grid(1, 4096, 64.0)
    params = ModelParams(1, 0.75, 3, 1, 0.0)
    u0 = gaussian(grid, width=1.0, amplitude=1e154)
    assert np.argmax(np.abs(u0.values)) >= RAGGED_BLOCK
    cfg = EvolveConfig(params, t_end=10.0, dt=2.0, snapshot_stride=10**9)
    assert _guard_message(lambda: evolve(u0, cfg)) == (
        NonFiniteFieldError,
        "nonfinite field at t = 2",
    )


def test_final_state_peaks_below_three_fields_above_its_input():
    # A 3D 64^3 Strang run holds its spectrum, omega (half a field) and one
    # propagator; the rotation and the flow kernels take one block of
    # temporaries, and the last row inverts the held spectrum in place once
    # the propagator is dropped. The grid's wavenumber cache, built on first
    # use and kept by the grid, counts as input.
    grid = Grid(3, 64, 8 * np.pi)
    params = ModelParams(3, 0.75, 3, 1, 1.0)
    u0 = gaussian(grid, width=1.5, amplitude=1.0)
    grid.k_squared
    peak, _ = traced_peak(lambda: final_state(u0, params, 0.03, 0.01))
    assert peak <= 3 * u0.values.nbytes


def test_a_remainder_step_drops_the_full_steps_propagators_first():
    # blanes_moan4 holds four propagators, a field each. A run to 0.25, where
    # t_end is not a whole number of dt, takes three equal steps and builds
    # its four once, so it peaks within a field of the run that stops at
    # 0.2; a second set built mid-run would peak four fields higher. The
    # grid's wavenumber cache counts as input.
    grid = Grid(1, 2**16, 128 * np.pi)
    params = ModelParams(1, 0.75, 7, 1, 1.0)
    u0 = gaussian(grid, width=1.0, amplitude=0.5)
    grid.k_abs

    def run(t_end):
        cfg = EvolveConfig(params, t_end, dt=0.1, snapshot_stride=math.inf, scheme="blanes_moan4")
        return traced_peak(lambda: [t for t, _, _ in snapshots(u0, cfg)])

    whole, times = run(0.2)
    assert times == [0.0, 0.2]
    ended, times = run(0.25)
    assert times == [0.0, pytest.approx(0.25)]
    assert ended <= whole + u0.values.nbytes


def _guard_message(run):
    with np.errstate(all="ignore"), pytest.raises((MassDriftError, NonFiniteFieldError)) as err:
        run()
    return type(err.value), str(err.value)


def test_final_state_trips_the_mass_drift_guard_as_evolve_does(monkeypatch):
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    u0 = gaussian(grid, width=1.0, amplitude=1.0)
    cfg = EvolveConfig(params, t_end=0.2, dt=2e-3, snapshot_stride=10**9, mass_drift_guard=1e-30)
    want = _guard_message(lambda: evolve(u0, cfg))
    monkeypatch.setattr(
        fnls.evolution, "EvolveConfig", functools.partial(EvolveConfig, mass_drift_guard=1e-30)
    )
    assert want[0] is MassDriftError
    assert _guard_message(lambda: final_state(u0, params, 0.2, 2e-3)) == want


def test_blanes_moan4_trips_the_mass_drift_guard_at_its_first_snapshot():
    # blanes_moan4's mass drift is roundoff, like Strang's, and the guard
    # reads it at each snapshot in the same message format.
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    u0 = gaussian(grid, width=1.0, amplitude=1.0)
    cfg = EvolveConfig(
        params, t_end=0.2, dt=2e-3, snapshot_stride=25, mass_drift_guard=1e-30,
        scheme="blanes_moan4",
    )
    with pytest.raises(MassDriftError, match=r"^mass drift guard tripped: .* at t = 0.05$"):
        evolve(u0, cfg)


def test_nonfinite_guard_checks_every_blanes_moan4_stage(monkeypatch):
    # The data of test_nonfinite_guard_trips_within_a_step_under_large_stride,
    # refocusing where the second step of 5 rotates its second stage, the
    # first that runs the rotation backwards: at 5 + (a_0 + a_1) 5 = 7.16.
    # The stages before it rotate 1.77 or more away from the focus, where
    # |u|^1000 is negligible.
    grid = Grid(1, 1024, 64.0)
    params = ModelParams(d=1, sigma=1.0, p=1001, mu=1, nu=1.0)
    linear, nonlinear, _ = SCHEMES["blanes_moan4"]
    assert nonlinear[1] < 0
    focus = 5.0 + (linear[0] + linear[1]) * 5.0
    u0 = linear_propagate(gaussian(grid, width=0.5, amplitude=2.4), -focus, params.sigma)
    peaks = []
    rotate = fnls.evolution._rotate

    def recording_rotate(w, t, mu, p):
        peaks.append(rotate(w, t, mu, p))
        return peaks[-1]

    monkeypatch.setattr(fnls.evolution, "_rotate", recording_rotate)
    cfg = EvolveConfig(params, t_end=10.0, dt=5.0, snapshot_stride=10**9, scheme="blanes_moan4")
    with np.errstate(all="ignore"), pytest.raises(NonFiniteFieldError, match=r"at t = 10$"):
        evolve(u0, cfg)
    # It raises at the step's second stage, with the step's end time.
    assert len(peaks) == 6 + 2
    assert np.all(np.isfinite(peaks[:-1])) and not np.isfinite(peaks[-1])


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_schemes_are_symmetric_splittings_of_one_step(scheme):
    linear, nonlinear, multiple = SCHEMES[scheme]
    assert linear == linear[::-1] and nonlinear == nonlinear[::-1]
    assert len(linear) == len(nonlinear) + 1
    assert math.fsum(linear) == pytest.approx(1, abs=1e-15)
    assert math.fsum(nonlinear) == pytest.approx(1, abs=1e-15)
    assert multiple >= 1


def _count_transforms(monkeypatch):
    """{"fftn": calls, "ifftn": calls} of numpy's n-dimensional FFTs from here on."""
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        transform = getattr(np.fft, name)

        def counting(*args, _transform=transform, _name=name, **kw):
            calls[_name] += 1
            return _transform(*args, **kw)

        monkeypatch.setattr(np.fft, name, counting)
    return calls


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_each_stage_takes_one_fft_pair(monkeypatch, scheme):
    # 7 equal steps, as t_end is not a whole number of dt, and snapshots
    # after steps 3, 6 and 7: the input's forward transform, one pair per
    # stage, and one inverse transform per snapshot after the first.
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    u0 = gaussian(grid, width=1.0, amplitude=1.0)
    calls = _count_transforms(monkeypatch)
    cfg = EvolveConfig(params, t_end=0.065, dt=0.01, snapshot_stride=3, scheme=scheme)
    traj = evolve(u0, cfg)
    stages = len(SCHEMES[scheme][1])
    assert len(traj.times) == 4
    assert calls == {"fftn": 1 + 7 * stages, "ifftn": 7 * stages + 3}


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_a_ragged_run_takes_equal_steps_no_longer_than_dt(scheme):
    # 0.405 is not a whole number of 0.01, so the run takes ceil(40.5) = 41
    # steps of 0.405 / 41: at stride 1 each gap is one step, and at stride 3
    # every gap but the last (after steps 39 and 41) is three.
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    u0 = gaussian(grid, width=1.0, amplitude=1.0)
    dt, t_end, h = 0.01, 0.405, 0.405 / 41
    assert h < dt
    for stride in (1, 3):
        cfg = EvolveConfig(params, t_end=t_end, dt=dt, snapshot_stride=stride, scheme=scheme)
        times = np.array(evolve(u0, cfg).times)
        assert len(times) == 1 + math.ceil(41 / stride)
        gaps = np.diff(times)
        assert np.all(np.abs(gaps[:-1] - stride * h) <= 1e-12)
        assert 0 < gaps[-1] <= stride * h + 1e-12
        assert abs(times[-1] - t_end) <= 1e-12


# (grid, params, dt, t_end, stride, amplitude) of runs whose phase bound is
# below roundoff; in both t_end is not a whole number of dt.
LINEAR_ONLY_CASES = {
    "1d-p7": (
        Grid(1, 256, 16 * np.pi), ModelParams(1, 0.75, 7, -1, 1.0), 1e-2, 0.405, 7, 1e-3
    ),
    "2d-p3-nu0.5": (
        Grid(2, (32, 64), (8 * np.pi, 12 * np.pi)), ModelParams(2, 0.8, 3, 1, 0.5),
        1e-2, 0.205, 7, 1e-9,
    ),
}


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("case", LINEAR_ONLY_CASES, ids=list(LINEAR_ONLY_CASES))
def test_linear_only_run_matches_the_unfused_loop_and_the_free_flow(case, scheme):
    grid, params, dt, t_end, stride, amplitude = LINEAR_ONLY_CASES[case]
    u0 = gaussian(grid, width=1.5, amplitude=amplitude, center=(0.3,) * grid.d)
    assert phase_bound(free_amplitude(fft(u0)), params, t_end, scheme) <= ROUNDOFF
    cfg = EvolveConfig(params, t_end=t_end, dt=dt, snapshot_stride=stride, scheme=scheme)
    traj = evolve(u0, cfg)
    times, fields, _ = _unfused_evolve(u0, cfg)
    assert traj.times == pytest.approx(times, rel=0, abs=1e-12)
    for t, got, want in zip(traj.times, traj.fields, fields):
        assert _rel(got.values, want.values) <= FIELD_TOL
        assert _rel(got.values, free_flow(u0, params, t).values) <= FIELD_TOL


def _scaled_to_bound(u0, params, t_end, scheme, theta):
    """u0 scaled so that its phase bound is theta: the bound goes as A^(p-1)."""
    bound = phase_bound(free_amplitude(fft(u0)), params, t_end, scheme)
    return ComplexField(u0.grid, (theta / bound) ** (1 / (params.p - 1)) * u0.values)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_a_run_below_the_bound_takes_only_its_snapshots_transforms(monkeypatch, scheme):
    # The runs of test_each_stage_takes_one_fft_pair, at p = 7 and scaled to
    # just below and just above the bound. Off its grid point, the Gaussian
    # has max |u| below ||w||_1 / n, so just above the bound the t = 0 L^inf
    # still passes and the L^1 test alone makes the run rotate.
    grid = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 7, 1, 1.0)
    t_end = 0.065
    stages = len(SCHEMES[scheme][1])
    want = {
        0.99: {"fftn": 1, "ifftn": 3},
        1.01: {"fftn": 1 + 7 * stages, "ifftn": 7 * stages + 3},
    }
    cfg = EvolveConfig(params, t_end=t_end, dt=0.01, snapshot_stride=3, scheme=scheme)
    for factor, transforms in want.items():
        u0 = _scaled_to_bound(
            gaussian(grid, width=1.0, center=(0.3,)), params, t_end, scheme, factor * ROUNDOFF
        )
        linf = lebesgue_norm(u0, np.inf)
        assert phase_bound(linf, params, t_end, scheme) < ROUNDOFF
        calls = _count_transforms(monkeypatch)
        assert len(evolve(u0, cfg).times) == 4
        assert calls == transforms, factor


def test_degenerate_runs_take_the_linear_flow(monkeypatch):
    grid = Grid(1, 64, 8 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    zero = ComplexField(grid, np.zeros(grid.shape, dtype=complex))
    assert phase_bound(0.0, params, 1.0) == 0.0
    assert phase_bound(1e300, params, 0.0) == 0.0
    calls = _count_transforms(monkeypatch)
    traj = evolve(zero, EvolveConfig(params, t_end=0.05, dt=0.01))
    assert calls == {"fftn": 1, "ifftn": 5}
    assert all(not np.any(u.values) for u in traj.fields)
    u0 = gaussian(grid, width=1.0, amplitude=1e3)
    traj = evolve(u0, EvolveConfig(params, t_end=0.0))
    assert traj.times == [0.0] and traj.final is u0
    assert calls == {"fftn": 2, "ifftn": 5}


def test_phase_bound_at_p_1001_neither_overflows_nor_warns():
    # The data of test_nonfinite_guard_trips_within_a_step_under_large_stride:
    # its t = 0 L^inf gives a bound far below roundoff, but it refocuses to
    # |u| = 2.4, and ||w||_1 / n, which bounds every linear flow's max |u|,
    # gives inf, so the run rotates and the guard trips.
    grid = Grid(1, 1024, 64.0)
    params = ModelParams(d=1, sigma=1.0, p=1001, mu=1, nu=1.0)
    u0 = linear_propagate(gaussian(grid, width=0.5, amplitude=2.4), -4.5, params.sigma)
    assert phase_bound(lebesgue_norm(u0, np.inf), params, 10.0) < ROUNDOFF
    assert free_amplitude(fft(u0)) >= 2.4 * (1 - 1e-12)
    assert phase_bound(free_amplitude(fft(u0)), params, 10.0) == math.inf
    assert phase_bound(1e300, params, 10.0, "blanes_moan4") == math.inf


def test_final_state_trips_the_nonfinite_guard_as_evolve_does():
    # The data of test_nonfinite_guard_trips_within_a_step_under_large_stride.
    grid = Grid(1, 1024, 64.0)
    params = ModelParams(d=1, sigma=1.0, p=1001, mu=1, nu=1.0)
    u0 = linear_propagate(gaussian(grid, width=0.5, amplitude=2.4), -4.5, params.sigma)
    cfg = EvolveConfig(params, t_end=10.0, dt=1.0, snapshot_stride=10**9)
    want = _guard_message(lambda: evolve(u0, cfg))
    assert want == (NonFiniteFieldError, "nonfinite field at t = 5")
    assert _guard_message(lambda: final_state(u0, params, 10.0, 1.0)) == want
