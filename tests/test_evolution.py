"""Strang splitting: conservation, order, exact limits, and the RK4 oracle."""

import numpy as np
import pytest

from fnls.errors import NonFiniteFieldError
from fnls.evolution import EvolveConfig, default_dt, evolve, scaling_transform
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.profiles import gaussian

GRID = Grid(1, 256, 16 * np.pi)
PARAMS = ModelParams(d=1, sigma=0.75, p=3, mu=1, nu=1.0)


def rk4_reference(u0, params, t_end, dt):
    """Integrating-factor RK4 reference integrator.

    Independent discretization-error model for validating the Strang solver:
    classical RK4 on the spectral variable w(t) = exp(-i t c |xi|^(2s)) u_hat(t),
    where only the nonlinearity remains stiff-free.
    """
    grid = u0.grid
    coeff = params.dispersion_coefficient
    phase = coeff * grid.k_squared**params.sigma

    def nonlinear_hat(u_hat, t):
        u = np.fft.ifftn(np.exp(1j * t * phase) * u_hat)
        f = 1j * params.mu * np.abs(u) ** (params.p - 1) * u
        return np.exp(-1j * t * phase) * np.fft.fftn(f)

    w = np.fft.fftn(u0.values)
    n_steps = int(round(t_end / dt))
    t = 0.0
    for _ in range(n_steps):
        k1 = nonlinear_hat(w, t)
        k2 = nonlinear_hat(w + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = nonlinear_hat(w + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = nonlinear_hat(w + dt * k3, t + dt)
        w = w + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    u_hat = np.exp(1j * t * phase) * w
    return ComplexField(grid, np.fft.ifftn(u_hat))


def test_default_dt_is_capped_by_grid_and_horizon():
    dt = default_dt(GRID, PARAMS, t_end=10.0)
    dx = GRID.L[0] / GRID.n[0]
    assert dt <= 0.1 * dx ** (2 * PARAMS.sigma) + 1e-15
    assert default_dt(GRID, PARAMS, t_end=1e-4) <= 1e-6 + 1e-15


def test_mass_conserved_to_roundoff():
    u0 = gaussian(GRID, amplitude=1.0)
    traj = evolve(u0, EvolveConfig(PARAMS, t_end=1.0, dt=1e-3, snapshot_stride=100))
    masses = [d["mass"] for d in traj.diagnostics]
    assert abs(masses[-1] - masses[0]) / masses[0] < 1e-12


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


def test_strang_step_is_second_order_against_rk4():
    u0 = gaussian(GRID, amplitude=0.5)
    ref = rk4_reference(u0, PARAMS, 0.25, 1e-4)
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        traj = evolve(u0, EvolveConfig(PARAMS, t_end=0.25, dt=dt, snapshot_stride=10**9))
        errs.append(np.max(np.abs(traj.final.values - ref.values)))
    orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 < q < 2.2 for q in orders)


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
