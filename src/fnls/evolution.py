"""Strang-splitting time integration of the fractional NLS.

Both substeps are exact flows: the linear propagator L(t) is a unimodular
multiplier and the zero-dispersion nonlinearity is a pointwise phase
rotation, so each step conserves mass to roundoff. Because L(a) L(b) =
L(a + b) exactly, `evolve` merges the closing half-step of one step with
the opening half-step of the next. It holds the spectrum of the solution
and runs one in-place FFT pair per step: the pending linear half-steps in
spectrum, the rotation in space, and back. A snapshot applies the closing
half-step to a copy, takes the kinetic energy from that spectrum by
Plancherel and inverts it once; the held spectrum is left unchanged.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MassDriftError, NonFiniteFieldError
from .grid import ComplexField, abs_power
from .model import ModelParams
from .observables import mass
from .spectral import field_from_spectrum, fft, plancherel, rescale
from .symbols import FractionalLaplacian, LinearPropagator, evaluate_symbol


def default_dt(grid, params, t_end):
    """Resolve the Nyquist linear phase to ~0.6 rad/step, within t_end/100."""
    dx = min(grid.dx)
    dt = 0.1 * dx ** (2 * params.sigma)
    if t_end > 0:
        dt = min(dt, t_end / 100)
    return dt


def step_plan(t_end, dt):
    """(full steps, remainder, total steps) of a run to t_end in steps of dt.

    A shorter remainder step closes the run when t_end is not a whole
    number of steps.
    """
    n_full = int(np.floor(t_end / dt + 1e-12))
    remainder = t_end - n_full * dt
    return n_full, remainder, n_full + (1 if remainder > 1e-12 * dt else 0)


def _propagator(grid, params, t):
    return evaluate_symbol(LinearPropagator(t, params.sigma, params.nu), grid)


def linear_propagate(u, t, sigma, nu=1.0):
    """Exact linear flow: spectrum times exp(i t nu^(2 sigma) |xi|^(2 sigma))."""
    m = evaluate_symbol(LinearPropagator(t, sigma, nu), u.grid)
    return field_from_spectrum(u.grid, m * fft(u))


def _rotate(w, t, mu, p):
    """In place: w <- w exp(i t mu |w|^(p-1)), with 0 -> 0 for any p > 1.

    Returns max |w|^(p-1) before the rotation, which is not finite exactly
    when w or the rotation is not.
    """
    a = abs_power(w, p - 1)
    peak = a.max()
    a *= t * mu
    phase = np.empty_like(w)
    np.cos(a, out=phase.real)
    np.sin(a, out=phase.imag)
    w *= phase
    return peak


def _split_step(w, opening, dt, params):
    """In place on a spectrum w: opening multiplier, nonlinear flow over dt.

    The rotation runs in space between one inverse and one forward FFT.
    Returns `_rotate`'s peak.
    """
    w *= opening
    np.fft.ifftn(w, out=w)
    peak = _rotate(w, dt, params.mu, params.p)
    np.fft.fftn(w, out=w)
    return peak


def nonlinear_phase(u, t, mu, p):
    """Exact zero-dispersion flow: u * exp(i t mu |u|^(p-1))."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    w = u.values.copy()
    _rotate(w, t, mu, p)
    return ComplexField(u.grid, w)


def strang_step(u, dt, params):
    """linear(dt/2) o nonlinear(dt) o linear(dt/2)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    half = _propagator(u.grid, params, dt / 2)
    w = fft(u)
    _split_step(w, half, dt, params)
    return field_from_spectrum(u.grid, half * w)


@dataclass
class EvolveConfig:
    params: ModelParams
    t_end: float
    dt: float | None = None
    snapshot_stride: int = 1
    mass_drift_guard: float = 1e-8

    def __post_init__(self):
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end > 0 and self.dt is not None and self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot stride must be >= 1")


@dataclass
class Trajectory:
    """Time-stamped field snapshots with per-snapshot diagnostics."""

    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def append(self, t, u, energy):
        """Record snapshot u at time t; its energy comes from the caller."""
        self.times.append(float(t))
        self.fields.append(u)
        self.diagnostics.append(
            {
                "time": float(t),
                "mass": mass(u),
                "energy": energy,
                "linf": float(np.max(np.abs(u.values))),
                "boundary_amplitude": u.boundary_amplitude(),
            }
        )

    @property
    def final(self):
        return self.fields[-1]


def _potential_energy(u, params):
    """Integral of mu/(p+1) |u|^(p+1), as in observables.energy."""
    dens = np.sum(abs_power(u.values, params.p + 1))
    return float((params.mu / (params.p + 1)) * dens * u.grid.cell_volume)


def evolve(u0, cfg):
    """Integrate to cfg.t_end with Strang steps, snapshotting every stride."""
    params = cfg.params
    grid = u0.grid
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, params, cfg.t_end)
    laplacian = evaluate_symbol(FractionalLaplacian(params.sigma), grid)
    # The held state. After a step it is the spectrum still owing that step's
    # closing half-step, which the next step's opening or a snapshot applies.
    w = fft(u0)
    traj = Trajectory()
    kinetic = 0.5 * plancherel(w, laplacian, grid)
    traj.append(0.0, u0, kinetic + _potential_energy(u0, params))
    if cfg.t_end == 0:
        return traj

    mass0 = traj.diagnostics[0]["mass"]
    n_full, remainder, total_steps = step_plan(cfg.t_end, dt)
    half = _propagator(grid, params, dt / 2)

    t = 0.0
    for step in range(total_steps):
        if step < n_full:
            step_dt, opening = dt, half
            if step > 0:
                w *= half  # the previous step's closing half-step
        else:
            step_dt = remainder
            owed = dt / 2 if step > 0 else 0.0
            opening = _propagator(grid, params, owed + remainder / 2)
        peak = _split_step(w, opening, step_dt, params)
        t += step_dt
        if not np.isfinite(peak):
            raise NonFiniteFieldError(f"nonfinite field at t = {t:.6g}")

        last = step == total_steps - 1
        if (step + 1) % cfg.snapshot_stride == 0 or last:
            close = half if step < n_full else _propagator(grid, params, remainder / 2)
            v = close * w
            kinetic = 0.5 * plancherel(v, laplacian, grid)
            np.fft.ifftn(v, out=v)
            try:
                u = ComplexField(grid, v)
            except NonFiniteFieldError:
                raise NonFiniteFieldError(f"nonfinite field at t = {t:.6g}") from None
            traj.append(t, u, kinetic + _potential_energy(u, params))
            drift = abs(traj.diagnostics[-1]["mass"] - mass0) / max(mass0, 1e-300)
            if drift > cfg.mass_drift_guard:
                raise MassDriftError(
                    f"mass drift guard tripped: relative drift {drift:.3e} at t = {t:.6g}"
                )
    return traj


def scaling_transform(u, lam, params):
    """Scaling symmetry: lambda^(-2 sigma/(p-1)) u(x / lambda) on the box lambda L.

    Returns (field, time_scale) with time_scale = lambda^(2 sigma): if u
    solves the equation, the returned field at time t corresponds to u at
    time t / time_scale.
    """
    j = np.log2(lam)
    if abs(j - round(j)) > 1e-12:
        raise ValueError("lambda must be a power of two")
    j = int(round(j))
    if j >= 0:
        n_target = tuple(nj * 2**j for nj in u.grid.n)
    else:
        n_target = tuple(max(nj // 2 ** (-j), 8) for nj in u.grid.n)
    scaled = rescale(u, 1.0 / lam, n_target)
    amp = lam ** (-2 * params.sigma / (params.p - 1))
    return ComplexField(scaled.grid, amp * scaled.values), lam ** (2 * params.sigma)
