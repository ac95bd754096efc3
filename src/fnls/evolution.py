"""Splitting time integration of the fractional NLS: Strang and Yoshida's triple jump.

Both substeps are exact flows: the linear flow exp(i t omega), for the
dispersion relation omega = nu^(2 sigma) |xi|^(2 sigma) that `snapshots`
evaluates once per run, is a unimodular multiplier, and the zero-dispersion
nonlinearity is a pointwise phase rotation, so each substep conserves mass
to roundoff. Both run backwards too, so Yoshida's symmetric composition of
Strang substeps of sizes (x1, x0, x1) h, with x0 < 0, is fourth order
(H. Yoshida, Phys. Lett. A 150 (1990) 262). `SCHEMES` holds each scheme's
substep coefficients. As the propagators compose exactly, `snapshots` merges
the closing half-step of one substep with the opening half-step of the next.
It holds the spectrum of the solution and runs one in-place FFT pair per
substep: the pending linear half-steps in spectrum, the rotation in space,
and back. A snapshot applies the closing half-step to a copy, whose
diagnostics `observables.field_diagnostics` takes with omega (so its energy
is the conserved one) before inverting it in place; the held spectrum is
unchanged.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MassDriftError, NonFiniteFieldError
from .grid import ComplexField, abs_power
from .model import ModelParams
from .observables import field_diagnostics
from .spectral import apply_multiplier, fft, rescale
from .symbols import LinearPropagator


_YOSHIDA_X1 = 1 / (2 - 2 ** (1 / 3))

# name -> (substep coefficients, default-dt multiple). A step of size h runs
# one Strang substep of size c h per coefficient c. yoshida4's multiple keeps
# its default-dt error at or below Strang's: on criterion 11's grid and p = 7,
# 8x Strang's dt left a larger field error than Strang at amplitude 1.
SCHEMES = {
    "strang": ((1,), 1),
    "yoshida4": ((_YOSHIDA_X1, -(2 ** (1 / 3)) * _YOSHIDA_X1, _YOSHIDA_X1), 6),
}


def default_dt(grid, params, t_end, scheme="strang"):
    """The scheme's multiple of 0.1 dx^(2 sigma), within t_end/100.

    A Strang step of 0.1 dx^(2 sigma) turns the Nyquist linear phase by ~0.6
    rad at nu = 1. The rule leaves out nu^(2 sigma), so at nu < 1 that phase
    is nu^(2 sigma) times smaller.
    """
    dx = min(grid.dx)
    dt = 0.1 * dx ** (2 * params.sigma) * SCHEMES[scheme][1]
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


def linear_propagate(u, t, sigma):
    """Exact linear flow: spectrum times exp(i t |xi|^(2 sigma))."""
    return apply_multiplier(u, LinearPropagator(t, sigma))


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


def nonlinear_phase(u, t, mu, p):
    """Exact zero-dispersion flow: u * exp(i t mu |u|^(p-1))."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    w = u.values.copy()
    _rotate(w, t, mu, p)
    return ComplexField(u.grid, w)


@dataclass
class EvolveConfig:
    params: ModelParams
    t_end: float
    dt: float | None = None
    snapshot_stride: int = 1
    mass_drift_guard: float = 1e-8
    scheme: str = "strang"

    def __post_init__(self):
        # In the `not x > 0` form, so that NaN fails as well.
        if not 0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and >= 0")
        if self.dt is not None and not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.t_end > 0 and self.dt is not None and self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        stride = self.snapshot_stride
        if not (stride >= 1 and (stride == math.inf or stride % 1 == 0)):
            raise ValueError("snapshot stride must be a whole number >= 1 or inf")
        if not self.mass_drift_guard > 0:
            raise ValueError("mass_drift_guard must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {', '.join(SCHEMES)}; got {self.scheme!r}")


@dataclass
class Trajectory:
    """Time-stamped field snapshots with per-snapshot diagnostics."""

    times: list = field(default_factory=list)
    fields: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def __iter__(self):
        """(t, field) per snapshot, the pairs that spacetime_norm and the defects read."""
        return zip(self.times, self.fields)

    @property
    def final(self):
        return self.fields[-1]


def snapshots(u0, cfg):
    """Yield (t, u, diagnostics) at t = 0, every stride steps and cfg.t_end.

    A step of size h runs one substep of size c h for each coefficient c of
    `SCHEMES[cfg.scheme]`. Every substep, those of the remainder step that
    ends a run off the dt grid included, takes one path: it applies the
    previous substep's closing half-step, sets `close` = exp(i (c h/2) omega)
    and applies it, and rotates by c h in space between one FFT pair. Each
    distinct substep size gets its propagator once per run, and the
    remainder step gets its own. A snapshot closes with the last `close`. A
    substep whose rotation is not finite raises at its step's end time, and
    a snapshot that trips the mass-drift or non-finite guard raises instead.
    """
    params = cfg.params
    grid = u0.grid
    coefficients = SCHEMES[cfg.scheme][0]
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, params, cfg.t_end, cfg.scheme)
    omega = params.dispersion(grid)

    def propagator(tau):
        # The real product first, on purpose: built as (1j * tau) * omega, they
        # left the heap so that a 2D 256^2 run's steps faulted in ~3x the pages.
        return np.exp(1j * (tau * omega))

    def substeps(h):
        """(size, opening half-step propagator) of each substep of a step of size h."""
        halves = {c: propagator(c * h / 2) for c in set(coefficients)}
        return [(c * h, halves[c]) for c in coefficients]

    def row(t, spectrum, u=None):
        """(u, diagnostics); without u, spectrum is inverted in place to give it."""
        try:
            u, diagnostics = field_diagnostics(grid, spectrum, omega, params.mu, params.p, u)
        except NonFiniteFieldError:
            raise NonFiniteFieldError(f"nonfinite field at t = {t:.6g}") from None
        return u, {"time": float(t), **diagnostics, "boundary_amplitude": u.boundary_amplitude()}

    # The held state. After a substep it is the spectrum still owing that
    # substep's closing half-step `close`, which the next substep or a
    # snapshot applies.
    w = fft(u0)
    _, first = row(0.0, w, u0)
    yield 0.0, u0, first

    mass0 = first["mass"]
    n_full, remainder, total_steps = step_plan(cfg.t_end, dt)
    plan, close = substeps(dt), None

    t = 0.0
    for step in range(total_steps):
        if step == n_full:  # the shorter remainder step that ends the run at t_end
            dt, plan = remainder, substeps(remainder)
        t += dt
        for size, half in plan:
            if close is not None:
                w *= close  # the previous substep's closing half-step
            w *= half
            close = half
            np.fft.ifftn(w, out=w)
            peak = _rotate(w, size, params.mu, params.p)
            np.fft.fftn(w, out=w)
            if not np.isfinite(peak):
                raise NonFiniteFieldError(f"nonfinite field at t = {t:.6g}")

        last = step == total_steps - 1
        if (step + 1) % cfg.snapshot_stride == 0 or last:
            u, diagnostics = row(t, close * w)
            drift = abs(diagnostics["mass"] - mass0) / max(mass0, 1e-300)
            if drift > cfg.mass_drift_guard:
                raise MassDriftError(
                    f"mass drift guard tripped: relative drift {drift:.3e} at t = {t:.6g}"
                )
            yield t, u, diagnostics


def evolve(u0, cfg):
    """Integrate to cfg.t_end with cfg.scheme's steps, snapshotting every stride."""
    times, fields, diagnostics = zip(*snapshots(u0, cfg))
    return Trajectory(list(times), list(fields), list(diagnostics))


def final_state(u0, params, t_end, dt=None):
    """The field at t_end; an infinite stride takes no snapshot in between."""
    for _, u, _ in snapshots(u0, EvolveConfig(params, t_end, dt, snapshot_stride=math.inf)):
        pass
    return u


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
