"""Splitting time integration of the fractional NLS: Strang and Blanes–Moan.

Both flows are exact: the linear flow exp(i t omega), for the dispersion
relation omega = nu^(2 sigma) |xi|^(2 sigma) that `snapshots` evaluates once
per run, is a unimodular multiplier, and the zero-dispersion nonlinearity is
a pointwise phase rotation, so each stage conserves mass to roundoff. Both
run backwards too, so a symmetric splitting with negative fractions is
allowed. A scheme is its linear fractions a_0 ... a_s and its nonlinear
fractions b_1 ... b_s: a step of size h runs the linear flow for a_0 h, the
rotation for b_1 h, the linear flow for a_1 h, and so on, closing with the
linear flow for a_s h. `SCHEMES` holds Strang, ((1/2, 1/2), (1,)), and the
fourth-order six-stage method of S. Blanes and P. C. Moan, J. Comput. Appl.
Math. 142 (2002) 313, whose error per FFT pair is far below that of Yoshida's
triple jump. `snapshots` holds the spectrum of the solution and runs one
in-place FFT pair per stage: the stage's linear flow in spectrum, the
rotation in space, and back. A step ends with its closing flow, so between
steps the held spectrum is the solution's at the step's end. A snapshot
before the last copies it, and `observables.field_diagnostics` takes the
copy's diagnostics with omega (so its energy is the conserved one) before
inverting it in place. The run's last snapshot drops every propagator and
inverts the held spectrum itself to the field it yields. A run takes equal
steps (`step_plan`), so each propagator, `symbols.linear_flow` of omega, is
built once per run, and between snapshots a rotating run's working set is
the spectrum, omega, one propagator per distinct linear fraction and one
block (`grid.BLOCK` samples) of the rotation's temporaries; a snapshot adds a
real |u|^2 array, and a copy of the spectrum unless it is the last.

A run whose rotations cannot change the field skips them. All the rotations
of a run together turn a sample by at most Theta = |mu| (sum_i |b_i|)
t_end A^(p-1), A a bound of max |u| over the run (`phase_bound`). While only
linear flows act, A = ||w||_1 / n (`free_amplitude`) is one: every sample
is at most the mean of the |w_k|, which a linear flow keeps. If Theta <=
2^-53 (`ROUNDOFF`), dropping the rotations moves the field by at most
Theta of its L^2 norm, up to terms of order Theta^2, so `snapshots` decides
this once per run, from this one bound of the input. Linear flows compose,
so such a run jumps from snapshot to snapshot: one multiply by exp(i n h
omega) per interval of n steps, with one propagator for the stride, one for
a ragged last interval at most, and no stage's. Small scattering data, a
zero field and t_end = 0 take this path; a run that rotates keeps every
operation, bit for bit.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import MassDriftError, NonFiniteFieldError
from .grid import ComplexField, abs_power, blocks
from .model import ModelParams
from .observables import field_diagnostics
from .spectral import apply_multiplier, fft
from .symbols import LinearPropagator, linear_flow


# The first halves of the two palindromes of Blanes and Moan's six-stage
# method, to the digits of their paper.
_BM_A = (0.0792036964311957, 0.353172906049774, -0.0420650803577195)
_BM_B = (0.209515106613362, -0.143851773179818)

# name -> (linear fractions a_0 ... a_s, nonlinear fractions b_1 ... b_s,
# default-dt multiple). A step runs one FFT pair per nonlinear fraction.
# blanes_moan4's multiple keeps its default-dt field error at or below
# Strang's: on criterion 11's grid, p = 7, amplitude 1 and t_end 10, 20x
# Strang's dt left 2.0e-8 from the RK4 oracle against Strang's 3.2e-7, in
# 978 FFT pairs against 3,251.
SCHEMES = {
    "strang": ((0.5, 0.5), (1,), 1),
    "blanes_moan4": (
        _BM_A + (1 - 2 * sum(_BM_A),) + _BM_A[::-1],
        _BM_B + (0.5 - sum(_BM_B),) * 2 + _BM_B[::-1],
        20,
    ),
}


# A run whose phase bound is at most this skips its rotations.
ROUNDOFF = np.finfo(float).eps / 2


def phase_bound(amplitude, params, t_end, scheme="strang"):
    """Theta = |mu| (sum_i |b_i|) t_end A^(p-1) for A = amplitude.

    A bound of the angle by which all the rotations of a run to t_end turn
    a sample, when A bounds max |u| over the run. Taken in log space, so a
    huge A^(p-1) gives inf rather than an overflow.
    """
    if amplitude == 0 or t_end == 0:
        return 0.0
    rotation = abs(params.mu) * sum(abs(b) for b in SCHEMES[scheme][1]) * t_end
    log_theta = math.log(rotation) + (params.p - 1) * math.log(amplitude)
    return math.exp(log_theta) if log_theta < 709 else math.inf


def free_amplitude(spectrum):
    """||w||_1 / n of an unnormalized spectrum: max |u| under any linear flow is at most this.

    Summed block by block (`grid.blocks`), so its one temporary is a block of |w|.
    """
    flat = spectrum.reshape(-1)
    return float(sum(np.abs(flat[s]).sum() for s in blocks(flat.size))) / flat.size


def default_dt(grid, params, t_end, scheme="strang"):
    """The scheme's multiple of 0.1 dx^(2 sigma), within s t_end/100.

    A Strang step of 0.1 dx^(2 sigma) turns the Nyquist linear phase by ~0.6
    rad at nu = 1. The rule leaves out nu^(2 sigma), so at nu < 1 that phase
    is nu^(2 sigma) times smaller. The cap counts FFT pairs: a run takes at
    least 100 of them, s per step for a scheme of s stages, so a Strang run
    takes at least 100 steps.
    """
    dx = min(grid.dx)
    _, nonlinear, multiple = SCHEMES[scheme]
    dt = 0.1 * dx ** (2 * params.sigma) * multiple
    if t_end > 0:
        dt = min(dt, len(nonlinear) * t_end / 100)
    return dt


MAX_STEPS = 10**9  # a plan's bound; no run of the package takes over ~13k steps


def check_step(dt, t_end, key="dt", horizon="t_end"):
    """ValueError, naming t_end by horizon and dt by key, unless t_end is
    finite and >= 0 and dt is None (the scheme's default) or positive, finite
    and at most a positive t_end: the one check of a run's step against its end.
    """
    if not 0 <= t_end < math.inf:
        raise ValueError(f"{horizon} must be finite and >= 0; got {t_end:g}")
    if dt is None:
        return
    if not 0 < dt < math.inf:
        raise ValueError(f"{key} must be positive and finite; got {dt:g}")
    if dt > t_end > 0:
        raise ValueError(f"{key} must not exceed {horizon} = {t_end:g}; got {dt:g}")


def step_plan(t_end, dt):
    """(steps, step) of a run to t_end in equal steps of at most dt.

    Whole steps of dt when they tile t_end to 1e-12 of the longer of the two,
    so a rounded t_end / n plans n steps of itself; otherwise n = ceil(t_end
    / dt) steps of t_end / n, each shorter than dt. A (dt, t_end) that
    `check_step` refuses, or a plan over MAX_STEPS steps, raises ValueError.
    """
    check_step(dt, t_end)
    ratio = t_end / dt
    if not ratio <= MAX_STEPS:
        raise ValueError(
            f"a run to t_end = {t_end:g} in steps of at most dt = {dt:g} "
            f"takes more than MAX_STEPS = {MAX_STEPS:.0e} steps"
        )
    steps = int(np.floor(ratio + 1e-12 * max(1.0, ratio)))
    tiled = t_end - steps * dt <= 1e-12 * max(dt, t_end)
    return (steps, dt) if tiled else (steps + 1, t_end / (steps + 1))


def linear_propagate(u, t, sigma):
    """The exact nu = 1 linear flow: spectrum times `LinearPropagator(t, sigma)`.

    Kept only for `bench/probes.py`; the package's runs take
    `symbols.linear_flow` of their dispersion array.
    """
    return apply_multiplier(u, LinearPropagator(t, sigma))


def _rotate(w, t, mu, p):
    """In place: w <- w exp(i t mu |w|^(p-1)), with 0 -> 0 for any p > 1.

    Returns the largest angle, max |w|^(p-1) |t mu|, which is not finite
    exactly when w or the rotation is not: a finite |w|^(p-1) whose angle
    overflows turns its sample into NaN. Works over the flattened C-contiguous
    w block by block (`grid.blocks`), so its temporaries take one block; the
    peak is taken with np.maximum, which keeps a NaN of any block.
    """
    flat = w.reshape(-1)
    angle = t * mu
    peak = 0.0
    for s in blocks(flat.size):
        v = flat[s]
        a = abs_power(v, p - 1)
        peak = np.maximum(peak, a.max())
        a *= angle
        phase = np.empty_like(v)
        np.cos(a, out=phase.real)
        np.sin(a, out=phase.imag)
        v *= phase
    return peak * abs(angle)


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
        check_step(self.dt, self.t_end)
        stride = self.snapshot_stride
        if not (stride >= 1 and (stride == math.inf or stride % 1 == 0)):
            raise ValueError("snapshot stride must be a whole number >= 1 or inf")
        # In the `not x > 0` form, so that NaN fails as well.
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

    The run takes `step_plan`'s equal steps h, so cfg.dt (or `default_dt`) is
    its longest step; step k ends at t = k h. How a step is split, and when a
    run skips its rotations and jumps from snapshot to snapshot, is the module
    docstring's. A stage whose rotation is not finite raises at its step's end
    time, a snapshot that trips the mass-drift or non-finite guard raises, and
    a model whose dimension is not the grid's or a plan that `step_plan`
    refuses raises ValueError before the first row.
    """
    params = cfg.params
    grid = u0.grid
    if grid.d != params.d:
        raise ValueError(f"the model's dimension d = {params.d} is not the grid's d = {grid.d}")
    linear, nonlinear, _ = SCHEMES[cfg.scheme]
    dt = cfg.dt if cfg.dt is not None else default_dt(grid, params, cfg.t_end, cfg.scheme)
    steps, h = step_plan(cfg.t_end, dt)
    omega = params.dispersion(grid)

    def row(t, spectrum, u=None):
        """(u, diagnostics); without u, spectrum is inverted in place to give it."""
        try:
            u, diagnostics = field_diagnostics(grid, spectrum, omega, params.mu, params.p, u)
        except NonFiniteFieldError:
            raise NonFiniteFieldError(f"nonfinite field at t = {t:.6g}") from None
        return u, {"time": float(t), **diagnostics, "boundary_amplitude": u.boundary_amplitude()}

    # The held state: the spectrum of the solution at the last step's end.
    w = fft(u0)
    _, first = row(0.0, w, u0)
    yield 0.0, u0, first

    mass0 = first["mass"]
    if phase_bound(free_amplitude(w), params, cfg.t_end, cfg.scheme) <= ROUNDOFF:
        flows = {}  # n -> the free flow over n steps: linear flows compose

        def advance(w, start, end):
            n = end - start
            if n not in flows:
                flows[n] = linear_flow(omega, n * h)
            w *= flows[n]
    else:
        flows = {a: linear_flow(omega, a * h) for a in set(linear)}

        def advance(w, start, end):
            for step in range(start + 1, end + 1):
                for a, b in zip(linear, nonlinear):
                    w *= flows[a]
                    np.fft.ifftn(w, out=w)
                    peak = _rotate(w, b * h, params.mu, params.p)
                    np.fft.fftn(w, out=w)
                    if not np.isfinite(peak):
                        raise NonFiniteFieldError(f"nonfinite field at t = {step * h:.6g}")
                w *= flows[linear[-1]]

    stride = int(min(cfg.snapshot_stride, steps or 1))
    for start in range(0, steps, stride):
        end = min(start + stride, steps)
        advance(w, start, end)
        t = end * h
        if end == steps:
            # The run's last row inverts the held spectrum in place, with no
            # propagator left alive.
            flows.clear()
            spectrum = w
        else:
            spectrum = w.copy()
        u, diagnostics = row(t, spectrum)
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
