"""Small-data scattering probe via the Cauchy defect of the interaction picture."""

import math
from dataclasses import replace

import numpy as np

from ..evolution import (
    EvolveConfig, check_step, default_dt, free_amplitude, phase_bound, snapshots, step_plan,
)
from ..exponents import CRITICAL_LWP, critical_exponents, require_regime
from ..grid import Grid
from ..observables import scattering_defects
from ..io import write_field
from ..spectral import INHOMOGENEOUS, fft, sobolev_norm
from .report import ExperimentReport, sweep


SNAPSHOTS = 40  # a run's snapshot spacing is t_end / SNAPSHOTS


def _fields(stream, last):
    """(t, u) of each (t, u, diagnostics) of stream; last[0] holds the latest u."""
    for t, u, _ in stream:
        last[:] = [u]
        yield t, u


def run_scattering_probe(
    profile,
    params,
    amplitude_list=(1e-3,),
    t_end=20.0,
    grid=None,
    dt=None,
    windows=((5.0, 10.0), (10.0, 20.0)),
    save_dir=None,
):
    """Evolve small data and report the defect decay across time windows.

    amplitude_list is a sweep (`report.sweep`): positive, finite and
    distinct amplitude factors, run in increasing order. The run snapshots every tau
    = t_end / `SNAPSHOTS` on one clock: it takes `evolution.step_plan`(tau,
    min(dt, tau))'s "blanes_moan4" steps h = tau / ceil(tau / dt), so dt (by
    default the scheme's, and checked against t_end by
    `evolution.check_step`) is its longest step. There must be
    two windows or more, each (lo, hi) with 0 <= lo < hi <= t_end, ending at
    or before the next one starts, and with edges that are multiples of tau to
    1e-9 tau, or the probe raises ValueError before any run. A window sums the
    Duhamel increments k, from k tau to (k + 1) tau, with lo / tau <= k < hi /
    tau; the defect decays when each window's sum is below the one before.
    Each run streams: `evolution.snapshots` feeds one `scattering_defects`
    pass, and only the latest field is kept besides, for save_dir. The report
    inputs record nu, the scheme, the step taken as dt, steps, tau as
    snapshot_spacing, the snapshot count and each amplitude's
    `evolution.phase_bound`, whose use the `fnls.evolution` module docstring
    states. Each datum is `ProfileSpec`'s, and all are checked before the first run.
    """
    d, sigma, p = params.d, params.sigma, params.p
    s_c, _ = critical_exponents(d, p, sigma)
    require_regime(CRITICAL_LWP, d, p, sigma, s_c, "scattering probe")
    amplitude_list = sweep(amplitude_list, "amplitude_list", 1, "to probe")
    if len(windows) < 2:
        raise ValueError(f"windows needs at least two (lo, hi) pairs; got {len(windows)}")
    for lo, hi in windows:
        if not 0 <= lo < hi <= t_end:
            raise ValueError(
                f"windows must satisfy 0 <= lo < hi <= t_end = {t_end:g}; got ({lo:g}, {hi:g})"
            )
    for (lo0, hi0), (lo1, hi1) in zip(windows, windows[1:]):
        if hi0 > lo1:
            raise ValueError(
                "windows must follow each other in time, each ending at or before the "
                f"next one's start; got ({lo0:g}, {hi0:g}) then ({lo1:g}, {hi1:g})"
            )
    tau = t_end / SNAPSHOTS
    for edge in np.ravel(windows):
        if abs(edge / tau - round(edge / tau)) > 1e-9:
            spacing = f"the snapshot spacing t_end/{SNAPSHOTS} = {tau:g}"
            raise ValueError(f"window edges must be multiples of {spacing}; got {edge:g}")
    if grid is None:
        grid = Grid(d, 8192, 128 * np.pi)
    scheme = "blanes_moan4"
    if dt is None:
        dt = default_dt(grid, params, t_end, scheme)
    check_step(dt, t_end)
    stride, h = step_plan(tau, min(dt, tau))  # tau / h steps of h
    cfg = EvolveConfig(params, t_end, h, stride, scheme=scheme)

    report = ExperimentReport(
        "scattering_probe",
        inputs={
            "d": d,
            "sigma": sigma,
            "p": p,
            "mu": params.mu,
            "nu": params.nu,
            "s_c": s_c,
            "amplitudes": list(amplitude_list),
            "t_end": t_end,
            "scheme": scheme,
            "n": grid.n,
            "L": grid.L,
            "dt": h,
            "steps": SNAPSHOTS * stride,
            "snapshot_spacing": tau,
            "snapshots": SNAPSHOTS + 1,
            "windows": list(windows),
            "phase_bound": [],
        },
    )

    data = [  # realized, and so checked by ProfileSpec, before the first run
        replace(profile, amplitude=a * profile.amplitude).realize(grid) for a in amplitude_list
    ]
    for amp, u0 in zip(amplitude_list, data):
        hc0 = sobolev_norm(u0, s_c, INHOMOGENEOUS)
        report.inputs["phase_bound"].append(
            phase_bound(free_amplitude(fft(u0)), params, t_end, scheme)
        )
        last = [None]  # the latest field
        increments = []  # the Duhamel increment k, from k tau to (k + 1) tau
        stream = _fields(snapshots(u0, cfg), last)
        for t_lo, t_hi, direct, duhamel in scattering_defects(stream, params, s_c):
            report.add_row(
                amplitude=amp, t_lo=t_lo, t_hi=t_hi, defect_direct=direct, defect_duhamel=duhamel
            )
            increments.append(duhamel)
        if save_dir is not None:
            write_field(f"{save_dir}/scatter_final_amp{amp:g}.fnls", last[0])
        report.fits[f"initial_hsc_amp{amp:g}"] = hc0
        sums = [math.fsum(increments[round(lo / tau):round(hi / tau)]) for lo, hi in windows]
        for (lo, hi), total in zip(windows, sums):
            report.fits[f"defect[{lo:g},{hi:g}]_amp{amp:g}"] = total
        report.checks[f"defect_decays_amp{amp:g}"] = all(
            later < earlier for earlier, later in zip(sums, sums[1:])
        )
    return report
