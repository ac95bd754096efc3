"""Small-data scattering probe via the Cauchy defect of the interaction picture."""

import numpy as np

from ..evolution import EvolveConfig, default_dt, free_amplitude, phase_bound, snapshots, step_plan
from ..exponents import CRITICAL_LWP, critical_exponents, require_regime
from ..grid import Grid
from ..observables import scattering_defects
from ..io import write_field
from ..spectral import INHOMOGENEOUS, fft, sobolev_norm
from .report import ExperimentReport


def _tallied(stream, last):
    """(t, u) of each (t, u, diagnostics) of stream; last holds the count so far and u."""
    for t, u, _ in stream:
        last[:] = last[0] + 1, u
        yield t, u


def run_scattering_probe(
    profile,
    params,
    amplitude_list=(1e-3,),
    t_end=20.0,
    grid=None,
    dt=None,
    snapshot_stride=None,
    windows=((5.0, 10.0), (10.0, 20.0)),
    save_dir=None,
):
    """Evolve small data and report the defect decay across time windows.

    Each amplitude's run streams: `evolution.snapshots` feeds one
    `scattering_defects` pass directly, and only the snapshot count and the
    latest field are kept besides, so the working set is a fixed number of
    fields whatever the snapshot count; the final field is written to
    save_dir after the pass. There must be two windows or more, each (lo, hi)
    with 0 <= lo < hi <= t_end and each ending where or before the next
    starts, or the probe raises ValueError before any run; the defect decays
    when each window's sum is below the one before.
    The pass reports the defect series twice: as consecutive H^(s_c)
    distances of the snapshots propagated back under the run's dispersion
    nu^(2 sigma) |xi|^(2 sigma) (the direct definition, which sits at the
    double-precision noise floor for tiny amplitudes) and as the same
    increments evaluated through the Duhamel integrand, which resolves the
    nonlinear signal at any amplitude. Window comparisons use the Duhamel
    form, each increment binned by its midpoint. The run takes fourth-order
    "blanes_moan4" steps, of its default dt unless dt is given: on criterion
    11's grid they are at least as accurate as Strang steps of a twentieth
    of the size and take under a third of the FFT pairs. Without
    a snapshot_stride the run takes ~40 snapshots; the report inputs record
    nu, the scheme and the resolved dt, steps, snapshot_stride and snapshots,
    and each amplitude's `evolution.phase_bound` as phase_bound: a run whose
    bound is at most `evolution.ROUNDOFF` (2^-53) takes its linear flow and
    skips its rotations.
    """
    d, sigma, p = params.d, params.sigma, params.p
    s_c, _ = critical_exponents(d, p, sigma)
    require_regime(CRITICAL_LWP, d, p, sigma, s_c, "scattering probe")
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
    if grid is None:
        grid = Grid(d, 8192, 128 * np.pi)
    scheme = "blanes_moan4"
    if dt is None:
        dt = default_dt(grid, params, t_end, scheme)
    if snapshot_stride is None:
        # ~40 snapshots across the run.
        snapshot_stride = max(1, round(t_end / dt / 40))

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
            "dt": dt,
            "steps": step_plan(t_end, dt)[0],
            "snapshot_stride": snapshot_stride,
            "windows": list(windows),
            "phase_bound": [],
        },
    )

    for amp in amplitude_list:
        u0 = amp * profile.realize(grid)
        hc0 = sobolev_norm(u0, s_c, INHOMOGENEOUS)
        report.inputs["phase_bound"].append(
            phase_bound(free_amplitude(fft(u0)), params, t_end, scheme)
        )
        cfg = EvolveConfig(
            params, t_end=t_end, dt=dt, snapshot_stride=snapshot_stride, scheme=scheme
        )
        last = [0, None]  # the snapshot count and the latest field
        stream = _tallied(snapshots(u0, cfg), last)
        window_sums = {(lo, hi): 0.0 for lo, hi in windows}
        for t_lo, t_hi, direct, duhamel in scattering_defects(stream, params, s_c):
            report.add_row(
                amplitude=amp, t_lo=t_lo, t_hi=t_hi, defect_direct=direct, defect_duhamel=duhamel
            )
            t_mid = 0.5 * (t_lo + t_hi)
            for lo, hi in window_sums:
                if lo <= t_mid < hi:
                    window_sums[(lo, hi)] += duhamel
        report.inputs["snapshots"], final = last
        if save_dir is not None:
            write_field(f"{save_dir}/scatter_final_amp{amp:g}.fnls", final)
        report.fits[f"initial_hsc_amp{amp:g}"] = hc0
        for (lo, hi), total in window_sums.items():
            report.fits[f"defect[{lo:g},{hi:g}]_amp{amp:g}"] = total
        sums = list(window_sums.values())
        report.checks[f"defect_decays_amp{amp:g}"] = all(
            later < earlier for earlier, later in zip(sums, sums[1:])
        )
    return report
