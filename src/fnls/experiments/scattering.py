"""Small-data scattering probe via the Cauchy defect of the interaction picture."""

import numpy as np

from ..errors import RegimeError
from ..evolution import EvolveConfig, default_dt, evolve, step_plan
from ..exponents import critical_exponents
from ..grid import Grid
from ..observables import duhamel_defect_increments, scattering_defect
from ..io import write_field
from ..spectral import INHOMOGENEOUS, sobolev_norm
from .report import ExperimentReport


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

    The defect series is reported twice: as consecutive H^(s_c) distances of
    the backward-propagated snapshots (the direct definition, which sits at
    the double-precision noise floor for tiny amplitudes) and as the same
    increments evaluated through the Duhamel integrand, which resolves the
    nonlinear signal at any amplitude. Window comparisons use the Duhamel
    form. Without a snapshot_stride the run takes ~40 snapshots; the report
    inputs record the resolved dt, steps, snapshot_stride and snapshots.
    """
    d, sigma, p = params.d, params.sigma, params.p
    if not ((d == 1 and p > 5) or (d >= 2 and p > 3)):
        raise RegimeError(f"scattering probe needs d=1, p>5 or d>=2, p>3; got d={d}, p={p}")
    s_c, _ = critical_exponents(d, p, sigma)
    if grid is None:
        grid = Grid(d, 8192, 128 * np.pi)
    if dt is None:
        dt = default_dt(grid, params, t_end)
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
            "s_c": s_c,
            "amplitudes": list(amplitude_list),
            "t_end": t_end,
            "n": grid.n,
            "L": grid.L,
            "dt": dt,
            "steps": step_plan(t_end, dt)[2],
            "snapshot_stride": snapshot_stride,
            "windows": list(windows),
        },
    )

    for amp in amplitude_list:
        u0 = amp * profile.realize(grid)
        hc0 = sobolev_norm(u0, s_c, INHOMOGENEOUS)
        cfg = EvolveConfig(params, t_end=t_end, dt=dt, snapshot_stride=snapshot_stride)
        traj = evolve(u0, cfg)
        report.inputs["snapshots"] = len(traj.times)

        if save_dir is not None:
            write_field(f"{save_dir}/scatter_final_amp{amp:g}.fnls", traj.final)
        direct = scattering_defect(traj, sigma, s_c)
        duhamel = duhamel_defect_increments(traj, sigma, s_c, params.mu, p)
        window_sums = {}
        for lo, hi in windows:
            total = 0.0
            for i in range(len(duhamel)):
                t_mid = 0.5 * (traj.times[i] + traj.times[i + 1])
                if lo <= t_mid < hi:
                    total += duhamel[i]
            window_sums[(lo, hi)] = total
        for i, (dd, dq) in enumerate(zip(direct, duhamel)):
            report.add_row(
                amplitude=amp,
                t_lo=traj.times[i],
                t_hi=traj.times[i + 1],
                defect_direct=dd,
                defect_duhamel=dq,
            )
        report.fits[f"initial_hsc_amp{amp:g}"] = hc0
        for (lo, hi), total in window_sums.items():
            report.fits[f"defect[{lo:g},{hi:g}]_amp{amp:g}"] = total
        keys = list(window_sums)
        if len(keys) >= 2:
            report.checks[f"defect_decays_amp{amp:g}"] = (
                window_sums[keys[1]] < window_sums[keys[0]]
            )
    return report
