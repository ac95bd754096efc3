"""Small-dispersion analysis: distance to the explicit zero-dispersion flow."""

import dataclasses

import numpy as np

from ..evolution import check_step, final_state, nonlinear_phase
from ..grid import Grid
from ..spectral import HOMOGENEOUS, INHOMOGENEOUS, lebesgue_norm, sobolev_norm
from .report import ExperimentReport, loglog_fit, sweep


def run_small_dispersion(
    profile,
    params,
    nu_list=(0.1, 0.05, 0.025),
    t_eval=1.0,
    k=1,
    grid=None,
    dt=None,
    hs_track=0.5,
):
    """H^k error vs nu, checked against its rate nu^(2 sigma), plus profile-size tracking checks.

    The rescaled-field sizes use the exact scaling identities
    ||f(nu .)||_{L^inf} = ||f||_{L^inf} and
    ||f(nu .)||_{Hdot^s} = nu^(s - d/2) ||f||_{Hdot^s}.
    nu_list (three or more) is a `sweep` in (0, 1], run largest first,
    t_eval must be positive and finite, and dt, by default the scheme's, must
    pass `evolution.check_step` against it. hs_track must be finite and the
    datum nonzero on the grid. report.fields holds each nu's field at t_eval
    as "smalldisp_nu<nu>.fnls".
    """
    nu_list = sweep(nu_list, "nu_list", 3, "for the error fit", upper=1)[::-1]
    check_step(dt, t_eval, horizon="t_eval")
    if t_eval == 0:  # the error fit takes the log of an error that is 0 at t = 0
        raise ValueError("t_eval must be positive; got 0")
    if not np.isfinite(hs_track):
        raise ValueError(f"hs_track must be finite; got {hs_track!r}")
    if grid is None:
        grid = Grid(params.d, 512, 16 * np.pi)
    phi0 = profile.realize(grid)
    phi0_linf = lebesgue_norm(phi0, np.inf)
    if phi0_linf == 0:  # the L^inf ratios divide by it
        raise ValueError(f"profile_amplitude {profile.amplitude!r} gives a zero datum on the grid")

    report = ExperimentReport(
        "small_dispersion",
        inputs={
            "d": params.d,
            "sigma": params.sigma,
            "p": params.p,
            "mu": params.mu,
            "nu_list": nu_list,
            "t_eval": t_eval,
            "k": k,
            "n": grid.n,
            "L": grid.L,
            "dt": dt,
            "hs_track": hs_track,
            "boundary_amplitude": phi0.boundary_amplitude(),
        },
    )

    phi_ode = nonlinear_phase(phi0, t_eval, params.mu, params.p)
    for nu in nu_list:
        phi_nu = final_state(phi0, dataclasses.replace(params, nu=nu), t_eval, dt)
        report.fields[f"smalldisp_nu{nu:g}.fnls"] = phi_nu
        err = sobolev_norm(phi_nu - phi_ode, k, INHOMOGENEOUS)
        linf = lebesgue_norm(phi_nu, np.inf)
        hs = sobolev_norm(phi_nu, hs_track, HOMOGENEOUS)
        # Size of phi_nu(t, nu x) via the exact rescaling identity.
        rescaled_hs = nu ** (hs_track - params.d / 2) * hs
        report.add_row(
            nu=nu,
            hk_error=err,
            linf=linf,
            linf_ratio=linf / phi0_linf,
            hs_unrescaled=hs,
            hs_rescaled=rescaled_hs,
        )

    slope, intercept, resid = loglog_fit(nu_list, [row["hk_error"] for row in report.series])
    report.fits["error_slope"] = slope
    report.fits["error_slope_expected"] = 2 * params.sigma
    report.fits["fit_residual"] = resid
    # Criterion 05's tolerance: an error at roundoff fits a slope near 0.
    report.checks["error_slope_matches"] = abs(slope / (2 * params.sigma) - 1) <= 0.15

    linf_ratios = [row["linf_ratio"] for row in report.series]
    report.fits["linf_ratio_min"] = min(linf_ratios)
    report.fits["linf_ratio_max"] = max(linf_ratios)
    report.checks["linf_sizes_order_one"] = all(0.5 <= r <= 2.0 for r in linf_ratios)

    # Tracking nu^(s - d/2) means the unrescaled Hdot^s norms stay within a
    # fixed band across the sweep (the |log nu| slack is absorbed there).
    hs_raw = [row["hs_unrescaled"] for row in report.series]
    band = max(hs_raw) / min(hs_raw)
    report.fits["hs_tracking_band"] = band
    report.checks["hs_tracks_scaling"] = band <= 3.0
    return report
