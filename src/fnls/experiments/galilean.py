"""Pseudo-Galilean almost-invariance: boosted flat profile vs true evolution."""

import dataclasses

import numpy as np

from ..errors import RegimeError
from ..evolution import check_step, final_state
from ..grid import Grid
from ..observables import mass
from ..spectral import (
    INHOMOGENEOUS,
    galilean_boost,
    modulate,
    rescale,
    round_velocity,
    sobolev_norm,
)
from ..io import write_field
from .report import ExperimentReport, loglog_fit, sweep


def build_tilde(phi_at_scaled_time, t, nu, lam, v, sigma, p, n_x):
    """u_tilde = G_v(lambda^(-2 sigma/(p-1)) phi(lambda^(-2 sigma) ., lambda^(-1) nu .))(t).

    phi_at_scaled_time is the nu-dispersion profile phi at lambda^(-2 sigma) t;
    it is flattened onto the lambda/nu-times-wider box with n_x points an axis.
    """
    flat = rescale(phi_at_scaled_time, nu / lam, n_x)
    amp = lam ** (-2 * sigma / (p - 1))
    return galilean_boost(amp * flat, v, t, sigma)


def run_galilean_error(
    profile,
    params,
    nu_list=(0.1, 0.05, 0.025),
    v=(8.0,),
    k=1,
    t_eval=0.5,
    n_x=4096,
    L_x=128 * np.pi,
    n_y=512,
    dt_x=None,
    dt_y=None,
    save_dir=None,
):
    """Sweep nu; report ||exp(i v.x)(u - u_tilde)||_{H^k} and its decay fit.

    The datum u(0) and u_tilde are `build_tilde` at lambda = 1, at t = 0 and
    t_eval: the builder `run_decoherence` shares. nu_list (two or more) is
    a `sweep` in (0, 1], run largest first, t_eval must be positive and
    finite, and dt_x and dt_y, by default the scheme's, must pass
    `evolution.check_step` against it.
    """
    d, sigma = params.d, params.sigma
    # The error's decay exponent must be positive. sigma > d/4 is none of the
    # paper's windows, so it is gated here, not by exponents.require_regime.
    budget = 2 * sigma - d / 2
    if not budget > 0:
        raise RegimeError(f"sigma below d/4: sigma = {sigma}, d = {d}")
    nu_list = sweep(nu_list, "nu_list", 2, "for the decay check", upper=1)[::-1]
    check_step(dt_x, t_eval, "dt_x", "t_eval")
    check_step(dt_y, t_eval, "dt_y", "t_eval")
    if t_eval == 0:  # the error fit takes the log of an error that is 0 at t = 0
        raise ValueError("t_eval must be positive; got 0")
    grid_x = Grid(d, n_x, L_x)
    v = round_velocity(grid_x, v)
    vmag = float(np.linalg.norm(v))

    report = ExperimentReport(
        "galilean_error",
        inputs={
            "d": d,
            "sigma": sigma,
            "p": params.p,
            "mu": params.mu,
            "nu_list": nu_list,
            "v": v.tolist(),
            "k": k,
            "t_eval": t_eval,
            "n_x": n_x,
            "L_x": L_x,
            "n_y": n_y,
            "dt_x": dt_x,
            "dt_y": dt_y,
        },
    )

    full = dataclasses.replace(params, nu=1.0)
    for nu in nu_list:
        grid_y = Grid(d, n_y, tuple(nu * Lj for Lj in grid_x.L))
        phi0 = profile.realize(grid_y)
        phi_t = final_state(phi0, dataclasses.replace(params, nu=nu), t_eval, dt_y)

        u_tilde = build_tilde(phi_t, t_eval, nu, 1.0, v, sigma, params.p, grid_x.n)

        u0 = build_tilde(phi0, 0.0, nu, 1.0, v, sigma, params.p, grid_x.n)
        u_t = final_state(u0, full, t_eval, dt_x)

        if save_dir is not None:
            write_field(f"{save_dir}/galilean_u_nu{nu:g}.fnls", u_t)
            write_field(f"{save_dir}/galilean_utilde_nu{nu:g}.fnls", u_tilde)
        recentered = modulate(u_t - u_tilde, -v)
        report.add_row(
            nu=nu,
            error_hk=sobolev_norm(recentered, k, INHOMOGENEOUS),
            boundary_amplitude=phi0.boundary_amplitude(),
            u_tilde_mass=mass(u_tilde),
        )

    errors = [row["error_hk"] for row in report.series]
    report.checks["error_decreasing_in_nu"] = all(a > b for a, b in zip(errors, errors[1:]))
    if len(nu_list) >= 3:
        slope, intercept, resid = loglog_fit(nu_list, errors)
        report.fits["decay_exponent"] = slope
        report.fits["decay_exponent_budget"] = budget
        report.fits["fit_residual"] = resid
    report.inputs["vmag"] = vmag
    return report
