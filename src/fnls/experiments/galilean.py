"""Pseudo-Galilean almost-invariance: boosted flat profile vs true evolution."""

import numpy as np

from ..errors import RegimeError
from ..evolution import EvolveConfig, evolve
from ..grid import Grid
from ..model import ModelParams
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
from .report import ExperimentReport, loglog_fit
from .smalldisp import solve_small_dispersion


def run_galilean_error(
    profile,
    params,
    nu_list,
    v,
    k,
    t_eval,
    n_x=4096,
    L_x=128 * np.pi,
    n_y=512,
    dt_x=None,
    dt_y=None,
    save_dir=None,
):
    """Sweep nu; report ||exp(i v.x)(u - u_tilde)||_{H^k} and its decay fit."""
    d, sigma = params.d, params.sigma
    if sigma <= d / 4:
        raise RegimeError(f"sigma below d/4: sigma = {sigma}, d = {d}")
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
            "nu_list": list(nu_list),
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

    errors = []
    for nu in nu_list:
        grid_y = Grid(d, n_y, tuple(nu * Lj for Lj in grid_x.L))
        phi0 = profile.realize(grid_y)
        phi_t = solve_small_dispersion(phi0, params, nu, t_eval, dt_y)

        # G_v of the profile flattened onto the nu-times-wider box.
        u_tilde = galilean_boost(rescale(phi_t, nu, grid_x.n), v, t_eval, sigma)

        u0 = modulate(rescale(phi0, nu, grid_x.n), v)
        full = ModelParams(d, sigma, params.p, params.mu, 1.0)
        traj = evolve(u0, EvolveConfig(full, t_end=t_eval, dt=dt_x, snapshot_stride=10**9))
        u_t = traj.final

        if save_dir is not None:
            write_field(f"{save_dir}/galilean_u_nu{nu:g}.fnls", u_t)
            write_field(f"{save_dir}/galilean_utilde_nu{nu:g}.fnls", u_tilde)
        recentered = modulate(u_t - u_tilde, -v)
        err = sobolev_norm(recentered, k, 2.0, INHOMOGENEOUS)
        errors.append(err)
        report.add_row(
            nu=nu,
            error_hk=err,
            boundary_amplitude=phi0.boundary_amplitude(),
            u_tilde_mass=mass(u_tilde),
        )

    report.checks["error_decreasing_in_nu"] = all(
        errors[i] > errors[i + 1] for i in range(len(errors) - 1)
    )
    if len(nu_list) >= 3:
        slope, intercept, resid = loglog_fit(nu_list, errors)
        report.fits["decay_exponent"] = slope
        report.fits["decay_exponent_budget"] = 2 * sigma - d / 2
        report.fits["fit_residual"] = resid
    report.inputs["vmag"] = vmag
    return report
