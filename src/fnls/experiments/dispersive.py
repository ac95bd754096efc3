"""Dispersive decay of the linear flow on frequency-localized bumps.

For each dyadic N, propagate a bump whose spectrum concentrates at
|xi| ~ N and fit the L^inf decay in time; across N, fit the prefactor
scaling. The linear propagator is exact, so no time stepping is involved.

The bump spectrum is a Gaussian ring exp(-(|xi| - N)^2 / (2 N^2)) rather
than a sharp dyadic band: data supported on a single octave does not
reach the asymptotic t^(-d/2) envelope until times of order 40 N^(-2 sigma),
while the self-similar Gaussian profile (f_N is a dilate of f_1) enters
the asymptotic regime almost immediately and still isolates the N^(d(1-sigma))
prefactor.
"""

import numpy as np

from ..errors import WrapAroundError
from ..grid import Grid
from ..spectral import fft, field_from_spectrum, lebesgue_norm
from ..symbols import FractionalLaplacian, evaluate_symbol, linear_flow
from ..io import write_field
from .report import ExperimentReport, loglog_fit

# The Gaussian ring has negligible spectral mass beyond this multiple of N;
# it bounds the group velocity for the wrap-around guard.
TAIL_FACTOR = 2.5


def frequency_bump(grid, N):
    """Unit-L^1 bump with spectrum exp(-(|xi| - N)^2 / (2 N^2))."""
    k_abs = grid.k_abs
    spectrum = np.exp(-((k_abs - N) ** 2) / (2.0 * N**2))
    field = field_from_spectrum(grid, spectrum)
    return (1.0 / lebesgue_norm(field, 1.0)) * field


def group_speed_bound(sigma, N):
    """Largest group speed carried by the bump at frequency N."""
    return 2 * sigma * (TAIL_FACTOR * N) ** (2 * sigma - 1)


def check_horizon(grid, sigma, N_list, t_max):
    """Group-velocity wrap-around guard: fastest content stays within L/4."""
    L = min(grid.L)
    for N in N_list:
        speed = group_speed_bound(sigma, N)
        if speed * t_max >= L / 4:
            raise WrapAroundError(
                f"wrap-around horizon exceeded: N = {N}, speed {speed:.3g}, "
                f"t_max {t_max:.3g}, L/4 = {L / 4:.3g}"
            )


def default_grid(d, sigma, N_list, t_max, n=2**14):
    """Box sized from the group-velocity horizon with a 5% margin."""
    speed = max(group_speed_bound(sigma, N) for N in N_list)
    L = max(400 * np.pi, 4.2 * speed * t_max)
    return Grid(d, n, L)


def run_dispersive_decay(
    d, sigma, N_list=(1.0, 4.0), t_grid=tuple(np.linspace(5, 40, 15).tolist()),
    grid=None, n=2**14, save_dir=None,
):
    """Measure the time-decay slope and the across-N prefactor scaling.

    The prefactor check needs N_list of two or more and each decay fit a
    t_grid of three or more, every entry of either positive and finite, and
    grid, when given, must be d-dimensional: otherwise the runner raises
    ValueError before its first run.
    """
    t_grid = list(t_grid)
    if len(N_list) < 2:
        raise ValueError(f"N_list needs at least 2 values for the prefactor; got {len(N_list)}")
    if len(t_grid) < 3:
        raise ValueError(f"t_grid needs at least 3 times for the decay fit; got {len(t_grid)}")
    for key, values in (("N_list", N_list), ("t_grid", t_grid)):
        for value in values:
            if not 0 < value < np.inf:
                raise ValueError(f"{key} entries must be positive and finite; got {value:g}")
    if grid is None:
        grid = default_grid(d, sigma, N_list, max(t_grid), n=n)
    elif grid.d != d:
        raise ValueError(f"the grid's dimension d = {grid.d} is not the run's d = {d}")
    check_horizon(grid, sigma, N_list, max(t_grid))

    report = ExperimentReport(
        "dispersive_decay",
        inputs={
            "d": d,
            "sigma": sigma,
            "N_list": list(N_list),
            "t_grid": t_grid,
            "n": grid.n,
            "L": grid.L,
        },
    )
    omega = evaluate_symbol(FractionalLaplacian(sigma), grid)
    prefactors = []
    for N in N_list:
        spectrum = fft(frequency_bump(grid, N))
        sup_norms = []
        for t in t_grid:
            ut = field_from_spectrum(grid, linear_flow(omega, t) * spectrum)
            linf = lebesgue_norm(ut, np.inf)
            sup_norms.append(linf)
            report.add_row(N=N, t=t, linf=linf)
            if save_dir is not None:
                write_field(f"{save_dir}/dispersive_N{N:g}_t{t:g}.fnls", ut)
        slope, intercept, resid = loglog_fit(t_grid, sup_norms)
        report.fits[f"time_slope_N{N}"] = slope
        report.fits[f"log_prefactor_N{N}"] = intercept
        report.fits[f"fit_residual_N{N}"] = resid
        prefactors.append(np.exp(intercept))

    measured = prefactors[-1] / prefactors[0]
    expected = (N_list[-1] / N_list[0]) ** (d * (1 - sigma))
    report.fits["prefactor_ratio"] = measured
    report.fits["prefactor_ratio_expected"] = expected
    report.checks["prefactor_scaling"] = abs(measured / expected - 1) < 0.2
    return report
