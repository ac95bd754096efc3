"""Decoherence / norm-inflation pipeline for supercritical data.

Two small-dispersion solutions with nearby data a w and a' w are scaled,
spread, boosted to frequency v and compared in a negative-regularity
Sobolev norm at time 0 and at the decoherence time lambda^(2 sigma) T.
"""

from dataclasses import replace

import numpy as np

from ..evolution import check_step, final_state, nonlinear_phase
from ..exponents import ILLPOSED_RANGE, require_regime, smallest_integer_above
from ..grid import Grid
from ..io import write_field
from ..spectral import (
    INHOMOGENEOUS, fft, lebesgue_norm, round_velocity, sobolev_norm, tail_fraction,
)
from .galilean import build_tilde
from .report import ExperimentReport, sweep


def decoherence_time(profile_field, a, a_prime, mu, p, t_scan):
    """First t where the zero-dispersion profiles separate by half the max.

    Uses the explicit phase-rotation solutions with data a w and a' w.
    """
    w = profile_field
    seps = []
    for t in t_scan:
        fa = nonlinear_phase(a * w, t, mu, p)
        fb = nonlinear_phase(a_prime * w, t, mu, p)
        seps.append(lebesgue_norm(fa - fb, 2))
    seps = np.array(seps)
    target = 0.5 * seps.max()
    idx = int(np.argmax(seps >= target))
    return float(t_scan[idx]), float(seps[idx]), float(seps.max())


def run_decoherence(
    profile, params, nu_list=(0.1, 0.09, 0.08), a=1.0, a_prime=0.9, alpha=1.2, s=-0.1,
    epsilon=5.0, k=None, t_scan_max=60.0, n_y=512, L_y=16 * np.pi, dt_y=None,
    max_n_x=2**15, true_evolution=False, save_dir=None,
):
    """Sweep nu; report sizes, distances and the inflation ratio per nu.

    Each nu takes lambda = nu^(1/alpha); s must lie in the ill-posed range.
    nu_list (two or more) is a `sweep` in (0, 1], run largest first, and
    epsilon and t_scan_max must be positive and finite. k must be an integer
    above d/2 (by default the smallest), as the correction term
    |log nu| (lambda/nu)^(-k) |v|^(-s-k) asks. dt_y, by default the scheme's,
    must not exceed the decoherence time T.
    """
    if not (0.5 <= a_prime <= 1 and 0.5 <= a <= 1):
        raise ValueError("a, a' must lie in [1/2, 1]")
    if alpha < 1:
        # nu = lambda^alpha with alpha < 1 would violate nu <= lambda.
        raise ValueError("alpha must be >= 1 so that nu <= lambda")
    d, sigma, p, mu = params.d, params.sigma, params.p, params.mu
    regime = require_regime(ILLPOSED_RANGE, d, p, sigma, s, "decoherence")
    nu_list = sweep(nu_list, "nu_list", 2, "for the trend checks", upper=1)[::-1]
    for key, value in (("epsilon", epsilon), ("t_scan_max", t_scan_max)):
        if not 0 < value < np.inf:
            raise ValueError(f"{key} must be positive and finite; got {value:g}")
    if k is None:
        k = smallest_integer_above(d / 2)
    elif not (float(k).is_integer() and k > d / 2):
        raise ValueError(f"k must be an integer above d/2 = {d / 2:g}; got {k:g}")

    grid_y = Grid(d, n_y, L_y)
    w = profile.realize(grid_y)
    t_scan = np.linspace(0.0, t_scan_max, 601)[1:]
    T, sep_at_T, sep_max = decoherence_time(w, a, a_prime, mu, p, t_scan)
    check_step(dt_y, T, "dt_y", "the decoherence time T")

    report = ExperimentReport(
        "decoherence",
        inputs={
            "d": d,
            "sigma": sigma,
            "p": p,
            "mu": mu,
            "s": s,
            "s_c": regime.s_c,
            "a": a,
            "a_prime": a_prime,
            "alpha": alpha,
            "epsilon": epsilon,
            "k": k,
            "T": T,
            "ode_sep_at_T": sep_at_T,
            "ode_sep_max": sep_max,
            "nu_list": nu_list,
            "n_y": n_y,
            "L_y": L_y,
            "boundary_amplitude": w.boundary_amplitude(),
        },
    )

    # Every nu's boost is checked before the first run, so none leaves fields behind.
    expo = (1.0 / s) * (d * (1 - alpha) / 2 + 2 * alpha * sigma / (p - 1))
    try:
        boosts = [nu**expo * epsilon ** (1.0 / s) for nu in nu_list]
    except OverflowError:
        boosts = [np.inf]
    if not all(np.isfinite(boosts)):
        raise ValueError("derived |v| is not a finite number; adjust epsilon/alpha")
    if min(boosts) < 1:
        raise ValueError(f"derived |v| = {min(boosts):.3g} < 1; adjust epsilon/alpha")

    for nu, vmag_req in zip(nu_list, boosts):
        lam = nu ** (1.0 / alpha)
        beta = nu / lam
        L_x = tuple(Lj / beta for Lj in grid_y.L)
        # Nyquist must clear the boost frequency with headroom for the
        # profile bandwidth.
        n_x = n_y
        while np.pi * n_x / max(L_x) < 2.0 * (vmag_req + 8.0) and n_x < max_n_x:
            n_x *= 2
        grid_x = Grid(d, n_x, L_x)
        v = round_velocity(grid_x, np.array([vmag_req] + [0.0] * (d - 1)))
        vmag = float(np.linalg.norm(v))

        t_dec = lam ** (2 * sigma) * T
        fields = {}
        for label, amp in (("a", a), ("a_prime", a_prime)):
            phi0 = amp * w
            phi_T = final_state(phi0, replace(params, nu=nu), T, dt_y)
            fields[(label, 0.0)] = build_tilde(phi0, 0.0, nu, lam, v, sigma, p, n_x)
            fields[(label, t_dec)] = build_tilde(phi_T, t_dec, nu, lam, v, sigma, p, n_x)

        if save_dir is not None:
            write_field(f"{save_dir}/decohere_a_t0_nu{nu:g}.fnls", fields[("a", 0.0)])
            write_field(f"{save_dir}/decohere_a_tdec_nu{nu:g}.fnls", fields[("a", t_dec)])
        size_a = sobolev_norm(fields[("a", 0.0)], s, INHOMOGENEOUS)
        size_ap = sobolev_norm(fields[("a_prime", 0.0)], s, INHOMOGENEOUS)
        dist0 = sobolev_norm(
            fields[("a", 0.0)] - fields[("a_prime", 0.0)], s, INHOMOGENEOUS
        )
        distT = sobolev_norm(
            fields[("a", t_dec)] - fields[("a_prime", t_dec)], s, INHOMOGENEOUS
        )
        inflation = distT / dist0 if dist0 > 0 else np.inf
        correction = (
            abs(np.log(nu)) * (lam / nu) ** (-k) * vmag ** (-s - k)
        )
        alias = tail_fraction(fft(fields[("a", t_dec)]), grid_x.k_abs >= 0.9 * grid_x.k_nyquist)

        row = {
            "nu": nu,
            "lambda": lam,
            "vmag": vmag,
            "n_x": n_x,
            "size_a": size_a,
            "size_a_prime": size_ap,
            "dist_t0": dist0,
            "dist_tdec": distT,
            "inflation_ratio": inflation,
            "correction_term": correction,
            "alias_fraction": alias,
            "t_dec": t_dec,
        }

        if true_evolution:
            full = replace(params, nu=1.0)
            evolved = {}
            for label in ("a", "a_prime"):
                evolved[label] = final_state(fields[(label, 0.0)], full, t_dec)
            row["true_dist_tdec"] = sobolev_norm(
                evolved["a"] - evolved["a_prime"], s, INHOMOGENEOUS
            )

        report.add_row(**row)

    gap = abs(a - a_prime)
    sizes_ok = all(
        0.2 * epsilon <= row[kk] <= 5 * epsilon
        for row in report.series
        for kk in ("size_a", "size_a_prime")
    )
    report.checks["initial_sizes_near_epsilon"] = sizes_ok
    report.checks["initial_distance_band"] = all(
        0.2 * epsilon * gap <= row["dist_t0"] <= 5 * epsilon * gap for row in report.series
    )
    report.checks["inflation_at_smallest_nu"] = report.series[-1]["inflation_ratio"] >= 5
    corrections = [row["correction_term"] for row in report.series]
    report.checks["correction_term_decreasing"] = all(
        a > b for a, b in zip(corrections, corrections[1:])
    )
    report.checks["aliasing_controlled"] = all(
        row["alias_fraction"] < 1e-8 for row in report.series
    )
    report.fits["min_inflation_ratio"] = min(row["inflation_ratio"] for row in report.series)
    return report
