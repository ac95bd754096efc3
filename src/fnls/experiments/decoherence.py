"""Decoherence / norm-inflation pipeline for supercritical data.

Two small-dispersion solutions with nearby data a w and a' w are scaled,
spread, boosted to frequency v and compared in a negative-regularity
Sobolev norm at time 0 and at the decoherence time lambda^(2 sigma) T.
"""

from dataclasses import dataclass, replace

import numpy as np

from ..errors import RegimeError
from ..evolution import final_state, nonlinear_phase
from ..exponents import ILLPOSED_RANGE, classify_regime, smallest_integer_above
from ..grid import Grid
from ..io import write_field
from ..observables import lp_band_energy_fraction
from ..spectral import INHOMOGENEOUS, round_velocity, sobolev_norm
from .galilean import build_tilde
from .report import ExperimentReport


@dataclass
class DecoherenceConfig:
    a: float = 1.0
    a_prime: float = 0.9
    alpha: float = 1.2
    s: float = -0.1
    epsilon: float = 5.0
    k: int | None = None
    t_scan_max: float = 60.0
    n_y: int = 512
    L_y: float = 16 * np.pi
    dt_y: float | None = None
    max_n_x: int = 2**15
    true_evolution: bool = False

    def __post_init__(self):
        if not (0.5 <= self.a_prime <= 1 and 0.5 <= self.a <= 1):
            raise ValueError("a, a' must lie in [1/2, 1]")
        if self.alpha < 1:
            # nu = lambda^alpha with alpha < 1 would violate nu <= lambda.
            raise ValueError("alpha must be >= 1 so that nu <= lambda")
        if not self.s < 0:
            raise ValueError("s must be negative")

    def lam(self, nu):
        return nu ** (1.0 / self.alpha)

    def velocity_magnitude(self, nu, d, sigma, p):
        expo = (1.0 / self.s) * (
            d * (1 - self.alpha) / 2 + 2 * self.alpha * sigma / (p - 1)
        )
        return nu**expo * self.epsilon ** (1.0 / self.s)


def decoherence_time(profile_field, a, a_prime, mu, p, t_scan):
    """First t where the zero-dispersion profiles separate by half the max.

    Uses the explicit phase-rotation solutions with data a w and a' w.
    """
    w = profile_field
    seps = []
    for t in t_scan:
        fa = nonlinear_phase(a * w, t, mu, p)
        fb = nonlinear_phase(a_prime * w, t, mu, p)
        seps.append(float(np.linalg.norm(fa.values - fb.values)))
    seps = np.array(seps) * np.sqrt(w.grid.cell_volume)
    target = 0.5 * seps.max()
    idx = int(np.argmax(seps >= target))
    return float(t_scan[idx]), float(seps[idx]), float(seps.max())


def run_decoherence(cfg, profile, params, nu_list=(0.1, 0.09, 0.08), save_dir=None):
    """Sweep nu; report sizes, distances and the inflation ratio per nu."""
    d, sigma, p, mu = params.d, params.sigma, params.p, params.mu
    regime = classify_regime(d, p, sigma, cfg.s)
    if regime.regime != ILLPOSED_RANGE:
        raise RegimeError(
            f"decoherence requires the ill-posed range, got {regime.regime} "
            f"(s = {cfg.s}, s_c = {regime.s_c:.4g})"
        )
    k = cfg.k if cfg.k is not None else smallest_integer_above(d / 2)

    grid_y = Grid(d, cfg.n_y, cfg.L_y)
    w = profile.realize(grid_y)
    t_scan = np.linspace(0.0, cfg.t_scan_max, 601)[1:]
    T, sep_at_T, sep_max = decoherence_time(w, cfg.a, cfg.a_prime, mu, p, t_scan)

    report = ExperimentReport(
        "decoherence",
        inputs={
            "d": d,
            "sigma": sigma,
            "p": p,
            "mu": mu,
            "s": cfg.s,
            "s_c": regime.s_c,
            "a": cfg.a,
            "a_prime": cfg.a_prime,
            "alpha": cfg.alpha,
            "epsilon": cfg.epsilon,
            "k": k,
            "T": T,
            "ode_sep_at_T": sep_at_T,
            "ode_sep_max": sep_max,
            "nu_list": list(nu_list),
            "n_y": cfg.n_y,
            "L_y": cfg.L_y,
            "boundary_amplitude": w.boundary_amplitude(),
        },
    )

    # Every nu is checked before the first run, so none leaves fields behind.
    runs = []
    for nu in nu_list:
        lam = cfg.lam(nu)
        if not nu <= lam:
            raise ValueError("require nu <= lambda")
        vmag_req = cfg.velocity_magnitude(nu, d, sigma, p)
        if vmag_req < 1:
            raise ValueError(f"derived |v| = {vmag_req:.3g} < 1; adjust epsilon/alpha")
        runs.append((nu, lam, vmag_req, replace(params, nu=nu)))

    ratios, corrections = [], []
    for nu, lam, vmag_req, run in runs:
        beta = nu / lam
        L_x = tuple(Lj / beta for Lj in grid_y.L)
        # Nyquist must clear the boost frequency with headroom for the
        # profile bandwidth.
        n_x = cfg.n_y
        while np.pi * n_x / max(L_x) < 2.0 * (vmag_req + 8.0) and n_x < cfg.max_n_x:
            n_x *= 2
        grid_x = Grid(d, n_x, L_x)
        v = round_velocity(grid_x, np.array([vmag_req] + [0.0] * (d - 1)))
        vmag = float(np.linalg.norm(v))

        t_dec = lam ** (2 * sigma) * T
        fields = {}
        for label, amp in (("a", cfg.a), ("a_prime", cfg.a_prime)):
            phi0 = amp * w
            phi_T = final_state(phi0, run, T, cfg.dt_y)
            fields[(label, 0.0)] = build_tilde(phi0, 0.0, nu, lam, v, sigma, p, n_x)
            fields[(label, t_dec)] = build_tilde(phi_T, t_dec, nu, lam, v, sigma, p, n_x)

        if save_dir is not None:
            write_field(f"{save_dir}/decohere_a_t0_nu{nu:g}.fnls", fields[("a", 0.0)])
            write_field(f"{save_dir}/decohere_a_tdec_nu{nu:g}.fnls", fields[("a", t_dec)])
        size_a = sobolev_norm(fields[("a", 0.0)], cfg.s, INHOMOGENEOUS)
        size_ap = sobolev_norm(fields[("a_prime", 0.0)], cfg.s, INHOMOGENEOUS)
        dist0 = sobolev_norm(
            fields[("a", 0.0)] - fields[("a_prime", 0.0)], cfg.s, INHOMOGENEOUS
        )
        distT = sobolev_norm(
            fields[("a", t_dec)] - fields[("a_prime", t_dec)], cfg.s, INHOMOGENEOUS
        )
        inflation = distT / dist0 if dist0 > 0 else np.inf
        correction = (
            abs(np.log(nu)) * (lam / nu) ** (-k) * vmag ** (-cfg.s - k)
        )
        alias = lp_band_energy_fraction(
            fields[("a", t_dec)], 0.9 * grid_x.k_nyquist
        )

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

        if cfg.true_evolution:
            full = replace(params, nu=1.0)
            evolved = {}
            for label in ("a", "a_prime"):
                evolved[label] = final_state(fields[(label, 0.0)], full, t_dec)
            row["true_dist_tdec"] = sobolev_norm(
                evolved["a"] - evolved["a_prime"], cfg.s, INHOMOGENEOUS
            )

        report.add_row(**row)
        ratios.append(inflation)
        corrections.append(correction)

    eps = cfg.epsilon
    gap = abs(cfg.a - cfg.a_prime)
    sizes_ok = all(
        0.2 * eps <= row[kk] <= 5 * eps
        for row in report.series
        for kk in ("size_a", "size_a_prime")
    )
    report.checks["initial_sizes_near_epsilon"] = sizes_ok
    report.checks["initial_distance_band"] = all(
        0.2 * eps * gap <= row["dist_t0"] <= 5 * eps * gap for row in report.series
    )
    report.checks["inflation_at_smallest_nu"] = ratios[int(np.argmin(nu_list))] >= 5
    order = np.argsort(nu_list)[::-1]  # decreasing nu
    corr_sorted = [corrections[i] for i in order]
    report.checks["correction_term_decreasing"] = all(
        corr_sorted[i] > corr_sorted[i + 1] for i in range(len(corr_sorted) - 1)
    )
    report.checks["aliasing_controlled"] = all(
        row["alias_fraction"] < 1e-8 for row in report.series
    )
    report.fits["min_inflation_ratio"] = float(np.min(ratios))
    return report
