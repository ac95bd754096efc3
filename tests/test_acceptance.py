"""Acceptance gate: eleven desk-scale criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines alongside the pytest verdicts.
"""

import numpy as np
import pytest

from fnls.evolution import EvolveConfig, evolve
from fnls.exponents import verify_error_symbol_bound
from fnls.experiments import (
    run_decoherence,
    run_dispersive_decay,
    run_galilean_error,
    run_scattering_probe,
    run_small_dispersion,
)
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.profiles import ProfileSpec, gaussian
from fnls.soliton import SolitonConfig, petviashvili_solve, traveling_wave_check
from fnls.spectral import apply_multiplier, lebesgue_norm
from fnls.symbols import Bessel, ErrorSymbol, FractionalLaplacian, SolitonSymbol, evaluate_symbol
from references import Product, spectral_l2_norm


def _verdict(number, name, ok, detail):
    line = f"[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_spectral_exactness():
    g = Grid(1, 16, 7.0)
    rng = np.random.default_rng(42)
    u = ComplexField(g, rng.normal(size=16) + 1j * rng.normal(size=16))

    # plane-wave eigenfunction action
    kj = g.k[0][3]
    wave = ComplexField(g, np.exp(1j * kj * g.x[0]))
    out = apply_multiplier(wave, FractionalLaplacian(0.75))
    e_eig = np.max(np.abs(out.values - abs(kj) ** 1.5 * wave.values))

    # multiplier composition
    a, b = FractionalLaplacian(0.5), Bessel(-1.0)
    seq = apply_multiplier(apply_multiplier(u, a), b)
    prod = apply_multiplier(u, Product((a, b)))
    e_comp = np.max(np.abs(seq.values - prod.values)) / np.max(np.abs(prod.values))

    # Plancherel
    e_plan = abs(spectral_l2_norm(u) / lebesgue_norm(u, 2.0) - 1)

    # direct O(n^2) DFT oracle
    x, n, L = g.x[0], 16, 7.0
    m = np.arange(n)
    m = np.where(m <= n // 2, m, m - n)
    k = 2 * np.pi * m / L
    want = np.zeros(n, dtype=complex)
    for kj in k:
        coeff = np.sum(u.values * np.exp(-1j * kj * x)) / n
        want += abs(kj) ** 1.5 * coeff * np.exp(1j * kj * x)
    got = apply_multiplier(u, FractionalLaplacian(0.75)).values
    e_dft = np.max(np.abs(got - want)) / np.max(np.abs(want))

    worst = max(e_eig, e_comp, e_plan, e_dft)
    _verdict(1, "spectral exactness", worst <= 1e-12, f"worst relative error {worst:.2e}")


def test_criterion_02_conservation():
    g = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    u0 = gaussian(g, amplitude=1.0)

    traj = evolve(u0, EvolveConfig(params, t_end=1.0, dt=1e-3, snapshot_stride=1000))
    masses = [d["mass"] for d in traj.diagnostics]
    mass_drift = abs(masses[-1] - masses[0]) / masses[0]

    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        tr = evolve(u0, EvolveConfig(params, t_end=1.0, dt=dt, snapshot_stride=10**9))
        e = [d["energy"] for d in tr.diagnostics]
        drifts.append(abs(e[-1] - e[0]))
    ratios = [drifts[i] / drifts[i + 1] for i in range(2)]

    ok = mass_drift < 1e-10 and all(3.0 <= r <= 5.0 for r in ratios)
    _verdict(
        2, "conservation", ok,
        f"mass drift {mass_drift:.2e}, energy-drift ratios {ratios[0]:.2f}, {ratios[1]:.2f}",
    )


def test_criterion_03_zero_dispersion_exactness():
    g = Grid(1, 256, 16 * np.pi)
    params = ModelParams(1, 0.75, 3, 1, 0.0)
    u0 = gaussian(g, amplitude=1.0)
    traj = evolve(u0, EvolveConfig(params, t_end=1.0, dt=0.01, snapshot_stride=10**9))
    exact = u0.values * np.exp(1j * params.mu * np.abs(u0.values) ** (params.p - 1))
    err = np.max(np.abs(traj.final.values - exact))
    _verdict(3, "zero-dispersion exactness", err <= 1e-12, f"sup error {err:.2e} at t=1")


def test_criterion_04_dispersive_decay_with_loss():
    t_grid = np.linspace(5, 40, 12)
    rep = run_dispersive_decay(d=1, sigma=0.75, N_list=[1.0, 4.0], t_grid=t_grid)
    slope1 = rep.fits["time_slope_N1.0"]
    slope4 = rep.fits["time_slope_N4.0"]
    ratio = rep.fits["prefactor_ratio"]
    expected = rep.fits["prefactor_ratio_expected"]  # 4^0.25

    null = run_dispersive_decay(d=1, sigma=1.0, N_list=[1.0, 4.0], t_grid=t_grid)
    null_ratio = null.fits["prefactor_ratio"]

    ok = (
        abs(slope1 + 0.5) <= 0.1
        and abs(slope4 + 0.5) <= 0.1
        and abs(ratio / expected - 1) <= 0.2
        and abs(null_ratio - 1.0) <= 0.1
    )
    _verdict(
        4, "dispersive decay with loss", ok,
        f"slopes {slope1:.3f}/{slope4:.3f}, prefactor ratio {ratio:.3f} vs {expected:.3f}, "
        f"sigma=1 null ratio {null_ratio:.3f}",
    )


def test_criterion_05_small_dispersion_rate():
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    rep = run_small_dispersion(
        ProfileSpec(width=1.0, amplitude=1.0), params,
        nu_list=[0.1, 0.05, 0.025], t_eval=1.0, k=1,
    )
    slope = rep.fits["error_slope"]
    ok = abs(slope / 1.5 - 1) <= 0.15
    _verdict(5, "small-dispersion rate", ok, f"H^k error slope {slope:.4f} vs 2 sigma = 1.5")


def test_criterion_06_profile_sizes():
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    rep = run_small_dispersion(
        ProfileSpec(width=1.0, amplitude=1.0), params,
        nu_list=[0.1, 0.05, 0.025], t_eval=1.0, k=1, hs_track=0.5,
    )
    lo = rep.fits["linf_ratio_min"]
    hi = rep.fits["linf_ratio_max"]
    band = rep.fits["hs_tracking_band"]
    ok = 0.5 <= lo and hi <= 2.0 and band <= 3.0
    _verdict(
        6, "small-dispersion profile sizes", ok,
        f"L^inf ratios in [{lo:.3f}, {hi:.3f}], H^s tracking band {band:.3f}",
    )


def test_criterion_07_pseudo_galilean_almost_invariance():
    prof = ProfileSpec(width=0.6, amplitude=1.0)
    nu_list = [0.2, 0.1, 0.05]
    rep = run_galilean_error(
        prof, ModelParams(1, 0.75, 3, 1, 1.0), nu_list=nu_list, v=(8.0,), k=1, t_eval=0.5,
    )
    errs = [row["error_hk"] for row in rep.series]
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    exponent = rep.fits["decay_exponent"]

    null = run_galilean_error(
        prof, ModelParams(1, 1.0, 3, 1, 1.0), nu_list=nu_list, v=(8.0,), k=1, t_eval=0.5,
    )
    null_errs = [row["error_hk"] for row in null.series]
    min_gap = min(a / b for a, b in zip(errs, null_errs))

    ok = decreasing and exponent >= 0.8 and min_gap >= 100.0
    _verdict(
        7, "pseudo-Galilean almost-invariance", ok,
        f"decreasing={decreasing}, exponent {exponent:.3f}, sigma=1 null {min_gap:.0f}x smaller",
    )


def test_criterion_08_decoherence():
    params = ModelParams(1, 0.75, 3, 1, 1.0)
    rep = run_decoherence(ProfileSpec(width=1.0, amplitude=1.0), params,
                          nu_list=[0.1, 0.09, 0.08], a=1.0, a_prime=0.9, alpha=1.2,
                          s=-0.1, epsilon=5.0)
    inflation = rep.fits["min_inflation_ratio"]
    ok = (
        rep.checks["initial_distance_band"]
        and rep.checks["inflation_at_smallest_nu"]
        and rep.checks["correction_term_decreasing"]
        and inflation >= 5.0
    )
    _verdict(
        8, "decoherence", ok,
        f"inflation ratio {inflation:.2f}, checks {rep.checks}",
    )


def test_criterion_09_soliton():
    g = Grid(1, 1024, 32 * np.pi)
    seed = gaussian(g, amplitude=1.0, width=1.0)
    details = []
    ok = True

    for v in (0.0, 0.5):
        cfg = SolitonConfig(ModelParams(1, 0.75, 3, -1, 1.0), omega=1.0, v=(v,))
        res = petviashvili_solve(cfg, seed)
        iters = len(res.residual_history)
        resid = res.residual_history[-1]
        mismatch = traveling_wave_check(res, cfg, t_end=1.0, dt=1e-3)
        ok = ok and res.converged and iters <= 200 and resid < 1e-8 and mismatch < 1e-3
        details.append(f"v={v}: {iters} iters, residual {resid:.1e}, mismatch {mismatch:.1e}")

    cfg1 = SolitonConfig(ModelParams(1, 1.0, 3, -1, 1.0), omega=1.0, v=(0.0,))
    res1 = petviashvili_solve(cfg1, seed)
    x = g.x[0]
    peak = x[np.argmax(np.abs(res1.Q.values))]
    sech_err = np.max(np.abs(np.abs(res1.Q.values) - np.sqrt(2) / np.cosh(x - peak)))
    ok = ok and sech_err < 1e-6
    details.append(f"sech error {sech_err:.1e}")

    _verdict(9, "soliton", ok, "; ".join(details))


def test_criterion_10_symbol_bound():
    v, sigma = (0.5,), 0.75
    sups = []
    for n in (256, 512):
        sup, _ = verify_error_symbol_bound(v, sigma, Grid(1, n, 16 * np.pi))
        sups.append(sup)
    stable = np.isfinite(sups[0]) and abs(sups[1] / sups[0] - 1) < 0.05

    g = Grid(1, 256, 16 * np.pi)
    sup_classical, _ = verify_error_symbol_bound(v, 1.0, g)
    E0 = evaluate_symbol(ErrorSymbol(v, sigma), g).flat[0]
    P0 = evaluate_symbol(SolitonSymbol(v, sigma), g).flat[0]

    ok = stable and sup_classical == 0.0 and E0 == 0.0 and P0 == 0.0
    _verdict(
        10, "symbol bound", ok,
        f"sup ratio {sups[0]:.4f} (stable {stable}), sigma=1 sup {sup_classical}, "
        f"E(0)={E0}, p_v(0)={P0}",
    )


def test_criterion_11_scattering_probe():
    params = ModelParams(1, 0.75, 7, 1, 1.0)
    rep = run_scattering_probe(
        ProfileSpec(width=1.0, amplitude=1.0), params,
        amplitude_list=[1e-3], t_end=20.0,
        grid=Grid(1, 4096, 128 * np.pi),
        windows=((5.0, 10.0), (10.0, 20.0)),
    )
    early = rep.fits["defect[5,10]_amp0.001"]
    late = rep.fits["defect[10,20]_amp0.001"]
    ok = late < early
    _verdict(
        11, "scattering probe (trend only)", ok,
        f"defect over [10,20] = {late:.3e} < defect over [5,10] = {early:.3e}",
    )
