"""Conserved quantities, spacetime norms, and the scattering defect."""

import math

import numpy as np
import pytest

from fnls.evolution import EvolveConfig, evolve, linear_propagate, snapshots
from fnls.grid import Grid
from fnls.model import ModelParams
from fnls.observables import (
    SpacetimeNormSpec,
    energy,
    field_diagnostics,
    lp_band_energy_fraction,
    mass,
    scattering_defects,
    spacetime_norm,
)
from fnls.profiles import ProfileSpec, gaussian
from fnls.spectral import resolvable_scales

from references import littlewood_paley_project

GRID = Grid(1, 256, 16 * np.pi)
PARAMS = ModelParams(d=1, sigma=0.75, p=3, mu=1, nu=1.0)


def _traj(u0=None, t_end=0.5, params=PARAMS, stride=10):
    if u0 is None:
        u0 = gaussian(GRID, amplitude=0.5)
    return evolve(u0, EvolveConfig(params, t_end=t_end, dt=1e-3, snapshot_stride=stride))


def test_mass_equals_rectangle_quadrature():
    u = gaussian(GRID, amplitude=0.7)
    direct = np.sum(np.abs(u.values) ** 2) * GRID.cell_volume
    assert mass(u) == pytest.approx(direct, rel=1e-13)


def test_a_finite_mass_near_the_largest_double_reads_finite():
    # Its |u|^2 sums past the largest double before the cell volume 1/64
    # scales it back; the suite's warnings filter makes an overflow an error.
    u = ProfileSpec(amplitude=1e154).realize(Grid(1, 4096, 64.0))
    assert mass(u) == pytest.approx(math.sqrt(math.pi) * 1e308, rel=1e-12)
    zero = np.zeros(u.grid.shape)
    with np.errstate(over="ignore"):  # only its potential energy overflows
        _, diagnostics = field_diagnostics(u.grid, zero.astype(complex), zero, 1, 3, u)
    assert diagnostics["mass"] == mass(u)


def test_energy_matches_direct_spectral_sum():
    u = gaussian(GRID, amplitude=0.7)
    sigma, p, mu = PARAMS.sigma, PARAMS.p, PARAMS.mu
    spec = np.fft.fftn(u.values) / u.values.size
    kinetic = 0.5 * np.sum(GRID.k_abs ** (2 * sigma) * np.abs(spec) ** 2) * GRID.L[0]
    potential = (
        mu / (p + 1) * np.sum(np.abs(u.values) ** (p + 1)) * GRID.cell_volume
    )
    assert energy(u, sigma, mu, p) == pytest.approx(kinetic + potential, rel=1e-12)


def test_kinetic_energy_conserved_by_linear_flow():
    sigma = 0.75
    u = gaussian(GRID, amplitude=0.7)
    ut = linear_propagate(u, 0.8, sigma)
    # the propagator is unimodular in spectrum, so the sigma-Riesz
    # kinetic term is exactly invariant (mu = 0 kills the potential part)
    kin0 = 0.5 * (energy(u, sigma, 1, 3) + energy(u, sigma, -1, 3))
    kin1 = 0.5 * (energy(ut, sigma, 1, 3) + energy(ut, sigma, -1, 3))
    assert kin1 == pytest.approx(kin0, rel=1e-12)


def test_spacetime_norm_rejects_inadmissible_pairs():
    traj = _traj()
    with pytest.raises(ValueError):
        spacetime_norm(traj, SpacetimeNormSpec(q=4.0, r=4.0, s=0.0, sigma=0.75))


def test_spacetime_norm_scales_linearly_in_amplitude():
    traj1 = _traj(gaussian(GRID, amplitude=1e-4), params=ModelParams(1, 0.75, 3, 1, 1.0))
    traj2 = _traj(gaussian(GRID, amplitude=2e-4), params=ModelParams(1, 0.75, 3, 1, 1.0))
    spec = SpacetimeNormSpec(q=6.0, r=6.0, s=0.0, sigma=0.75)
    n1 = spacetime_norm(traj1, spec)
    n2 = spacetime_norm(traj2, spec)
    # the flow is essentially linear at this size, so the norm doubles
    assert n2 / n1 == pytest.approx(2.0, rel=1e-4)


def test_tilde_norm_dominates_single_band_content():
    """For band-limited data the tilde norm reduces to the plain one."""
    scales = resolvable_scales(GRID)
    N = scales[len(scales) // 2]
    u0 = littlewood_paley_project(gaussian(GRID, amplitude=0.3, width=0.4), N)
    traj = _traj(u0, t_end=0.1)
    plain = spacetime_norm(traj, SpacetimeNormSpec(q=6.0, r=6.0, s=0.0, sigma=0.75))
    tilde = spacetime_norm(
        traj, SpacetimeNormSpec(q=6.0, r=6.0, s=0.0, sigma=0.75, variant="TILDE")
    )
    # overlap of adjacent cutoffs keeps this from exact equality
    assert 0.5 < tilde / plain < 2.0


@pytest.mark.parametrize("variant", ["PLAIN", "TILDE"])
def test_spacetime_norm_reads_a_one_pass_stream(variant):
    u0 = gaussian(GRID, amplitude=0.5)
    cfg = EvolveConfig(PARAMS, t_end=0.1, dt=1e-3, snapshot_stride=10)
    spec = SpacetimeNormSpec(q=6.0, r=6.0, s=0.5, sigma=0.75, variant=variant)
    stream = ((t, u) for t, u, _ in snapshots(u0, cfg))
    assert spacetime_norm(stream, spec) == spacetime_norm(evolve(u0, cfg), spec)


def test_spacetime_norm_rejects_no_snapshots():
    with pytest.raises(ValueError, match="at least one snapshot"):
        spacetime_norm([], SpacetimeNormSpec(q=6.0, r=6.0, s=0.0, sigma=0.75))


def test_sup_in_time_variant():
    traj = _traj(t_end=0.2)
    spec = SpacetimeNormSpec(q=np.inf, r=2.0, s=0.0, sigma=0.75)
    val = spacetime_norm(traj, spec)
    assert np.isfinite(val) and val > 0


def test_scattering_defect_forms_agree_at_moderate_amplitude():
    """Direct Cauchy increments and Duhamel increments measure the same drift."""
    params = ModelParams(d=1, sigma=0.75, p=3, mu=1, nu=1.0)
    u0 = gaussian(GRID, amplitude=0.3)
    traj = evolve(u0, EvolveConfig(params, t_end=0.4, dt=5e-4, snapshot_stride=100))
    s_c = -0.25
    rows = list(scattering_defects(traj, params, s_c))
    assert len(rows) == len(traj.times) - 1
    total_direct = sum(direct for _, _, direct, _ in rows)
    total_duhamel = sum(duhamel for _, _, _, duhamel in rows)
    assert total_duhamel == pytest.approx(total_direct, rel=0.05)


def test_high_frequency_energy_fraction_is_monotone():
    u = gaussian(GRID, amplitude=0.5, width=0.7)
    f0 = lp_band_energy_fraction(u, 0.0)
    f1 = lp_band_energy_fraction(u, 2.0)
    f2 = lp_band_energy_fraction(u, 8.0)
    assert f0 == pytest.approx(1.0)
    assert f0 >= f1 >= f2 >= 0.0
    assert f2 < 1e-10
