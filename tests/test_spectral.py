"""Spectral transforms against direct DFT summation and closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fnls.errors import OffLatticeError, RescaleAliasingError
from fnls.grid import ComplexField, Grid
from fnls.profiles import gaussian
from fnls.spectral import (
    HOMOGENEOUS,
    INHOMOGENEOUS,
    BandMultiplier,
    apply_multiplier,
    field_from_spectrum,
    fft,
    lebesgue_norm,
    modulate,
    rescale,
    resolvable_scales,
    round_velocity,
    sobolev_norm,
    spatial_shift,
    tail_fraction,
)
from fnls.symbols import FractionalLaplacian, LpCutoff, evaluate_symbol
from references import physical_sobolev_norm, spectral_l2_norm


def _random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return ComplexField(grid, vals)


def _direct_multiplier_1d(u, symbol_fn):
    """O(n^2) DFT sum: no FFT, used as an independent oracle."""
    g = u.grid
    n = g.n[0]
    L = g.L[0]
    x = g.x[0]
    m = np.arange(n)
    m = np.where(m <= n // 2, m, m - n)
    k = 2 * np.pi * m / L
    out = np.zeros(n, dtype=complex)
    for j, kj in enumerate(k):
        coeff = np.sum(u.values * np.exp(-1j * kj * x)) / n
        out += symbol_fn(abs(kj)) * coeff * np.exp(1j * kj * x)
    return out


def test_fft_round_trip():
    g = Grid(2, 16, 4.0)
    u = _random_field(g, 3)
    v = field_from_spectrum(g, fft(u))
    assert np.allclose(v.values, u.values, atol=1e-13)


ONE_OFF_GRIDS = [Grid(1, 64, 9.0), Grid(2, (16, 32), (5.0, 7.0)), Grid(3, (8, 16, 8), (3.0, 4.0, 5.0))]


@pytest.mark.parametrize("g", ONE_OFF_GRIDS, ids=["1d", "2d", "3d"])
def test_one_off_transforms_into_an_output_buffer_are_bitwise_numpys(g):
    u = _random_field(g, 4)
    assert np.array_equal(fft(u), np.fft.fftn(u.values))
    held = np.empty(g.shape, dtype=np.complex128)
    assert fft(u, out=held) is held
    assert np.array_equal(held, np.fft.fftn(u.values))
    spectrum = _random_field(g, 5).values
    assert np.array_equal(field_from_spectrum(g, spectrum).values, np.fft.ifftn(spectrum))


def _box_multiplier(shape, half_widths):
    """Random real multiplier on a box of mode numbers m.

    Per axis: None is the whole axis and K is |m| <= K.
    """
    m = np.random.default_rng(7).uniform(0.5, 1.5, shape)
    for j, (n, K) in enumerate(zip(shape, half_widths)):
        if K is not None:
            modes = np.fft.fftfreq(n, 1.0 / n)
            m[(slice(None),) * j + (np.abs(modes) > K,)] = 0.0
    return m


# (shape, half-width per axis, box size per axis): bands that span a whole
# axis, bands with K = 0 (only the zero mode), and an unpruned one.
BAND_CASES = {
    "1d-wraps": ((64,), (5,), [11]),
    "2d-whole-axis-0": ((32, 64), (None, 3), [32, 7]),
    "2d-k0-on-axis-1": ((32, 64), (4, 0), [9, 1]),
    "3d-k0-and-whole-axis": ((8, 16, 32), (0, None, 3), [1, 16, 7]),
    "3d-unpruned": ((8, 16, 8), (None, None, None), [8, 16, 8]),
}


@pytest.mark.parametrize("case", BAND_CASES, ids=list(BAND_CASES))
def test_band_multiplier_matches_the_full_inverse_transform(case):
    shape, half_widths, sizes = BAND_CASES[case]
    m = _box_multiplier(shape, half_widths)
    band = BandMultiplier(m)
    assert [sum(s.stop - s.start for s in b) for b in band.box] == sizes
    spectrum = np.random.default_rng(8).normal(size=shape + (2,)) @ [1, 1j]
    want = np.fft.ifftn(m * spectrum)
    got = band.inverse(spectrum, np.full(shape, np.nan, dtype=np.complex128))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_band_box_covers_a_support_on_negative_modes_alone():
    m = np.zeros(16)
    m[-3] = 1.0  # mode -3 only: the box is |m| <= 3
    assert BandMultiplier(m).box == [[slice(0, 4), slice(13, 16)]]


def test_band_multiplier_of_a_zero_multiplier_has_an_empty_box():
    band = BandMultiplier(np.zeros((8, 16)))
    assert band.box == [[], []] and band.blocks == []
    out = band.inverse(np.ones((8, 16), dtype=np.complex128), np.empty((8, 16), dtype=complex))
    assert not np.any(out)


def test_apply_multiplier_matches_direct_dft_sum():
    g = Grid(1, 16, 7.0)
    u = _random_field(g, 5)
    sigma = 0.65
    got = apply_multiplier(u, FractionalLaplacian(sigma)).values
    want = _direct_multiplier_1d(u, lambda r: r ** (2 * sigma))
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-12


def test_plane_wave_is_eigenfunction():
    g = Grid(1, 64, 16 * np.pi)
    kj = g.k[0][5]
    u = ComplexField(g, np.exp(1j * kj * g.x[0]))
    out = apply_multiplier(u, FractionalLaplacian(0.75))
    assert np.allclose(out.values, (abs(kj) ** 1.5) * u.values, rtol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_plancherel_property(seed):
    g = Grid(1, 32, 5.0)
    u = _random_field(g, seed)
    assert spectral_l2_norm(u) == pytest.approx(lebesgue_norm(u, 2.0), rel=1e-12)


def test_lebesgue_norm_closed_form():
    g = Grid(1, 512, 20.0)
    u = ComplexField(g, np.exp(-(g.x[0] ** 2)).astype(complex))
    # integral of exp(-2 x^2) is sqrt(pi / 2)
    assert lebesgue_norm(u, 2.0) == pytest.approx((np.pi / 2) ** 0.25, rel=1e-10)
    assert lebesgue_norm(u, np.inf) == pytest.approx(1.0)


SOBOLEV_GRIDS = {
    "1d4096": Grid(1, 4096, 128 * np.pi),
    "2d256": Grid(2, 256, 16 * np.pi),
    "3d64": Grid(3, 64, 8 * np.pi),
}


@pytest.mark.parametrize("homogeneity", [INHOMOGENEOUS, HOMOGENEOUS])
@pytest.mark.parametrize("s", [-0.25, 0.0, 1 / 6, 1.0])
@pytest.mark.parametrize("size", list(SOBOLEV_GRIDS))
def test_sobolev_norm_against_direct_spectral_sum(size, s, homogeneity):
    g = SOBOLEV_GRIDS[size]
    u = gaussian(g, width=1.5, center=np.full(g.d, 0.3)) + 0.1 * _random_field(g, 11)
    spec = np.fft.fftn(u.values) / g.total_points
    k = g.k_abs
    if homogeneity == INHOMOGENEOUS:
        weight2 = (1 + k**2) ** s
    else:
        with np.errstate(divide="ignore"):
            weight2 = np.where(k > 0, k ** (2 * s), 0.0 if s != 0 else 1.0)
    direct = np.sqrt(np.sum(weight2 * np.abs(spec) ** 2) * np.prod(g.L))
    got = sobolev_norm(u, s, homogeneity)
    assert got == pytest.approx(direct, rel=1e-13)
    assert got == pytest.approx(physical_sobolev_norm(u, s, homogeneity), rel=1e-13)


def test_sobolev_norm_is_one_forward_fft(monkeypatch):
    calls = {"fftn": 0, "ifftn": 0}
    for name in calls:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    u = _random_field(Grid(2, 16, 4.0), 7)
    for homogeneity in (INHOMOGENEOUS, HOMOGENEOUS):
        sobolev_norm(u, 0.5, homogeneity=homogeneity)
    assert calls == {"fftn": 2, "ifftn": 0}


def test_negative_order_sobolev_norm_is_finite():
    g = Grid(1, 64, 12.0)
    u = _random_field(g, 2)
    val = sobolev_norm(u, -0.25, INHOMOGENEOUS)
    assert np.isfinite(val) and val > 0


def test_resolvable_scales_are_dyadic_and_within_range():
    g = Grid(1, 256, 16 * np.pi)
    scales = resolvable_scales(g)
    assert all(b / a == 2.0 for a, b in zip(scales, scales[1:]))
    assert scales[0] >= g.k_min
    assert scales[-1] <= g.k_nyquist


def reconstruct_from_bands(u):
    """Sum of all resolvable LP projections plus the mean of u."""
    grid = u.grid
    uh = fft(u)
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for N in resolvable_scales(grid):
        acc = acc + evaluate_symbol(LpCutoff(N), grid) * uh
    mean = np.zeros(grid.shape, dtype=np.complex128)
    mean.flat[0] = uh.flat[0]
    return field_from_spectrum(grid, acc + mean)


def test_band_reconstruction_recovers_interior_content():
    g = Grid(1, 256, 16 * np.pi)
    # plane wave inside the resolvable band is reproduced by summing projections
    kj = g.k[0][20]
    u = ComplexField(g, np.exp(1j * kj * g.x[0]))
    total = reconstruct_from_bands(u)
    assert np.allclose(total.values, u.values, atol=1e-10)


def test_modulate_round_trip_and_off_lattice_guard():
    g = Grid(1, 64, 16 * np.pi)
    u = _random_field(g, 9)
    v = round_velocity(g, (0.5,))
    w = modulate(modulate(u, v), tuple(-c for c in v))
    assert np.allclose(w.values, u.values, atol=1e-13)
    with pytest.raises(OffLatticeError):
        modulate(u, (0.5 + 0.01,))


def test_round_velocity_lands_on_lattice():
    g = Grid(1, 64, 16 * np.pi)
    v = round_velocity(g, (0.43,))
    assert v[0] == pytest.approx(round(0.43 / g.k_min) * g.k_min)


def test_spatial_shift_matches_roll_on_lattice():
    g = Grid(1, 64, 8.0)
    u = _random_field(g, 13)
    dx = g.L[0] / g.n[0]
    shifted = spatial_shift(u, (3 * dx,))
    assert np.allclose(shifted.values, np.roll(u.values, 3), atol=1e-12)


def test_rescale_plane_wave_exactly():
    g = Grid(1, 64, 16 * np.pi)
    kj = g.k[0][4]
    u = ComplexField(g, np.exp(1j * kj * g.x[0]))
    beta = 2.0
    v = rescale(u, beta, 128)
    # u(beta x) on the new box: same mode index, new box L / beta
    assert v.grid.L[0] == pytest.approx(g.L[0] / beta)
    x_new = v.grid.x[0]
    assert np.allclose(v.values, np.exp(1j * kj * beta * x_new), atol=1e-12)


def test_rescale_raises_on_aliasing():
    g = Grid(1, 64, 16 * np.pi)
    rng = np.random.default_rng(1)
    vals = rng.normal(size=64) + 1j * rng.normal(size=64)
    u = ComplexField(g, vals)  # full-band content cannot shrink to n=16
    with pytest.raises(RescaleAliasingError):
        rescale(u, 1.0, 16)


def test_rescale_preserves_smooth_profiles():
    g = Grid(1, 256, 32.0)
    u = ComplexField(g, np.exp(-(g.x[0] ** 2)).astype(complex))
    nu = 0.5
    v = rescale(u, nu, 256)
    x_new = v.grid.x[0]
    assert np.max(np.abs(v.values - np.exp(-((nu * x_new) ** 2)))) < 1e-10


def test_tail_fraction_is_monotone_in_its_cutoff():
    grid = Grid(1, 256, 16 * np.pi)
    uh = fft(gaussian(grid, amplitude=0.5, width=0.7))
    f0, f1, f2 = (tail_fraction(uh, grid.k_abs >= k) for k in (0.0, 2.0, 8.0))
    assert f0 == pytest.approx(1.0)
    assert f0 >= f1 >= f2 >= 0.0
    assert f2 < 1e-10
    assert tail_fraction(np.zeros(grid.shape, dtype=np.complex128), grid.k_abs >= 0) == 0.0
