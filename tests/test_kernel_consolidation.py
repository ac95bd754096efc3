"""One kernel per operation, pinned to the copies it replaced.

The references below are the code paths that `galilean_boost`, the unit
phase `linear_flow` of `modulate` and `spatial_shift`, `build_tilde` at
t = 0, the `mode_indices`-based `rescale`, the `SolitonSymbol`-based
`ErrorSymbol`, `grid.squared_distance` and the Plancherel `energy`
replaced: the pseudo-Galilean transform G_v as the galilean experiment,
the decoherence experiment and the soliton traveling-wave check each built
it, the np.exp phases, the galilean experiment's own modulated and
rescaled datum, the argsort-and-slice `rescale`, the closed form of the
error symbol, the per-axis loop that `Grid.k_squared`, the soliton
symbol's |xi - v| and `ProfileSpec.realize` each ran, and the energy
density in physical space from an FFT pair.
"""

import numpy as np
import pytest

import fnls.grid
from fnls.errors import RescaleAliasingError
from fnls.experiments.galilean import build_tilde
from fnls.grid import ComplexField, Grid, axis_dot, squared_distance
from fnls.observables import energy
from fnls.spectral import (
    apply_multiplier,
    fft,
    field_from_spectrum,
    galilean_boost,
    modulate,
    rescale,
    round_velocity,
    spatial_shift,
)
from fnls.symbols import ErrorSymbol, FractionalLaplacian, Riesz, SolitonSymbol, evaluate_symbol

SIGMA = 0.75


def _galilean_form(flat, v, t, sigma):
    """G_v as `galilean.boosted_comparison` built it (after the rescale)."""
    vmag = float(np.linalg.norm(v))
    if vmag > 0:
        drift = 2 * t * sigma * vmag ** (2 * (sigma - 1)) * np.asarray(v)
        flat = spatial_shift(flat, drift)
    out = modulate(flat, v)
    phase = t * vmag ** (2 * sigma)
    return ComplexField(out.grid, np.exp(1j * phase) * out.values)


def _decoherence_form(flat, v, t, sigma):
    """G_v as `decoherence._build_tilde` built it (after rescale and amplitude)."""
    vmag = float(np.linalg.norm(v))
    if t != 0:
        drift = 2 * t * sigma * vmag ** (2 * (sigma - 1)) * np.asarray(v)
        flat = spatial_shift(flat, drift)
    out = modulate(flat, v)
    phase = t * vmag ** (2 * sigma)
    return ComplexField(out.grid, np.exp(1j * phase) * out.values)


def _soliton_form(Q, v, t, sigma, omega):
    """The analytic traveling wave of `soliton.traveling_wave_check`."""
    vmag = float(np.linalg.norm(v))
    if vmag > 0:
        drift = 2 * t * sigma * vmag ** (2 * (sigma - 1)) * v
        phase = t * (vmag ** (2 * sigma) - omega ** (2 * sigma))
        ref = spatial_shift(Q, drift)
    else:
        phase = -t * omega ** (2 * sigma)
        ref = Q
    ref = modulate(ref, v)
    return ComplexField(Q.grid, np.exp(1j * phase) * ref.values)


def _half(n):
    m = np.fft.fftfreq(n) * n
    m[n // 2] = n // 2
    return m.astype(int)


def _argsort_rescale(u, beta, n_target, alias_tol=1e-12):
    """`spectral.rescale` as it was: sort the modes, keep a slice, scatter back."""
    grid = u.grid
    target = Grid(grid.d, n_target, tuple(Lj / beta for Lj in grid.L))
    src = fft(u) / grid.total_points
    dst = np.zeros(target.shape, dtype=np.complex128)
    sorted_src = src[np.ix_(*[np.argsort(_half(nj)) for nj in grid.n])]
    total = np.sum(np.abs(src) ** 2)
    slices_src, slices_dst = [], []
    for ns, nt in zip(grid.n, target.n):
        ms_sorted = _half(ns)[np.argsort(_half(ns))]
        keep = (ms_sorted > -nt // 2) & (ms_sorted <= nt // 2)
        slices_src.append(keep)
        slices_dst.append(ms_sorted[keep])
    kept = sorted_src[np.ix_(*slices_src)]
    if total > 0 and 1.0 - np.sum(np.abs(kept) ** 2) / total > alias_tol:
        raise RescaleAliasingError("rescale aliasing")
    dst[np.ix_(*[np.mod(m, nt) for m, nt in zip(slices_dst, target.n)])] = kept
    return field_from_spectrum(target, dst * target.total_points)


def _closed_form_error_symbol(v, sigma, grid):
    """E(xi) = |xi - v|^(2s) - |xi|^(2s) - |v|^(2s) + 2s |v|^(2s-2) v.xi, as it was."""
    v = np.asarray(v, dtype=float)
    vmag = float(np.linalg.norm(v))
    if vmag == 0 or sigma == 1.0:
        return np.zeros(grid.shape)
    ts = 2 * sigma
    shifted = np.sqrt(sum((kj - vj) ** 2 for kj, vj in zip(grid.k, v)))
    dot = sum(vj * kj for kj, vj in zip(grid.k, v))
    return shifted**ts - grid.k_abs**ts - vmag**ts + ts * vmag ** (ts - 2) * dot


def _loop_squared_distance(grid, axes, c):
    """sum_j (axes[j] - c_j)^2 by the loop each of its three callers ran."""
    s = np.zeros(grid.shape)
    for aj, cj in zip(axes, c):
        s = s + (aj - cj) ** 2
    return s


def _physical_energy(u, sigma, mu, p):
    """`observables.energy` as it was: |grad|^sigma u by an FFT pair, then the density."""
    kinetic = apply_multiplier(u, Riesz(sigma))
    dens = 0.5 * np.abs(kinetic.values) ** 2 + (mu / (p + 1)) * np.abs(u.values) ** (p + 1)
    return float(np.sum(dens) * u.grid.cell_volume)


def _smooth_field(grid, seed):
    rng = np.random.default_rng(seed)
    envelope = np.exp(-sum((xj / 2.0) ** 2 for xj in grid.x))
    phase = sum(rng.normal() * xj for xj in grid.x)
    return ComplexField(grid, envelope * np.exp(1j * phase))


def _band_limited(grid, n_band, seed):
    """Random spectrum on the modes (-n_band/2, n_band/2] of every axis."""
    rng = np.random.default_rng(seed)
    spec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    for j, (nj, bj) in enumerate(zip(grid.n, n_band)):
        m = _half(nj).reshape([-1 if i == j else 1 for i in range(grid.d)])
        spec = np.where((m > -bj // 2) & (m <= bj // 2), spec, 0.0)
    return field_from_spectrum(grid, spec)


BOOST_CASES = [
    (1, 0.7, (8.0,)),
    (1, 0.0, (8.0,)),
    (1, 0.7, (0.0,)),
    (1, 0.0, (0.0,)),
    (2, 0.4, (4.0, -2.0)),
    (2, 0.0, (4.0, 2.0)),
    (2, 0.4, (0.0, 0.0)),
]


def _boost_inputs(d, v):
    grid = Grid(d, 128 if d == 1 else 64, 16 * np.pi)
    return _smooth_field(grid, d), round_velocity(grid, v)


@pytest.mark.parametrize("d, t, v", BOOST_CASES)
def test_galilean_boost_matches_galilean_form(d, t, v):
    u, v = _boost_inputs(d, v)
    new = galilean_boost(u, v, t, SIGMA).values
    old = _galilean_form(u, v, t, SIGMA).values
    if t == 0 and np.any(v):
        # The old form shifted by a zero drift: an FFT round trip.
        assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))
    else:
        assert np.array_equal(new, old)


@pytest.mark.parametrize("d, t, v", [c for c in BOOST_CASES if c[1] == 0 or any(c[2])])
def test_galilean_boost_matches_decoherence_form(d, t, v):
    # The old form cannot take t != 0 at v = 0: |v|^(2 sigma - 2) is infinite.
    u, v = _boost_inputs(d, v)
    flat = 0.3 * u
    assert np.array_equal(
        galilean_boost(flat, v, t, SIGMA).values, _decoherence_form(flat, v, t, SIGMA).values
    )


@pytest.mark.parametrize("d, t, v", BOOST_CASES)
def test_galilean_boost_matches_soliton_form(d, t, v):
    u, v = _boost_inputs(d, v)
    omega = 1.3
    new = np.exp(-1j * t * omega ** (2 * SIGMA)) * galilean_boost(u, v, t, SIGMA).values
    old = _soliton_form(u, v, t, SIGMA, omega).values
    assert np.linalg.norm(new - old) <= 1e-14 * np.linalg.norm(old)


@pytest.mark.parametrize("block", [None, 1000], ids=["default-blocks", "ragged-blocks"])
def test_modulate_and_shift_phases_are_exp_minus_i_theta_to_one_ulp(monkeypatch, block):
    # Both phases are linear_flow(theta, -1), written block by block; a 2D
    # 256^2 grid spans several blocks, and 1000 samples divide no grid.
    if block is not None:
        monkeypatch.setattr(fnls.grid, "BLOCK", block)
    grid = Grid(2, 256, (30.0, 40.0))
    assert grid.total_points > fnls.grid.BLOCK
    v, a = round_velocity(grid, (4.0, -2.5)), (0.7, -1.3)
    # A unit field modulates to the phase itself: 1 x (c + is) is exact.
    got = modulate(ComplexField(grid, np.ones(grid.shape)), v).values.view(float)
    want = np.exp(-1j * axis_dot(grid, grid.x, v)).view(float)
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))
    # The shift's phase multiplies the spectrum between one FFT pair.
    u = _smooth_field(grid, 2)
    got = spatial_shift(u, a).values
    want = np.fft.ifftn(np.exp(-1j * axis_dot(grid, grid.k, a)) * np.fft.fftn(u.values))
    assert np.max(np.abs(got - want)) <= np.spacing(np.max(np.abs(want)))


@pytest.mark.parametrize("d, v", [(1, (8.0,)), (2, (4.0, -2.0))])
@pytest.mark.parametrize("nu", [0.2, 0.05])
def test_build_tilde_at_time_zero_is_the_modulated_rescaled_datum(d, v, nu):
    # u(0) of the galilean experiment, as it was built beside build_tilde.
    grid_x = Grid(d, 256 if d == 1 else 64, 16 * np.pi)
    phi0 = _smooth_field(Grid(d, 32, tuple(nu * Lj for Lj in grid_x.L)), d)
    v = round_velocity(grid_x, v)
    got = build_tilde(phi0, 0.0, nu, 1.0, v, SIGMA, 3, grid_x.n)
    want = modulate(rescale(phi0, nu, grid_x.n), v)
    assert got.grid == want.grid
    assert np.array_equal(got.values, want.values)


RESCALE_CASES = [
    ("pad 1d", (64,), (128,), (64,), 2.0),
    ("truncate 1d", (128,), (64,), (48,), 0.5),
    ("mixed 2d", (32, 64), (64, 32), (32, 16), 1.5),
    ("3d", (8, 16, 8), (16, 8, 8), (8, 8, 8), 0.75),
    ("live Nyquist", (16, 32), (32, 16), (16, 16), 1.0),
]


@pytest.mark.parametrize("name, n_src, n_dst, band, beta", RESCALE_CASES)
def test_rescale_matches_argsort_rescale(name, n_src, n_dst, band, beta):
    grid = Grid(len(n_src), n_src, 10.0)
    u = _band_limited(grid, band, seed=len(name))
    if name == "live Nyquist":
        # Source Nyquist on axis 0, target Nyquist on axis 1.
        assert np.abs(fft(u)[8, 8]) > 0
    new, old = rescale(u, beta, n_dst), _argsort_rescale(u, beta, n_dst)
    assert new.grid == old.grid
    assert np.array_equal(new.values, old.values)


def test_rescale_still_raises_on_aliasing_per_axis():
    grid = Grid(2, (32, 16), 10.0)
    u = _band_limited(grid, (32, 16), seed=5)  # full band on axis 0
    with pytest.raises(RescaleAliasingError):
        _argsort_rescale(u, 1.0, (16, 16))
    with pytest.raises(RescaleAliasingError):
        rescale(u, 1.0, (16, 16))


@pytest.mark.parametrize("d, v", [(1, (0.5,)), (1, (-1.25,)), (2, (0.5, 0.25)), (2, (0.0, 1.0))])
@pytest.mark.parametrize("sigma", [0.3, 0.6, 0.75, 0.95])
def test_error_symbol_matches_closed_form(d, v, sigma):
    grid = Grid(d, 64, 16 * np.pi)
    E = evaluate_symbol(ErrorSymbol(v, sigma), grid)
    old = _closed_form_error_symbol(v, sigma, grid)
    assert np.max(np.abs(E - old)) <= 1e-14 * np.max(np.abs(old))
    # E(0) is exactly 0, where the closed form's two |v|^(2s) can round apart.
    assert E.flat[0] == 0.0
    assert np.all(evaluate_symbol(ErrorSymbol(v, 1.0), grid) == 0.0)
    assert np.all(evaluate_symbol(ErrorSymbol((0.0,) * d, sigma), grid) == 0.0)


@pytest.mark.parametrize(
    "grid, v",
    [
        (Grid(1, 64, 16 * np.pi), (0.5,)),
        (Grid(2, (16, 32), (8.0, 12.0)), (0.5, 0.25)),
        (Grid(3, (8, 16, 32), (6.0, 8.0, 10.0)), (0.5, 0.25, -0.3)),
    ],
    ids=["1d", "2d", "3d"],
)
@pytest.mark.parametrize("sigma", [0.3, 0.75, 0.95])
def test_error_symbol_is_soliton_symbol_minus_fractional_laplacian(grid, v, sigma):
    # One |xi|^(2 sigma) kernel: E and p_v at v = 0 take it from FractionalLaplacian.
    laplacian = evaluate_symbol(FractionalLaplacian(sigma), grid)
    p_v = evaluate_symbol(SolitonSymbol(v, sigma), grid)
    assert np.array_equal(evaluate_symbol(ErrorSymbol(v, sigma), grid), p_v - laplacian)
    p_0 = evaluate_symbol(SolitonSymbol((0.0,) * grid.d, sigma), grid)
    assert np.array_equal(p_0, laplacian)


GRIDS = [Grid(1, 32, 8.0), Grid(2, (16, 32), (8.0, 12.0)), Grid(3, (8, 16, 32), (6.0, 8.0, 10.0))]


@pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d", "3d"])
def test_squared_distance_is_the_per_axis_loop_bit_for_bit(grid):
    c = [0.5, -0.25, 1.3][: grid.d]
    for axes in (grid.x, grid.k):
        got = squared_distance(grid, axes, c)
        assert got.shape == grid.shape
        assert np.array_equal(got, _loop_squared_distance(grid, axes, c))
    k2 = np.zeros(grid.shape)
    for kj in grid.k:
        k2 = k2 + kj**2
    assert np.array_equal(grid.k_squared, k2)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.3, 0.75, 1.0])
@pytest.mark.parametrize("mu, p", [(1, 3), (-1, 2.5)])
def test_energy_matches_the_physical_space_density(d, sigma, mu, p):
    u = _smooth_field(Grid(d, 64 if d < 3 else 16, 16 * np.pi if d < 3 else 8 * np.pi), d)
    assert energy(u, sigma, mu, p) == pytest.approx(_physical_energy(u, sigma, mu, p), rel=1e-12)
