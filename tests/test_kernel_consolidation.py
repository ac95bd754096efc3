"""One kernel per operation, pinned to the copies it replaced.

The references below are the code paths that `galilean_boost`, the
`mode_indices`-based `rescale` and the `SolitonSymbol`-based `ErrorSymbol`
replaced: the pseudo-Galilean transform G_v as the galilean experiment, the
decoherence experiment and the soliton traveling-wave check each built it,
the argsort-and-slice `rescale`, and the closed form of the error symbol.
"""

import numpy as np
import pytest

from fnls.errors import RescaleAliasingError
from fnls.grid import ComplexField, Grid
from fnls.spectral import (
    fft,
    field_from_spectrum,
    galilean_boost,
    modulate,
    rescale,
    round_velocity,
    spatial_shift,
)
from fnls.symbols import ErrorSymbol, evaluate_symbol

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
    # E(0) = |v|^(2s) (numpy pow) - |v|^(2s) (float pow): 0 unless they round apart.
    assert E.flat[0] == old.flat[0]
    assert np.all(evaluate_symbol(ErrorSymbol(v, 1.0), grid) == 0.0)
    assert np.all(evaluate_symbol(ErrorSymbol((0.0,) * d, sigma), grid) == 0.0)
