"""Multiplier application, norms, shifts and rescaling."""

import itertools
import math

import numpy as np

from .errors import OffLatticeError, RescaleAliasingError
from .grid import ComplexField, Grid, abs_power, axis_dot, axis_vector, mode_indices
from .symbols import Bessel, Riesz, evaluate_symbol, linear_flow

HOMOGENEOUS = "HOMOGENEOUS"
INHOMOGENEOUS = "INHOMOGENEOUS"

#: Largest fraction of spectral energy that rescale may truncate away.
RESCALE_ALIAS_TOL = 1e-12


def fft(field, out=None):
    """Forward transform of a field's samples (unnormalized), into out or a new array.

    numpy's fftn given no output array allocates one for every axis it
    transforms; with one, the values are bitwise the same.
    """
    if out is None:
        out = np.empty(field.grid.shape, dtype=np.complex128)
    return np.fft.fftn(field.values, out=out)


def field_from_spectrum(grid, spectrum):
    out = np.empty(np.shape(spectrum), dtype=np.complex128)
    return ComplexField(grid, np.fft.ifftn(spectrum, out=out))


def apply_multiplier(u, spec):
    """Inverse transform of (multiplier x forward transform of u)."""
    m = evaluate_symbol(spec, u.grid)
    return field_from_spectrum(u.grid, m * fft(u))


def resolvable_scales(grid):
    """Dyadic N = 2^j within the grid-resolvable range [k_min, k_nyquist]."""
    j_lo = int(np.ceil(np.log2(grid.k_min) - 1e-9))
    j_hi = int(np.floor(np.log2(grid.k_nyquist) + 1e-9))
    return [2.0**j for j in range(j_lo, j_hi + 1)]


def lebesgue_norm(u, r):
    """L^r norm by rectangle-rule quadrature; r = inf returns max |u| as sqrt(max |u|^2)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if np.isinf(r):
        return math.sqrt(float(np.max(abs_power(u.values, 2))))
    return u.grid.integral(abs_power(u.values, r)) ** (1.0 / r)


def plancherel(spectrum, weight2, grid):
    """Integral of |v|^2 where v has unnormalized spectrum sqrt(weight2) * spectrum."""
    a = abs_power(spectrum, 2)
    a *= weight2
    return float(np.sum(a) / grid.total_points * grid.cell_volume)


def tail_fraction(spectrum, outside):
    """Share of sum |s_k|^2 on the modes where outside is True; 0 for a zero spectrum."""
    e = abs_power(spectrum, 2)
    total = float(np.sum(e))
    return float(np.sum(e[outside])) / total if total else 0.0


def _axis_box(support):
    """FFT-order slices of an axis that hold the modes |m| <= K.

    K is the largest |m| at which support is True; the box is the whole
    axis when 2K + 1 >= n, and empty when support is nowhere True.
    """
    n = support.size
    if not support.any():
        return []
    K = int(np.max(np.abs(mode_indices(n)[support])))
    if 2 * K + 1 >= n:
        return [slice(0, n)]
    if K == 0:
        return [slice(0, 1)]
    return [slice(0, K + 1), slice(n - K, n)]


class BandMultiplier:
    """A real Fourier multiplier held only on the box that holds its nonzeros.

    Per axis, the box covers the modes |m| <= K, K the largest |m| at which
    the multiplier is nonzero: one or two FFT-order slices. The multiplier
    is stored as the blocks of that box. `inverse` transforms the axes in
    order, axis j over only the lines whose later axes lie in the box (its
    earlier axes are already transformed): axis 0, the strided and
    costliest pass, transforms the fewest lines and the last axis all of
    them. Every skipped line is zero and stays zero, so the result is the
    inverse FFT of (multiplier x spectrum) up to the order of its roundoff.
    """

    def __init__(self, m):
        nonzero = m != 0
        axes = range(m.ndim)
        self.box = [
            _axis_box(np.any(nonzero, axis=tuple(k for k in axes if k != j))) for j in axes
        ]
        self.blocks = [(idx, m[idx].copy()) for idx in itertools.product(*self.box)]

    def inverse(self, spectrum, out):
        """out <- inverse FFT of (multiplier x spectrum); returns out."""
        out.fill(0)
        for idx, m in self.blocks:
            np.multiply(m, spectrum[idx], out=out[idx])
        for j in range(out.ndim):
            for later in itertools.product(*self.box[j + 1 :]):
                lines = out[(slice(None),) * (j + 1) + later]
                np.fft.ifft(lines, axis=j, out=lines)
        return out


def sobolev_norm(u, s, homogeneity=INHOMOGENEOUS):
    """H^s (Bessel) or Hdot^s (Riesz) norm by Plancherel: one forward FFT."""
    if homogeneity == INHOMOGENEOUS:
        spec = Bessel(s)
    elif homogeneity == HOMOGENEOUS:
        spec = Riesz(s)
    else:
        raise ValueError(f"unknown homogeneity {homogeneity!r}")
    weight = evaluate_symbol(spec, u.grid)
    return math.sqrt(plancherel(fft(u), weight**2, u.grid))


def round_velocity(grid, v):
    """Round v to the nearest lattice-commensurate vector (2 pi m / L_j)."""
    v = axis_vector(v, grid.d)
    return np.array(
        [2 * np.pi * round(vj * Lj / (2 * np.pi)) / Lj for vj, Lj in zip(v, grid.L)]
    )


def modulate(u, v):
    """Multiply by exp(-i v.x); v must be lattice-commensurate."""
    grid = u.grid
    v = axis_vector(v, grid.d)
    rounded = round_velocity(grid, v)
    if np.max(np.abs(v - rounded)) > 1e-9 * max(2 * np.pi / Lj for Lj in grid.L):
        raise OffLatticeError(
            f"modulation off-lattice: v = {v.tolist()}, nearest lattice vector {rounded.tolist()}"
        )
    return ComplexField(grid, u.values * linear_flow(axis_dot(grid, grid.x, rounded), -1.0))


def spatial_shift(u, a):
    """Translate u by a (result(x) = u(x - a)) via a spectral phase shift."""
    grid = u.grid
    a = axis_vector(a, grid.d, "shift")
    return field_from_spectrum(grid, linear_flow(axis_dot(grid, grid.k, a), -1.0) * fft(u))


def galilean_boost(u, v, t, sigma):
    """Pseudo-Galilean transform G_v of u at time t.

    Returns exp(i t |v|^(2 sigma)) exp(-i v.x) u(x - 2 t sigma |v|^(2 sigma - 2) v),
    an exact symmetry of the flow only at sigma = 1. The shift is skipped at
    t = 0 or v = 0, where |v|^(2 sigma - 2) may be infinite.
    """
    v = axis_vector(v, u.grid.d)
    vmag = float(np.linalg.norm(v))
    if t != 0 and vmag > 0:
        u = spatial_shift(u, 2 * t * sigma * vmag ** (2 * (sigma - 1)) * v)
    out = modulate(u, v)
    phase = t * vmag ** (2 * sigma)
    return ComplexField(out.grid, np.exp(1j * phase) * out.values)


def rescale(u, beta, n_target):
    """Return the field x -> u(beta x) on the box with extents L/beta.

    Spectral content moves rigidly: mode m of the source becomes mode m of
    the target (frequency k -> beta k on the wider/narrower box), so the
    operation is a spectral pad/truncate plus a box reinterpretation and is
    exact for band-limited data. Truncation that would discard more than
    RESCALE_ALIAS_TOL of the spectral energy raises RescaleAliasingError.
    """
    grid = u.grid
    if beta <= 0:
        raise ValueError("beta must be positive")
    target = Grid(grid.d, n_target, tuple(Lj / beta for Lj in grid.L))

    # The modes both axes resolve, m in (-min(ns, nt)/2, min(ns, nt)/2].
    common = [mode_indices(min(ns, nt)) for ns, nt in zip(grid.n, target.n)]
    src = fft(u) / grid.total_points
    box = np.ix_(*[m % ns for m, ns in zip(common, grid.n)])
    outside = np.ones(grid.shape, dtype=bool)
    outside[box] = False
    discarded = tail_fraction(src, outside)
    if discarded > RESCALE_ALIAS_TOL:
        raise RescaleAliasingError(
            f"rescale aliasing: {discarded:.3e} of spectral energy beyond target Nyquist"
        )
    dst = np.zeros(target.shape, dtype=np.complex128)
    dst[np.ix_(*[m % nt for m, nt in zip(common, target.n)])] = src[box]
    return field_from_spectrum(target, dst * target.total_points)
