"""Multiplier application, projections, norms, shifts and rescaling."""

import math

import numpy as np

from .errors import DyadicScaleError, OffLatticeError, RescaleAliasingError
from .grid import ComplexField, Grid, abs_power, axis_dot, axis_vector, mode_indices
from .symbols import Bessel, LpCutoff, Riesz, evaluate_symbol

HOMOGENEOUS = "HOMOGENEOUS"
INHOMOGENEOUS = "INHOMOGENEOUS"

#: Largest fraction of spectral energy that rescale may truncate away.
RESCALE_ALIAS_TOL = 1e-12


def fft(field):
    """Forward transform of the sample array (unnormalized)."""
    return np.fft.fftn(field.values)


def field_from_spectrum(grid, spectrum):
    return ComplexField(grid, np.fft.ifftn(spectrum))


def apply_multiplier(u, spec):
    """Inverse transform of (multiplier x forward transform of u)."""
    m = evaluate_symbol(spec, u.grid)
    return field_from_spectrum(u.grid, m * fft(u))


def resolvable_scales(grid):
    """Dyadic N = 2^j within the grid-resolvable range [k_min, k_nyquist]."""
    j_lo = int(np.ceil(np.log2(grid.k_min) - 1e-9))
    j_hi = int(np.floor(np.log2(grid.k_nyquist) + 1e-9))
    return [2.0**j for j in range(j_lo, j_hi + 1)]


def littlewood_paley_project(u, N):
    """Project u onto the dyadic annulus |xi| ~ N."""
    j = np.log2(N)
    if abs(j - round(j)) > 1e-12:
        raise DyadicScaleError(f"dyadic scale unresolved: N = {N} is not a power of two")
    grid = u.grid
    if not grid.k_min <= N <= grid.k_nyquist:
        raise DyadicScaleError(
            f"dyadic scale unresolved: N = {N} outside [{grid.k_min:.4g}, {grid.k_nyquist:.4g}]"
        )
    return apply_multiplier(u, LpCutoff(N))


def lebesgue_norm(u, r):
    """L^r norm by rectangle-rule quadrature; r = inf returns max |u|."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if np.isinf(r):
        return float(np.max(np.abs(u.values)))
    return float((np.sum(abs_power(u.values, r)) * u.grid.cell_volume) ** (1.0 / r))


def plancherel(spectrum, weight2, grid):
    """Integral of |v|^2 where v has unnormalized spectrum sqrt(weight2) * spectrum."""
    total = np.sum(weight2 * abs_power(spectrum, 2))
    return float(total / grid.total_points * grid.cell_volume)


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
    return ComplexField(grid, u.values * np.exp(-1j * axis_dot(grid, grid.x, rounded)))


def spatial_shift(u, a):
    """Translate u by a (result(x) = u(x - a)) via a spectral phase shift."""
    grid = u.grid
    a = axis_vector(a, grid.d, "shift")
    return field_from_spectrum(grid, np.exp(-1j * axis_dot(grid, grid.k, a)) * fft(u))


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


def rescale(u, beta, n_target=None):
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
    if n_target is None:
        n_target = grid.n
    target = Grid(grid.d, n_target, tuple(Lj / beta for Lj in grid.L))

    # The modes both axes resolve, m in (-min(ns, nt)/2, min(ns, nt)/2].
    common = [mode_indices(min(ns, nt)) for ns, nt in zip(grid.n, target.n)]
    src = fft(u) / grid.total_points
    kept = src[np.ix_(*[m % ns for m, ns in zip(common, grid.n)])]
    total = np.sum(abs_power(src, 2))
    if total > 0:
        discarded = 1.0 - np.sum(abs_power(kept, 2)) / total
        if discarded > RESCALE_ALIAS_TOL:
            raise RescaleAliasingError(
                f"rescale aliasing: {discarded:.3e} of spectral energy beyond target Nyquist"
            )
    dst = np.zeros(target.shape, dtype=np.complex128)
    dst[np.ix_(*[m % nt for m, nt in zip(common, target.n)])] = kept
    return field_from_spectrum(target, dst * target.total_points)
