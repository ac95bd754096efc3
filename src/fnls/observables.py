"""Conserved quantities, space-time norms and the scattering defect."""

import math
from dataclasses import dataclass

import numpy as np

from .exponents import is_admissible
from .grid import ComplexField, abs_power
from .spectral import BandMultiplier, fft, lebesgue_norm, plancherel, resolvable_scales
from .symbols import (
    Bessel,
    FractionalLaplacian,
    LpCutoff,
    StrichartzWeight,
    evaluate_symbol,
    linear_flow,
)

PLAIN = "PLAIN"
TILDE = "TILDE"


def _integral(density, grid):
    """Integral of a density by the rectangle rule: its sum times the cell volume.

    A sum that overflows over a cell volume below 1 is taken again as the sum
    of density times cell volume, so a finite integral near the largest double
    stays finite; any other sum keeps the sum-then-multiply order.
    """
    with np.errstate(over="ignore"):
        total = np.sum(density)
    if np.isinf(total) and grid.cell_volume < 1:
        return float(np.sum(density * grid.cell_volume))
    return float(total * grid.cell_volume)


def mass(u):
    """Integral of |u|^2."""
    return _integral(abs_power(u.values, 2), u.grid)


def field_diagnostics(grid, spectrum, dispersion, mu, p, u=None):
    """(u, its mass, energy and L^inf) from u's unnormalized spectrum and omega.

    The energy is 1/2 int omega |u_hat|^2 + mu/(p+1) int |u|^(p+1), omega the
    dispersion relation of the linear flow. Its kinetic part comes from the
    spectrum by Plancherel; then, if u is not given, the spectrum is inverted
    in place to give it. Mass, L^inf and the potential part come from one
    |u|^2 array.
    """
    kinetic = 0.5 * plancherel(spectrum, dispersion, grid)
    if u is None:
        u = ComplexField(grid, np.fft.ifftn(spectrum, out=spectrum))
    a = abs_power(u.values, 2)
    m = _integral(a, grid)
    linf = math.sqrt(float(np.max(a)))
    np.power(a, (p + 1) / 2, out=a)  # |u|^(p+1), as abs_power takes it
    potential = float((mu / (p + 1)) * np.sum(a) * grid.cell_volume)
    return u, {"mass": m, "energy": kinetic + potential, "linf": linf}


def energy(u, sigma, mu, p):
    """Integral of 1/2 ||grad|^sigma u|^2 + mu/(p+1) |u|^(p+1); one forward FFT."""
    laplacian = evaluate_symbol(FractionalLaplacian(sigma), u.grid)
    return field_diagnostics(u.grid, fft(u), laplacian, mu, p, u)[1]["energy"]


@dataclass(frozen=True)
class SpacetimeNormSpec:
    q: float
    r: float
    s: float
    sigma: float
    variant: str = PLAIN

    def validate(self, d):
        if not is_admissible(self.q, self.r, d):
            raise ValueError(f"(q, r) = ({self.q}, {self.r}) not admissible for d = {d}")
        if self.variant not in (PLAIN, TILDE):
            raise ValueError(f"unknown variant {self.variant!r}")


def _time_lq(times, values, q):
    values = np.asarray(values, dtype=float)
    if np.isinf(q):
        return float(np.max(values))
    return float(np.trapezoid(values**q, times) ** (1.0 / q))


def spacetime_norm(snapshots, spec):
    """Strichartz-type norm of (t, field) snapshots by composite trapezoid in time.

    PLAIN: L^q in time of the W^(s,r) norm of the derivative-loss-weighted
    field. TILDE: l^2 over resolvable dyadic bands of the per-band PLAIN
    norm. Each band is one multiplier (weight x Bessel(s) x LP cutoff),
    evaluated once per call and held as a `BandMultiplier`: only the box
    of FFT-order slices that holds its nonzeros is stored. A snapshot costs
    one forward FFT into a held buffer and, per band, an inverse transform
    that skips the lines outside the band's box, which are zero. No field
    is kept.
    """
    times = []
    for t, u in snapshots:
        if not times:  # the first snapshot's grid sets the bands
            grid = u.grid
            spec.validate(grid.d)
            bands = [BandMultiplier(m) for m in _spacetime_bands(grid, spec)]
            vals = [[] for _ in bands]
            uh = np.empty(grid.shape, dtype=np.complex128)
            work = np.empty_like(uh)
        fft(u, out=uh)
        for b, band in enumerate(bands):
            band.inverse(uh, work)
            vals[b].append(lebesgue_norm(ComplexField(grid, work), spec.r))
        times.append(t)
    if not times:
        raise ValueError("spacetime_norm needs at least one snapshot")
    norms = [_time_lq(times, v, spec.q) for v in vals]
    if spec.variant == PLAIN:
        return norms[0]
    return float(np.sqrt(sum(n**2 for n in norms)))


def _spacetime_bands(grid, spec):
    """Yield the multiplier of each band spacetime_norm sums over, one at a time."""
    weight = evaluate_symbol(StrichartzWeight(spec.r, grid.d, spec.sigma), grid)
    if spec.s != 0:
        weight = weight * evaluate_symbol(Bessel(spec.s), grid)
    if spec.variant == PLAIN:
        yield weight
        return
    for N in resolvable_scales(grid):
        yield weight * evaluate_symbol(LpCutoff(N), grid)


def scattering_defects(snapshots, params, s_c):
    """Yield (t_lo, t_hi, direct, duhamel) per pair of consecutive (t, field) snapshots.

    Both measure the H^(s_c) Cauchy increment of the interaction-picture
    field w(t) = exp(-i t omega) u(t), omega = params.dispersion(grid):
    direct is ||w(t_hi) - w(t_lo)||, which sits at the double-precision
    noise floor for tiny data, and duhamel is the trapezoid panel of the
    Duhamel integrand exp(-i t omega) F[i mu |u|^(p-1) u], which stays
    resolvable at any amplitude. Both norms are taken on the spectral side
    by Plancherel. The common factor exp(-i t_lo omega) of a pair is
    unimodular and drops out, so only the relative phase exp(-i dt omega)
    is applied. Bessel(s_c)^2 and omega are evaluated once per call and the
    phase once per distinct dt; a snapshot costs two forward FFTs, of u and
    of the nonlinearity.
    """
    mu, p = params.mu, params.p
    prev = phase_dt = None
    for t, u in snapshots:
        a = fft(u)
        n = abs_power(u.values, p - 1) * u.values * (1j * mu)
        np.fft.fftn(n, out=n)
        if prev is None:
            grid = u.grid
            bessel2 = evaluate_symbol(Bessel(s_c), grid) ** 2
            omega = params.dispersion(grid)
        else:
            t0, a0, n0 = prev
            dt = t - t0
            if dt != phase_dt:
                phase_dt, phase = dt, linear_flow(omega, -dt)
            direct = math.sqrt(plancherel(phase * a - a0, bessel2, grid))
            duhamel = 0.5 * dt * math.sqrt(plancherel(n0 + phase * n, bessel2, grid))
            yield t0, t, direct, duhamel
        prev = t, a, n


def lp_band_energy_fraction(u, k_threshold):
    """Fraction of spectral energy at |xi| >= k_threshold (aliasing monitor)."""
    e = abs_power(fft(u), 2)
    total = float(np.sum(e))
    if total == 0:
        return 0.0
    high = float(np.sum(e[u.grid.k_abs >= k_threshold]))
    return high / total


__all__ = [
    "mass",
    "energy",
    "field_diagnostics",
    "SpacetimeNormSpec",
    "spacetime_norm",
    "scattering_defects",
    "lp_band_energy_fraction",
    "PLAIN",
    "TILDE",
]
