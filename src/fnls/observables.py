"""Conserved quantities, space-time norms and the scattering defect."""

import math
from dataclasses import dataclass

import numpy as np

from .exponents import is_admissible
from .grid import ComplexField, abs_power, raise_power
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


def mass(u):
    """Integral of |u|^2."""
    return u.grid.integral(abs_power(u.values, 2))


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
    m = grid.integral(a)
    linf = math.sqrt(float(np.max(a)))
    raise_power(a, (p + 1) / 2)  # |u|^(p+1), as abs_power takes it
    potential = mu / (p + 1) * grid.integral(a)
    return u, {"mass": m, "energy": kinetic + potential, "linf": linf}


def energy(u, sigma, mu, p):
    """Integral of 1/2 ||grad|^sigma u|^2 + mu/(p+1) |u|^(p+1); one forward FFT."""
    laplacian = evaluate_symbol(FractionalLaplacian(sigma), u.grid)
    return field_diagnostics(u.grid, fft(u), laplacian, mu, p, u)[1]["energy"]


@dataclass(frozen=True)
class SpacetimeNormSpec:
    """The exponents of `spacetime_norm`: sigma in (0, 1] and a finite s, or ValueError."""

    q: float
    r: float
    s: float
    sigma: float
    variant: str = PLAIN

    def __post_init__(self):
        if not 0 < self.sigma <= 1:
            raise ValueError(f"sigma must lie in (0, 1]; got {self.sigma:g}")
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite; got {self.s:g}")

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
    """Yield (t_lo, t_hi, direct, duhamel) per pair of consecutive snapshots.

    A snapshot is (t, field) or (t, field, spectrum), its spectrum or None
    as `evolution.spectral_snapshots` carries it.

    Both measure the H^(s_c) Cauchy increment of the interaction-picture
    field w(t) = exp(-i t omega) u(t), omega = params.dispersion(grid):
    direct is ||w(t_hi) - w(t_lo)||, which sits at the double-precision
    noise floor for tiny data, and duhamel is the trapezoid panel of the
    Duhamel integrand exp(-i t omega) F[i mu |u|^(p-1) u], which stays
    resolvable at any amplitude. Both norms are taken on the spectral side
    by Plancherel. The common factor exp(-i t_lo omega) of a pair is
    unimodular and drops out, so only the relative phase exp(-i dt omega)
    is applied. Bessel(s_c)^2 and omega are evaluated once per call and the
    phase once per distinct dt; a snapshot costs a copy of its spectrum, or
    fft(u) without one, and a forward FFT of the nonlinearity, which is
    formed in the one buffer it is transformed in. A pair's increments are
    formed in place in the earlier snapshot's two spectra (so a carried
    spectrum is copied), which nothing reads after it, so between pairs the
    pass holds only the later snapshot's.
    """
    mu, p = params.mu, params.p
    prev = phase_dt = None
    for t, u, *carried in snapshots:
        spectrum = carried[0] if carried else None
        a = fft(u) if spectrum is None else spectrum.copy()
        n = abs_power(u.values, p - 1) * u.values
        n *= 1j * mu
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
            # No later pair reads a0 or n0, so the increments are formed in
            # them, and they are dropped before the next snapshot is made;
            # a0 - phase a has the norm of phase a - a0, bit for bit.
            a0 -= phase * a
            n0 += phase * n
            direct = math.sqrt(plancherel(a0, bessel2, grid))
            duhamel = 0.5 * dt * math.sqrt(plancherel(n0, bessel2, grid))
            del a0, n0
            yield t0, t, direct, duhamel
        prev = t, a, n


__all__ = [
    "mass",
    "energy",
    "field_diagnostics",
    "SpacetimeNormSpec",
    "spacetime_norm",
    "scattering_defects",
    "PLAIN",
    "TILDE",
]
