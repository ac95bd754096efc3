"""Conserved quantities, space-time norms and the scattering defect."""

import math
from dataclasses import dataclass

import numpy as np

from .exponents import is_admissible
from .grid import ComplexField, abs_power
from .spectral import BandMultiplier, fft, fft_values, lebesgue_norm, plancherel, resolvable_scales
from .symbols import Bessel, FractionalLaplacian, LpCutoff, StrichartzWeight, evaluate_symbol

PLAIN = "PLAIN"
TILDE = "TILDE"


def mass(u):
    """Integral of |u|^2."""
    return float(np.sum(abs_power(u.values, 2)) * u.grid.cell_volume)


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
    m = float(np.sum(a) * grid.cell_volume)
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
        fft_values(u.values, out=uh)
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


def _interaction_pairs(snapshots, sigma, source):
    """Yield (dt, a, b) for each pair of consecutive (t, field) snapshots.

    dt = t_{i+1} - t_i, a = fft(source(u_i)) and
    b = exp(-i dt (-Lap)^sigma) fft(source(u_{i+1})). The interaction-picture
    spectra exp(-i t (-Lap)^sigma) fft(source(u)) of the two snapshots are
    exp(-i t_i (-Lap)^sigma) times (a, b). That common factor is unimodular,
    so it drops out of any weighted L^2 norm of a combination of them.
    |xi|^(2 sigma) is evaluated once and the phase once per distinct dt, so
    a snapshot costs one forward FFT.
    """
    a = phase_dt = None
    for t1, u in snapshots:
        b = fft_values(source(u.values))
        if a is None:
            laplacian = evaluate_symbol(FractionalLaplacian(sigma), u.grid)
        else:
            dt = t1 - t0
            if dt != phase_dt:
                phase_dt, phase = dt, np.exp((-1j * dt) * laplacian)
            yield dt, a, phase * b
        t0, a = t1, b


def scattering_defect(traj, sigma, s_c):
    """Cauchy increments of the backward-propagated trajectory in H^(s_c).

    Returns the list of consecutive distances
    ||w(t_{i+1}) - w(t_i)||_{H^{s_c}} with w(t) = exp(-i t (-Lap)^sigma) u(t),
    taken on the spectral side by Plancherel.
    """
    grid = traj.fields[0].grid
    bessel2 = evaluate_symbol(Bessel(s_c), grid) ** 2
    return [
        math.sqrt(plancherel(b - a, bessel2, grid))
        for _, a, b in _interaction_pairs(traj, sigma, lambda v: v)
    ]


def duhamel_defect_increments(traj, sigma, s_c, mu, p):
    """Scattering-defect increments via the Duhamel integrand.

    Mathematically identical to consecutive differences of the
    backward-propagated solution, but evaluated as the time quadrature of
    exp(-i s (-Lap)^sigma) applied to the nonlinearity, which stays
    resolvable in double precision when the field amplitude is tiny. Each
    trapezoid panel is taken from its two end spectra alone.
    """
    grid = traj.fields[0].grid
    bessel2 = evaluate_symbol(Bessel(s_c), grid) ** 2

    def nonlinearity(v):
        return abs_power(v, p - 1) * v * (1j * mu)

    return [
        0.5 * dt * math.sqrt(plancherel(a + b, bessel2, grid))
        for dt, a, b in _interaction_pairs(traj, sigma, nonlinearity)
    ]


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
    "scattering_defect",
    "duhamel_defect_increments",
    "lp_band_energy_fraction",
    "PLAIN",
    "TILDE",
]
