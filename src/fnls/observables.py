"""Conserved quantities, space-time norms and the scattering defect."""

from dataclasses import dataclass

import numpy as np

from .exponents import is_admissible
from .grid import ComplexField, abs_power
from .spectral import apply_multiplier, lebesgue_norm, plancherel, resolvable_scales
from .symbols import (
    Bessel,
    FractionalLaplacian,
    LpCutoff,
    Riesz,
    StrichartzWeight,
    evaluate_symbol,
)

PLAIN = "PLAIN"
TILDE = "TILDE"


def mass(u):
    """Integral of |u|^2."""
    return float(np.sum(abs_power(u.values, 2)) * u.grid.cell_volume)


def energy(u, sigma, mu, p):
    """Integral of 1/2 ||grad|^sigma u|^2 + mu/(p+1) |u|^(p+1)."""
    kinetic = apply_multiplier(u, Riesz(sigma))
    dens = 0.5 * np.abs(kinetic.values) ** 2 + (mu / (p + 1)) * np.abs(u.values) ** (
        p + 1
    )
    return float(np.sum(dens) * u.grid.cell_volume)


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


def spacetime_norm(traj, spec):
    """Strichartz-type norm of a trajectory by composite trapezoid in time.

    PLAIN: L^q in time of the W^(s,r) norm of the derivative-loss-weighted
    field. TILDE: l^2 over resolvable dyadic bands of the per-band PLAIN
    norm. Each band is one multiplier (weight x Bessel(s) x LP cutoff),
    evaluated once per call; a snapshot costs one forward FFT plus one
    inverse FFT per band.
    """
    grid = traj.fields[0].grid
    spec.validate(grid.d)
    weight = evaluate_symbol(StrichartzWeight(spec.r, grid.d, spec.sigma), grid)
    if spec.s != 0:
        weight = weight * evaluate_symbol(Bessel(spec.s), grid)
    if spec.variant == PLAIN:
        bands = [weight]
    else:
        bands = [weight * evaluate_symbol(LpCutoff(N), grid) for N in resolvable_scales(grid)]

    vals = np.empty((len(bands), len(traj.fields)))
    work = np.empty(grid.shape, dtype=np.complex128)
    for i, u in enumerate(traj.fields):
        uh = np.fft.fftn(u.values)
        for b, m in enumerate(bands):
            np.multiply(m, uh, out=work)
            np.fft.ifftn(work, out=work)
            vals[b, i] = lebesgue_norm(ComplexField(grid, work), spec.r)
    norms = [_time_lq(traj.times, v, spec.q) for v in vals]
    if spec.variant == PLAIN:
        return norms[0]
    return float(np.sqrt(sum(n**2 for n in norms)))


def _interaction_pairs(traj, sigma, source):
    """Yield (dt, a, b) for each pair of consecutive snapshots u_i, u_{i+1}.

    dt = t_{i+1} - t_i, a = fft(source(u_i)) and
    b = exp(-i dt (-Lap)^sigma) fft(source(u_{i+1})). The interaction-picture
    spectra exp(-i t (-Lap)^sigma) fft(source(u)) of the two snapshots are
    exp(-i t_i (-Lap)^sigma) times (a, b). That common factor is unimodular,
    so it drops out of any weighted L^2 norm of a combination of them.
    |xi|^(2 sigma) is evaluated once and the phase once per distinct dt, so
    a snapshot costs one forward FFT.
    """
    grid = traj.fields[0].grid
    laplacian = evaluate_symbol(FractionalLaplacian(sigma), grid)
    a = np.fft.fftn(source(traj.fields[0].values))
    phase_dt = phase = None
    for t0, t1, u in zip(traj.times, traj.times[1:], traj.fields[1:]):
        dt = t1 - t0
        if dt != phase_dt:
            phase_dt, phase = dt, np.exp((-1j * dt) * laplacian)
        b = np.fft.fftn(source(u.values))
        yield dt, a, phase * b
        a = b


def _hs_norm(spectrum, bessel2, grid):
    """H^s norm from an unnormalized spectrum; bessel2 = (1 + |xi|^2)^s."""
    return float(np.sqrt(plancherel(spectrum, bessel2, grid)))


def scattering_defect(traj, sigma, s_c):
    """Cauchy increments of the backward-propagated trajectory in H^(s_c).

    Returns the list of consecutive distances
    ||w(t_{i+1}) - w(t_i)||_{H^{s_c}} with w(t) = exp(-i t (-Lap)^sigma) u(t),
    taken on the spectral side by Plancherel.
    """
    grid = traj.fields[0].grid
    bessel2 = evaluate_symbol(Bessel(s_c), grid) ** 2
    return [
        _hs_norm(b - a, bessel2, grid)
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
        0.5 * dt * _hs_norm(a + b, bessel2, grid)
        for dt, a, b in _interaction_pairs(traj, sigma, nonlinearity)
    ]


def lp_band_energy_fraction(u, k_threshold):
    """Fraction of spectral energy at |xi| >= k_threshold (aliasing monitor)."""
    uh = np.fft.fftn(u.values)
    e = abs_power(uh, 2)
    total = float(np.sum(e))
    if total == 0:
        return 0.0
    high = float(np.sum(e[u.grid.k_abs >= k_threshold]))
    return high / total


__all__ = [
    "mass",
    "energy",
    "SpacetimeNormSpec",
    "spacetime_norm",
    "scattering_defect",
    "duhamel_defect_increments",
    "lp_band_energy_fraction",
    "PLAIN",
    "TILDE",
]
