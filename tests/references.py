"""Reference code that several test modules share; not part of the package."""

from dataclasses import dataclass, field

import numpy as np

from fnls.grid import ComplexField, abs_power
from fnls.soliton import SolitonResult, soliton_symbol_on_grid
from fnls.spectral import (
    INHOMOGENEOUS,
    apply_multiplier,
    fft,
    lebesgue_norm,
    plancherel,
    rescale,
)
from fnls.symbols import Bessel, LpCutoff, Riesz


@dataclass(frozen=True)
class Product:
    """Pointwise product of several multiplier symbols."""

    factors: tuple = field(default_factory=tuple)

    def evaluate(self, grid):
        m = np.ones(grid.shape)
        for f in self.factors:
            m = m * f.evaluate(grid)
        return m


def spectral_l2_norm(u, weights=None):
    """L^2 norm computed on the spectral side (Plancherel)."""
    w = 1.0 if weights is None else weights**2
    return float(np.sqrt(plancherel(fft(u), w, u.grid)))


def physical_sobolev_norm(u, s, homogeneity=INHOMOGENEOUS):
    """H^s norm in physical space: the weight's multiplier round trip, then L^2 quadrature."""
    spec = Bessel(s) if homogeneity == INHOMOGENEOUS else Riesz(s)
    return lebesgue_norm(apply_multiplier(u, spec), 2.0)


def littlewood_paley_project(u, N):
    """Project u onto the dyadic annulus |xi| ~ N: the LpCutoff(N) multiplier round trip."""
    return apply_multiplier(u, LpCutoff(N))


def _profile_terms(vals, shifted, p):
    """(p_v + omega^(2 sigma)) Q and |Q|^(p-1) Q, given the shifted symbol.

    Both terms at one iterate, in physical space and out of place: the
    direct form that `soliton_residual` checks a profile with, independent
    of the solver's spectral bookkeeping.
    """
    lin = np.fft.ifftn(shifted * np.fft.fftn(vals))
    return lin, abs_power(vals, p - 1) * vals


def _relative_residual(vals, lin, nl):
    denom = np.linalg.norm(vals)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(lin - nl) / denom)


def soliton_residual(Q, cfg):
    """Relative L^2 residual of the profile equation, both terms taken directly."""
    shifted = soliton_symbol_on_grid(cfg, Q.grid)
    return _relative_residual(Q.values, *_profile_terms(Q.values, shifted, cfg.params.p))


def _inner(grid, a, b):
    return float(np.real(np.sum(a * np.conj(b)))) * grid.cell_volume


def petviashvili_two_pairs(cfg, seed):
    """Petviashvili loop that transforms both profile terms afresh at each iterate.

    Two FFT pairs per iteration: the update, then `_profile_terms` at the new
    iterate. No coercivity or stagnation guard; the inputs it runs on converge.
    """
    grid = seed.grid
    shifted = soliton_symbol_on_grid(cfg, grid)
    vals = seed.values
    lin, nl = _profile_terms(vals, shifted, cfg.params.p)
    result = SolitonResult(seed, symbol_min=float(np.min(shifted)))
    for _ in range(cfg.max_iter):
        M = _inner(grid, lin, vals) / _inner(grid, nl, vals)
        vals = (M**cfg.gamma) * np.fft.ifftn(np.fft.fftn(nl) / shifted)
        lin, nl = _profile_terms(vals, shifted, cfg.params.p)
        res = _relative_residual(vals, lin, nl)
        result.residual_history.append(res)
        result.stabilization_history.append(M)
        if res < cfg.tol:
            result.converged = True
            break
    result.Q = ComplexField(grid, vals)
    return result


def rk4_reference(u0, params, t_end, dt):
    """Integrating-factor RK4 reference integrator.

    Independent discretization-error model for validating the splitting steps:
    classical RK4 on the spectral variable w(t) = exp(-i t c |xi|^(2s)) u_hat(t),
    where only the nonlinearity remains stiff-free.
    """
    grid = u0.grid
    coeff = params.nu ** (2 * params.sigma)
    phase = coeff * grid.k_squared**params.sigma

    def nonlinear_hat(u_hat, t):
        u = np.fft.ifftn(np.exp(1j * t * phase) * u_hat)
        f = 1j * params.mu * np.abs(u) ** (params.p - 1) * u
        return np.exp(-1j * t * phase) * np.fft.fftn(f)

    w = np.fft.fftn(u0.values)
    n_steps = int(round(t_end / dt))
    t = 0.0
    for _ in range(n_steps):
        k1 = nonlinear_hat(w, t)
        k2 = nonlinear_hat(w + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = nonlinear_hat(w + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = nonlinear_hat(w + dt * k3, t + dt)
        w = w + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    u_hat = np.exp(1j * t * phase) * w
    return ComplexField(grid, np.fft.ifftn(u_hat))


def scaling_transform(u, lam, params):
    """Scaling symmetry: lambda^(-2 sigma/(p-1)) u(x / lambda) on the box lambda L.

    Returns (field, time_scale) with time_scale = lambda^(2 sigma): if u
    solves the equation, the returned field at time t corresponds to u at
    time t / time_scale.
    """
    j = np.log2(lam)
    if abs(j - round(j)) > 1e-12:
        raise ValueError("lambda must be a power of two")
    j = int(round(j))
    if j >= 0:
        n_target = tuple(nj * 2**j for nj in u.grid.n)
    else:
        n_target = tuple(max(nj // 2 ** (-j), 8) for nj in u.grid.n)
    scaled = rescale(u, 1.0 / lam, n_target)
    amp = lam ** (-2 * params.sigma / (params.p - 1))
    return ComplexField(scaled.grid, amp * scaled.values), lam ** (2 * params.sigma)
