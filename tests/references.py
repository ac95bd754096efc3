"""Reference code that several test modules share; not part of the package."""

from dataclasses import dataclass, field

import numpy as np

from fnls.grid import ComplexField
from fnls.soliton import (
    SolitonResult,
    _profile_terms,
    _relative_residual,
    soliton_symbol_on_grid,
)
from fnls.spectral import (
    INHOMOGENEOUS,
    apply_multiplier,
    fft,
    lebesgue_norm,
    plancherel,
)
from fnls.symbols import Bessel, Riesz


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
