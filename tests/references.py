"""Reference code that several test modules share; not part of the package."""

from dataclasses import dataclass, field

import numpy as np

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
