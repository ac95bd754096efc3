"""Reference code that several test modules share; not part of the package."""

from dataclasses import dataclass, field

import numpy as np

from fnls.spectral import fft, plancherel


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
