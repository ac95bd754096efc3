"""Smooth initial profiles on periodic grids."""

import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, squared_distance


@dataclass(frozen=True)
class ProfileSpec:
    """Gaussian bump amplitude * exp(-|x - center|^2 / (2 width^2))."""

    width: float = 1.0
    amplitude: float = 1.0
    center: tuple = ()

    def __post_init__(self):
        # A tuple keeps the spec hashable and its truth test unambiguous.
        object.__setattr__(self, "center", tuple(self.center))
        # realize divides by 2 width^2, which must be finite and nonzero.
        w = float(self.width)
        if not (w > 0 and 0 < 2 * w * w < np.inf):
            raise ValueError(
                f"width must be positive with 2 width^2 finite and nonzero; got {self.width!r}"
            )
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite; got {self.amplitude!r}")

    def realize(self, grid):
        center = self.center if self.center else (0.0,) * grid.d
        if len(center) != grid.d:
            raise ValueError(f"center must have {grid.d} components")
        r2 = squared_distance(grid, grid.x, center)
        # A box ~1e154 widths across overflows the quotient to inf, and
        # exp(-inf) = 0 is the exact sample there. The mass is amplitude^2
        # times the bump's, which a finite amplitude can take past the
        # largest double; in this order no finite mass overflows. By
        # Cauchy-Schwarz every |u_hat_k|^2 is at most n mass / cell volume,
        # so while that is finite so are the spectrum's squares and the
        # energy's kinetic part.
        with np.errstate(over="ignore"):
            bump = np.exp(-r2 / (2 * self.width**2))
        bump_mass = grid.integral(np.square(bump))
        a = abs(self.amplitude)
        mass = a * (a * bump_mass)
        if not mass < math.inf:
            raise ValueError(
                f"amplitude {self.amplitude!r} gives a field of infinite mass on this grid"
            )
        if not grid.total_points * (mass / grid.cell_volume) < math.inf:
            raise ValueError(
                f"amplitude {self.amplitude!r} gives a field whose spectrum squares past "
                "the largest double on this grid: n mass / cell volume is not finite"
            )
        return ComplexField(grid, (self.amplitude * bump).astype(np.complex128))


def gaussian(grid, width=1.0, amplitude=1.0, center=()):
    return ProfileSpec(width, amplitude, center).realize(grid)
