"""Equation coefficients."""

import math
from dataclasses import dataclass

from .symbols import FractionalLaplacian, evaluate_symbol


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of i u_t + nu^(2 sigma) (-Lap)^sigma u + mu |u|^(p-1) u = 0.

    nu = 1 gives the plain equation; nu in [0, 1) is the small-dispersion
    variant with the linear term scaled by nu^(2 sigma).
    """

    d: int
    sigma: float
    p: float
    mu: int = 1
    nu: float = 1.0

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError("d must be 1, 2 or 3")
        if not 0 < self.sigma <= 1:
            raise ValueError("sigma must lie in (0, 1]")
        if not 1 < self.p < math.inf:
            raise ValueError(f"p must exceed 1 and be finite; got {self.p!r}")
        if self.mu not in (1, -1):
            raise ValueError("mu must be +1 or -1")
        if not 0 <= self.nu <= 1:
            raise ValueError("nu must lie in [0, 1]")

    def dispersion(self, grid):
        """The run's dispersion relation omega = nu^(2 sigma) |xi|^(2 sigma) on grid."""
        omega = evaluate_symbol(FractionalLaplacian(self.sigma), grid)
        omega *= self.nu ** (2 * self.sigma)
        return omega
