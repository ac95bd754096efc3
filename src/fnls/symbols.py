"""Declarative Fourier-multiplier symbols evaluated on grid wavenumber lattices.

Conventions at the zero mode: homogeneous negative-power weights project
the mean out (multiplier 0 at xi = 0); everything else is evaluated
directly. The Nyquist mode is treated as a positive frequency.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingularSymbolError
from .grid import axis_dot, axis_vector, squared_distance


@dataclass(frozen=True)
class FractionalLaplacian:
    """Symbol |xi|^(2 sigma) of the fractional Laplacian."""

    sigma: float

    def evaluate(self, grid):
        return grid.k_squared**self.sigma


@dataclass(frozen=True)
class Bessel:
    """Inhomogeneous Sobolev weight (1 + |xi|^2)^(s/2)."""

    s: float

    def evaluate(self, grid):
        return (1.0 + grid.k_squared) ** (self.s / 2)


@dataclass(frozen=True)
class Riesz:
    """Homogeneous weight |xi|^s with the zero mode projected out."""

    s: float

    def evaluate(self, grid):
        k = grid.k_abs
        with np.errstate(divide="ignore"):
            m = np.where(k > 0, k**self.s, 0.0 if self.s != 0 else 1.0)
        return m


@dataclass(frozen=True)
class StrichartzWeight:
    """Derivative-loss weight |xi|^(-d(1-sigma)(1/2 - 1/r)), zero mode -> 0."""

    r: float
    d: int
    sigma: float

    @property
    def exponent(self):
        inv_r = 0.0 if np.isinf(self.r) else 1.0 / self.r
        return -self.d * (1.0 - self.sigma) * (0.5 - inv_r)

    def evaluate(self, grid):
        return Riesz(self.exponent).evaluate(grid)


def smooth_step(r):
    """Smooth cutoff eta(r): 1 for r <= 1, 0 for r >= 2, C^inf in between."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        up = np.where(r < 2, np.exp(-1.0 / np.maximum(2.0 - r, 1e-300)), 0.0)
        down = np.where(r > 1, np.exp(-1.0 / np.maximum(r - 1.0, 1e-300)), 0.0)
    return np.where(r <= 1, 1.0, np.where(r >= 2, 0.0, up / (up + down)))


def lp_bump(r):
    """psi(|xi|) = eta(|xi|) - eta(2|xi|); supported in 1/2 <= |xi| <= 2."""
    return smooth_step(r) - smooth_step(2 * np.asarray(r, dtype=float))


@dataclass(frozen=True)
class LpCutoff:
    """Littlewood-Paley annulus cutoff psi(xi / N) for dyadic N."""

    N: float

    def evaluate(self, grid):
        return lp_bump(grid.k_abs / self.N)


def linear_flow(omega, t):
    """The linear flow's multiplier exp(i t omega) for a dispersion array omega.

    The real product t omega is taken first, on purpose: built as
    (1j t) omega, the temporaries left the heap so that a 2D 256^2 run's
    steps faulted in ~3x the pages.
    """
    return np.exp(1j * (t * omega))


@dataclass(frozen=True)
class LinearPropagator:
    """The nu = 1 flow's symbol linear_flow(|xi|^(2 sigma), t).

    Kept only for `bench/probes.py` (and so `linear_propagate`); the
    package's runs take `linear_flow` of their dispersion array.
    """

    t: float
    sigma: float

    def evaluate(self, grid):
        return linear_flow(FractionalLaplacian(self.sigma).evaluate(grid), self.t)


@dataclass(frozen=True)
class ErrorSymbol:
    """Pseudo-Galilean error symbol; identically zero at sigma = 1.

    E(xi) = p_v(xi) - |xi|^(2 sigma)
          = |xi - v|^(2 sigma) - |xi|^(2 sigma) - |v|^(2 sigma)
            + 2 sigma |v|^(2 sigma - 2) v . xi
    """

    v: tuple
    sigma: float

    def evaluate(self, grid):
        if self.sigma == 1.0:
            return np.zeros(grid.shape)
        p_v = SolitonSymbol(self.v, self.sigma).evaluate(grid)
        return p_v - FractionalLaplacian(self.sigma).evaluate(grid)


@dataclass(frozen=True)
class SolitonSymbol:
    """Traveling-profile symbol p_v(xi); reduces to |xi|^(2 sigma) at v = 0.

    p_v(xi) = |xi - v|^(2 sigma) - |v|^(2 sigma)
              + 2 sigma |v|^(2 sigma - 2) v . xi
    """

    v: tuple
    sigma: float

    def evaluate(self, grid):
        v = axis_vector(self.v, grid.d)
        vmag = float(np.linalg.norm(v))
        ts = 2 * self.sigma
        if vmag == 0:
            return FractionalLaplacian(self.sigma).evaluate(grid)
        m = (
            np.sqrt(squared_distance(grid, grid.k, v)) ** ts
            - vmag**ts
            + ts * vmag ** (ts - 2) * axis_dot(grid, grid.k, v)
        )
        # p_v(0) = 0 exactly: the array and scalar |v|^(2 sigma) above can
        # round apart by an ulp.
        m[(0,) * grid.d] = 0.0
        return m


def evaluate_symbol(spec, grid):
    """Evaluate a symbol spec on a grid's wavenumber lattice."""
    m = spec.evaluate(grid)
    if not np.all(np.isfinite(m)):
        raise SingularSymbolError("symbol is not finite on the lattice")
    return m
