"""Periodic computational grids and complex-valued fields on them."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteFieldError

#: Hard cap on the total number of grid points.
MAX_POINTS = 2**24


def mode_indices(n):
    """Integer mode numbers of an n-point axis in FFT order, Nyquist positive."""
    m = np.arange(n)
    m[n // 2 + 1 :] -= n
    return m


def axis_vector(v, d, name="velocity"):
    """v as a float array of d per-axis components; ValueError otherwise."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (d,):
        raise ValueError(f"{name} must have {d} components")
    return v


def axis_dot(grid, axes, v):
    """sum_j v_j axes[j] on the grid: v.x for grid.x, v.xi for grid.k."""
    s = np.zeros(grid.shape)
    for aj, vj in zip(axes, v):
        s = s + vj * aj
    return s


def squared_distance(grid, axes, c):
    """sum_j (axes[j] - c_j)^2 on the grid: |x - c|^2 for grid.x, |xi - c|^2 for grid.k."""
    s = np.zeros(grid.shape)
    for aj, cj in zip(axes, c):
        s = s + (aj - cj) ** 2
    return s


def _whole(v):
    if int(v) != v:
        raise ValueError(f"grid sizes must be integers, got {v!r}")
    return int(v)


def _as_tuple(value, d, cast):
    if np.isscalar(value):
        return tuple(cast(value) for _ in range(d))
    out = tuple(cast(v) for v in value)
    if len(out) != d:
        raise ValueError(f"expected {d} per-axis values, got {len(out)}")
    return out


@dataclass(frozen=True)
class Grid:
    """Periodic box [-L_j/2, L_j/2) sampled on n_j points per axis.

    Wavenumbers are k_j = 2*pi*m/L_j with integer m in (-n_j/2, n_j/2];
    the single Nyquist mode per axis is treated as a positive frequency.
    """

    d: int
    n: tuple
    L: tuple

    def __init__(self, d, n, L):
        if d not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        n = _as_tuple(n, d, _whole)
        L = _as_tuple(L, d, float)
        for nj in n:
            if nj < 8 or nj & (nj - 1) != 0:
                raise ValueError("each n_j must be a power of two >= 8")
        for Lj in L:
            if not 0 < Lj < np.inf:
                raise ValueError("extents must be positive and finite")
        if math.prod(n) > MAX_POINTS:
            raise ValueError(f"total point count exceeds the maximum of {MAX_POINTS}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "L", L)

    @property
    def shape(self):
        return self.n

    @property
    def total_points(self):
        return int(np.prod(self.n))

    @property
    def dx(self):
        """Per-axis grid spacing."""
        return tuple(Lj / nj for Lj, nj in zip(self.L, self.n))

    @property
    def cell_volume(self):
        return float(np.prod(self.dx))

    def axis(self, j):
        """Physical coordinates along axis j."""
        nj, Lj = self.n[j], self.L[j]
        return -Lj / 2 + (Lj / nj) * np.arange(nj)

    def _broadcast(self, axis):
        """[axis(j) shaped to broadcast along axis j of the grid] for each axis j."""
        ones = (1,) * self.d
        return [axis(j).reshape(ones[:j] + (nj,) + ones[j + 1 :]) for j, nj in enumerate(self.n)]

    @cached_property
    def x(self):
        """List of d coordinate arrays broadcastable to the grid shape."""
        return self._broadcast(self.axis)

    def wavenumber_axis(self, j):
        """FFT-ordered wavenumbers along axis j, Nyquist taken positive."""
        return 2 * np.pi * mode_indices(self.n[j]) / self.L[j]

    @cached_property
    def k(self):
        """List of d wavenumber arrays broadcastable to the grid shape."""
        return self._broadcast(self.wavenumber_axis)

    @cached_property
    def k_squared(self):
        return squared_distance(self, self.k, (0.0,) * self.d)

    @cached_property
    def k_abs(self):
        return np.sqrt(self.k_squared)

    @property
    def k_min(self):
        """Smallest nonzero wavenumber magnitude, 2*pi/max(L)."""
        return 2 * np.pi / max(self.L)

    @property
    def k_nyquist(self):
        """Largest per-axis Nyquist wavenumber, pi*max(n/L)."""
        return np.pi * max(nj / Lj for nj, Lj in zip(self.n, self.L))


@dataclass
class ComplexField:
    """Complex double-precision samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values.view(np.float64))):
            raise NonFiniteFieldError("nonfinite field")

    def boundary_amplitude(self):
        """Max |u| over the faces of the box (first sample along each axis)."""
        amp = 0.0
        for j in range(self.grid.d):
            face = np.abs(np.take(self.values, 0, axis=j))
            amp = max(amp, float(np.max(face)))
        return amp

    def __add__(self, other):
        return ComplexField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return ComplexField(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return ComplexField(self.grid, self.values * scalar)

    __rmul__ = __mul__


def abs_power(values, q):
    """|values|^q as (re^2 + im^2)^(q/2): no sqrt, and no pow at q = 2."""
    a = np.square(values.real)
    a += np.square(values.imag)
    if q != 2:
        np.power(a, q / 2, out=a)
    return a
