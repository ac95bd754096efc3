"""Periodic computational grids and complex-valued fields on them."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteFieldError

#: Hard cap on the total number of grid points.
MAX_POINTS = 2**24

#: Samples per block of the blocked pointwise kernels (`evolution._rotate`,
#: `symbols.linear_flow`): their temporaries take one block, not one field.
BLOCK = 2**15


def blocks(size):
    """Contiguous slices of range(size) in order, BLOCK long but the last."""
    for start in range(0, size, BLOCK):
        yield slice(start, start + BLOCK)


def mode_indices(n):
    """Integer mode numbers of an n-point axis in FFT order, Nyquist positive."""
    m = np.arange(n)
    m[n // 2 + 1 :] -= n
    return m


def axis_vector(v, d, name="velocity"):
    """v as a float array of d finite per-axis components; ValueError otherwise."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (d,):
        raise ValueError(f"{name} must have {d} components")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite; got {v.tolist()}")
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
        for nj, Lj in zip(n, L):
            if not 0 < Lj < np.inf:
                raise ValueError("extents must be positive and finite")
            # |x|^2 and |xi|^2 sum d squares of at most L/2 and pi n/L.
            h = max(Lj / 2, math.pi * nj / Lj)
            if not d * h * h < math.inf:
                raise ValueError(f"extent L = {Lj!r} is out of range: |x|^2 or |xi|^2 overflows")
        if math.prod(n) > MAX_POINTS:
            raise ValueError(f"total point count exceeds the maximum of {MAX_POINTS}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "L", L)
        if not 0 < self.cell_volume < math.inf:
            raise ValueError(
                f"extents L = {L!r} are out of range: the cell volume is {self.cell_volume!r}"
            )

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
        return math.prod(self.dx)

    def integral(self, density):
        """Integral of a density by the rectangle rule: its sum times the cell volume.

        A sum that overflows over a cell volume below 1 is taken again as the sum
        of density times cell volume, so a finite integral near the largest double
        stays finite; any other sum keeps the sum-then-multiply order.
        """
        with np.errstate(over="ignore"):
            total = np.sum(density)
        if np.isinf(total) and self.cell_volume < 1:
            return float(np.sum(density * self.cell_volume))
        return float(total * self.cell_volume)

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


def raise_power(a, e):
    """In place: a <- a^e for a real array a, by products when e is 2, 3 or 4.

    np.power(a, 3.0) takes over three times as long as a * a * a; at e = 2
    np.square(a) is np.power(a, 2.0) bit for bit. Any other e but 1 takes
    np.power.
    """
    if e == 3:
        a *= np.square(a)
    elif e in (2, 4):
        np.square(a, out=a)
        if e == 4:
            np.square(a, out=a)
    elif e != 1:
        np.power(a, e, out=a)
    return a


def abs_power(values, q):
    """|values|^q as (re^2 + im^2)^(q/2) by `raise_power`: no sqrt."""
    a = np.square(values.real)
    a += np.square(values.imag)
    return raise_power(a, q / 2)
