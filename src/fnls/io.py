"""FNLS1 field snapshot files.

Layout (little-endian throughout): magic bytes 'FNLS', u32 version = 1,
u32 dimension d, then per axis u64 n_j followed by f64 L_j, then the
complex samples as interleaved (f64 re, f64 im), row-major, last axis
fastest.
"""

import os
import struct

import numpy as np

from .errors import NonFiniteFieldError
from .grid import ComplexField, Grid

MAGIC = b"FNLS"
VERSION = 1


def write_field(path, field):
    """Write a ComplexField to an FNLS1 file, making its directory if need be."""
    grid = field.grid
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, grid.d))
        for nj, Lj in zip(grid.n, grid.L):
            fh.write(struct.pack("<Qd", nj, Lj))
        np.ascontiguousarray(field.values, dtype="<c16").tofile(fh)


def _unpack(fh, fmt, path):
    raw = fh.read(struct.calcsize(fmt))
    if len(raw) != struct.calcsize(fmt):
        raise ValueError(f"{path}: truncated FNLS1 header")
    return struct.unpack(fmt, raw)


def read_header(fh, path):
    """The Grid of the FNLS1 file open as fh, read up to its samples; ValueError if none."""
    if fh.read(4) != MAGIC:
        raise ValueError(f"{path}: not an FNLS1 file")
    version, d = _unpack(fh, "<II", path)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported FNLS version {version}")
    if d not in (1, 2, 3):  # before sizing the axis records by d
        raise ValueError(f"{path}: dimension {d} is not 1, 2 or 3")
    axes = _unpack(fh, "<" + "Qd" * d, path)
    try:
        return Grid(d, axes[0::2], axes[1::2])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_field(path):
    """Read an FNLS1 file back into a ComplexField; ValueError if it is not one."""
    with open(path, "rb") as fh:
        grid = read_header(fh, path)
        values = np.fromfile(fh, dtype="<c16", count=grid.total_points)
        trailing = fh.read(1)
    if values.size != grid.total_points:
        raise ValueError(f"{path}: truncated sample data")
    if trailing:
        raise ValueError(f"{path}: trailing bytes after the samples")
    try:
        return ComplexField(grid, values.reshape(grid.shape))
    except NonFiniteFieldError as err:
        raise ValueError(f"{path}: {err}") from None
