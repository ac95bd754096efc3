"""Grid construction, wavenumber layout, and FNLS1 round-trips."""

import struct

import numpy as np
import pytest

from fnls.grid import ComplexField, Grid, mode_indices, zeros
from fnls.io import read_field, write_field


def test_grid_scalar_arguments_broadcast():
    g = Grid(2, 64, 10.0)
    assert g.n == (64, 64)
    assert g.L == (10.0, 10.0)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(1, 48, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 4, 10.0)  # below minimum
    with pytest.raises(ValueError):
        Grid(4, 8, 10.0)  # dimension out of range
    with pytest.raises(ValueError):
        Grid(3, 1024, 10.0)  # exceeds max_points


def test_wavenumber_layout_matches_fft_convention():
    n, L = 16, 5.0
    g = Grid(1, n, L)
    k = g.k[0]
    expected = 2 * np.pi * np.fft.fftfreq(n, d=L / n)
    # all entries except Nyquist follow fftfreq; Nyquist is taken positive
    assert np.allclose(np.delete(k, n // 2), np.delete(expected, n // 2))
    assert k[n // 2] == pytest.approx(2 * np.pi * (n // 2) / L)
    assert g.k_min == pytest.approx(2 * np.pi / L)
    assert g.k_nyquist == pytest.approx(np.pi * n / L)


@pytest.mark.parametrize("n", [8, 16, 1024])
def test_mode_indices_are_fftfreq_with_nyquist_positive(n):
    expected = np.fft.fftfreq(n) * n
    expected[n // 2] = n // 2
    m = mode_indices(n)
    assert m.dtype.kind == "i"
    assert np.array_equal(m, expected)


def test_boundary_amplitude_is_max_over_first_faces():
    rng = np.random.default_rng(2)
    for shape in [(16,), (16, 8), (8, 16, 8)]:
        g = Grid(len(shape), shape, 3.0)
        u = ComplexField(g, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        faces = [np.take(np.abs(u.values), 0, axis=j) for j in range(g.d)]
        assert u.boundary_amplitude() == max(float(np.max(f)) for f in faces)


def test_grid_coordinates_center_the_box():
    g = Grid(1, 32, 8.0)
    x = g.x[0]
    assert x[0] == -4.0
    assert np.allclose(np.diff(x), 8.0 / 32)
    assert x[-1] == pytest.approx(4.0 - 8.0 / 32)
    assert g.cell_volume == pytest.approx(0.25)


def test_complex_field_requires_finite_values():
    g = Grid(1, 8, 1.0)
    bad = np.full(8, np.nan, dtype=complex)
    with pytest.raises(Exception):
        ComplexField(g, bad)


def test_field_arithmetic():
    g = Grid(1, 8, 1.0)
    a = ComplexField(g, np.arange(8).astype(complex))
    b = ComplexField(g, np.ones(8, dtype=complex))
    assert np.allclose((a + b).values, a.values + 1)
    assert np.allclose((a - b).values, a.values - 1)
    assert np.allclose((2.0 * a).values, 2 * a.values)


def test_fnls1_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    g = Grid(2, 16, (3.0, 5.0))
    u = ComplexField(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    path = tmp_path / "field.fnls"
    write_field(path, u)
    v = read_field(path)
    assert v.grid.n == g.n
    assert v.grid.L == g.L
    assert np.array_equal(v.values, u.values)


def test_fnls1_header_layout(tmp_path):
    g = Grid(1, 8, 2.5)
    u = zeros(g)
    path = tmp_path / "field.fnls"
    write_field(path, u)
    raw = path.read_bytes()
    assert raw[:4] == b"FNLS"
    version, d = struct.unpack_from("<II", raw, 4)
    assert (version, d) == (1, 1)
    n0, L0 = struct.unpack_from("<Qd", raw, 12)
    assert (n0, L0) == (8, 2.5)
    # payload: n complex doubles, interleaved re/im
    assert len(raw) == 12 + 16 + 8 * 16


def test_fnls1_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.fnls"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_field(path)
