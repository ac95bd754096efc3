"""Grid construction, wavenumber layout, and FNLS1 round-trips."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fnls.grid import ComplexField, Grid, axis_vector, mode_indices
from fnls.io import read_field, write_field
from fnls.profiles import ProfileSpec, gaussian


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
        Grid(3, 1024, 10.0)  # exceeds MAX_POINTS


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


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gaussian_takes_the_center_as_a_tuple_or_an_array(d):
    g = Grid(d, 16, 8.0)
    center = np.array([0.5, -0.25, 1.0][:d])
    u = gaussian(g, width=1.5, amplitude=2.0, center=center)
    r2 = sum((xj - cj) ** 2 for xj, cj in zip(g.x, center))
    assert np.array_equal(u.values, 2.0 * np.exp(-r2 / (2 * 1.5**2)))
    assert np.array_equal(u.values, gaussian(g, 1.5, 2.0, tuple(center)).values)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_profile_spec_takes_an_array_center(d):
    g = Grid(d, 16, 8.0)
    center = [0.5, -0.25, 1.0][:d]
    spec = ProfileSpec(width=1.5, center=np.array(center))
    assert spec == ProfileSpec(width=1.5, center=tuple(center))
    assert hash(spec) == hash(ProfileSpec(width=1.5, center=tuple(center)))
    assert np.array_equal(spec.realize(g).values, gaussian(g, 1.5, center=center).values)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"width": 0.0}, "width must be positive"),
        ({"width": -1.0}, "width must be positive"),
        ({"width": np.nan}, "width must be positive"),
        ({"width": np.inf}, "width must be positive"),
        ({"width": 1e300}, "width must be positive with 2 width\\^2 finite"),
        ({"width": np.float64(1e300)}, "width must be positive with 2 width\\^2 finite"),
        ({"width": 1e-200}, "width must be positive with 2 width\\^2 finite"),
        ({"amplitude": np.inf}, "amplitude must be finite"),
        ({"amplitude": -np.inf}, "amplitude must be finite"),
        ({"amplitude": np.nan}, "amplitude must be finite"),
    ],
    ids=[
        "width-0", "width-negative", "width-nan", "width-inf", "width-1e300",
        "width-np-1e300", "width-1e-200", "amplitude-inf", "amplitude-minus-inf",
        "amplitude-nan",
    ],
)
def test_profile_spec_rejects_widths_and_amplitudes_it_cannot_realize(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ProfileSpec(**kwargs)


def test_profile_spec_keeps_the_widths_it_can_realize():
    g = Grid(1, 16, 8.0)
    for width in (1e-150, 1e150):
        assert np.all(np.isfinite(ProfileSpec(width=width).realize(g).values))


# A finite amplitude whose square overflows gives a field of infinite mass,
# which the first step turns to NaN. Tier-1 makes the overflow warning an
# error, so the ValueError must come with no warning.
@pytest.mark.parametrize("amplitude", [1e200, -1e155])
def test_profile_spec_rejects_an_amplitude_whose_mass_overflows(amplitude):
    with pytest.raises(ValueError, match=re.escape(f"amplitude {amplitude!r} gives a field")):
        ProfileSpec(amplitude=amplitude).realize(Grid(1, 64, 20.0))
    assert np.isfinite(ProfileSpec(amplitude=1e150).realize(Grid(1, 64, 20.0)).values).all()


def test_profile_spec_rejects_an_amplitude_whose_spectrum_squares_overflow():
    # Its mass, ~1.8e308, is finite, but |u_hat|^2 at xi = 0 is not, and
    # omega(0) inf made the energy NaN. n mass / cell volume, which bounds
    # every |u_hat_k|^2, is the test.
    grid = Grid(1, 4096, 64.0)
    with pytest.raises(ValueError, match=r"^amplitude 1e\+154 gives a field whose spectrum"):
        ProfileSpec(amplitude=1e154).realize(grid)
    u = ProfileSpec(amplitude=1e151).realize(grid)
    assert np.all(np.isfinite(np.abs(np.fft.fftn(u.values)) ** 2))


def test_profile_spec_samples_a_box_far_wider_than_its_width_without_overflow():
    # |x|^2 / (2 width^2) overflows to inf off the centre; exp(-inf) = 0 is exact.
    u = ProfileSpec(width=1e-150).realize(Grid(1, 8, 1e10))
    assert np.array_equal(u.values, np.eye(8)[4])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("L", [1e-300, 1e300, 1e-155])
def test_grid_rejects_extents_whose_squares_overflow(d, L):
    with pytest.raises(ValueError, match=re.escape(f"extent L = {L!r} is out of range")):
        Grid(d, 8, L)


def test_grid_keeps_extents_whose_squares_are_finite():
    # In 3D these extents give a cell volume of inf or 0, rejected below.
    for L in (1e-150, 1e150):
        g = Grid(2, 8, L)
        assert np.all(np.isfinite(g.k_squared))
        assert np.all(np.isfinite(sum(xj**2 for xj in g.x)))


# |x|^2 and |xi|^2 are finite on each, but the cell volume (L/n)^3 is not.
@pytest.mark.parametrize(
    "n, L, volume", [(8, 1e150, "inf"), (8, 1e-150, "0.0"), (256, 1e-110, "0.0")]
)
def test_grid_rejects_extents_whose_cell_volume_is_not_finite_and_positive(n, L, volume):
    message = f"extents L = {(L,) * 3!r} are out of range: the cell volume is {volume}"
    with pytest.raises(ValueError, match=re.escape(message)):
        Grid(3, n, L)


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
    u = ComplexField(g, np.zeros(g.shape))
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


@pytest.mark.parametrize(
    "n, L", [(64.5, 10.0), ((64, 32.5), 10.0), (64, np.nan), (64, np.inf), (64, (10.0, np.nan))]
)
def test_grid_rejects_fractional_sizes_and_nonfinite_extents(n, L):
    d = 1 if np.isscalar(n) and np.isscalar(L) else 2
    with pytest.raises(ValueError):
        Grid(d, n, L)


def _header(d, axes, version=1):
    records = b"".join(struct.pack("<Qd", *a) for a in axes)
    return b"FNLS" + struct.pack("<II", version, d) + records


SAMPLES = bytes(8 * 16)


@pytest.mark.parametrize(
    "data, match",
    [
        (_header(1, [(8, 2.5)])[:20], "truncated FNLS1 header"),
        (_header(5, [])[:12] + bytes(20), "dimension 5"),
        (_header(1, [(8, 2.5)]) + SAMPLES + b"\x00", "trailing bytes"),
        (_header(1, [(8, 2.5)]) + SAMPLES[:-1], "truncated sample data"),
        (_header(1, [(8, float("nan"))]) + SAMPLES, "extents must be positive and finite"),
        (_header(1, [(8, float("inf"))]) + SAMPLES, "extents must be positive and finite"),
        (_header(1, [(8, 2.5)], version=2) + SAMPLES, "unsupported FNLS version 2"),
        (
            _header(1, [(8, 2.5)]) + np.array([np.nan] + [0.0] * 7, "<c16").tobytes(),
            "nonfinite field",
        ),
    ],
    ids=[
        "truncated-header", "short-d5", "trailing-bytes", "short-samples", "nan-L", "inf-L",
        "version-2", "nan-sample",
    ],
)
def test_fnls1_rejects_malformed_files(tmp_path, data, match):
    path = tmp_path / "bad.fnls"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=match):
        read_field(path)


@pytest.mark.parametrize(
    "axes, match",
    [
        ([(8, float("nan"))], "extents must be positive and finite"),
        ([(8, -1.0)], "extents must be positive and finite"),
        ([(12, 1.0)], "power of two"),
    ],
    ids=["nan-L", "negative-L", "n-not-power-of-two"],
)
def test_read_field_names_the_file_whose_header_grid_is_invalid(tmp_path, axes, match):
    path = tmp_path / "bad.fnls"
    path.write_bytes(_header(1, axes) + bytes(axes[0][0] * 16))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{match}"):
        read_field(path)


VALID_FNLS1 = _header(2, [(8, 1.0), (8, 2.0)]) + bytes(64 * 16)


@st.composite
def fnls1_like(draw):
    """A prefix of a valid 2D file with a few bytes overwritten, plus junk."""
    data = bytearray(VALID_FNLS1[: draw(st.integers(0, len(VALID_FNLS1)))])
    for _ in range(draw(st.integers(0, 3))):
        if data:
            data[draw(st.integers(0, min(len(data), 64) - 1))] = draw(st.integers(0, 255))
    return bytes(data) + draw(st.binary(max_size=24))


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "field.fnls"


@given(st.one_of(st.binary(max_size=96), fnls1_like()))
def test_read_field_returns_a_field_or_raises_value_error(fuzz_path, data):
    fuzz_path.write_bytes(data)
    try:
        field = read_field(fuzz_path)
    except ValueError:
        return
    assert fuzz_path.stat().st_size == 12 + 16 * field.grid.d + 16 * field.grid.total_points


@pytest.mark.parametrize("v", [[np.inf], [-np.inf], [np.nan], [1.0, np.inf]])
def test_axis_vector_rejects_a_non_finite_component(v):
    with pytest.raises(ValueError, match=r"shift must be finite; got \["):
        axis_vector(v, len(v), "shift")
