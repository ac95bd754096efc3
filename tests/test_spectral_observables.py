"""The spectral-side observables pinned to the physical-space code they replaced.

The `_reference_*` functions are the straightforward implementations kept
as the reference: every band, weight and backward propagation is a separate
FFT pair into physical space, every norm a physical-space quadrature, and
|u|^(p-1) goes through `np.abs`. The spectral versions take one forward FFT
per snapshot and their norms by Plancherel, so results agree to roundoff,
not bit for bit.
"""

import dataclasses

import numpy as np
import pytest

import fnls.model as model
import fnls.observables as observables
from fnls.evolution import EvolveConfig, evolve
from fnls.exponents import critical_exponents
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.observables import (
    PLAIN,
    TILDE,
    SpacetimeNormSpec,
    scattering_defects,
    spacetime_norm,
)
from fnls.profiles import gaussian
from fnls.spectral import BandMultiplier, apply_multiplier, resolvable_scales
from fnls.symbols import (
    Bessel,
    FractionalLaplacian,
    LpCutoff,
    StrichartzWeight,
    evaluate_symbol,
    linear_flow,
)

from references import littlewood_paley_project

NORM_TOL = 1e-12
DUHAMEL_TOL = 1e-12
DIRECT_TOL = 1e-9
# The direct defect of tiny data is roundoff; it is pinned against the size
# of the data, not against the reference's noise.
DIRECT_FLOOR = 1e-13


def _reference_lr(u, r):
    a = np.abs(u.values)
    if np.isinf(r):
        return float(np.max(a))
    return float((np.sum(a**r) * u.grid.cell_volume) ** (1.0 / r))


def _reference_sobolev(u, s, r):
    return _reference_lr(u if s == 0 else apply_multiplier(u, Bessel(s)), r)


def _reference_time_lq(times, values, q):
    values = np.asarray(values)
    if np.isinf(q):
        return float(np.max(values))
    return float(np.trapezoid(values**q, times) ** (1.0 / q))


def _reference_spacetime_norm(traj, spec):
    grid = traj.fields[0].grid
    weight = StrichartzWeight(spec.r, grid.d, spec.sigma)
    weighted = [apply_multiplier(u, weight) for u in traj.fields]
    if spec.variant == PLAIN:
        vals = [_reference_sobolev(w, spec.s, spec.r) for w in weighted]
        return _reference_time_lq(traj.times, vals, spec.q)
    total = 0.0
    for N in resolvable_scales(grid):
        vals = [
            _reference_sobolev(littlewood_paley_project(w, N), spec.s, spec.r)
            for w in weighted
        ]
        total += _reference_time_lq(traj.times, vals, spec.q) ** 2
    return float(np.sqrt(total))


def _backward(values, t, params, grid):
    """The run's linear flow exp(i t omega), omega = params.dispersion(grid), run back by t."""
    return np.fft.ifftn(linear_flow(params.dispersion(grid), -t) * np.fft.fftn(values))


def _reference_scattering_defect(traj, params, s_c):
    grid = traj.fields[0].grid
    w = [ComplexField(grid, _backward(u.values, t, params, grid)) for t, u in zip(traj.times, traj.fields)]
    return [_reference_sobolev(b - a, s_c, 2.0) for a, b in zip(w, w[1:])]


def _reference_duhamel(traj, params, s_c):
    grid = traj.fields[0].grid
    mu, p = params.mu, params.p
    integrands = [
        _backward(np.abs(u.values) ** (p - 1) * u.values * (1j * mu), t, params, grid)
        for t, u in zip(traj.times, traj.fields)
    ]
    out = []
    for i in range(len(traj.times) - 1):
        dt = traj.times[i + 1] - traj.times[i]
        inc = ComplexField(grid, 0.5 * dt * (integrands[i] + integrands[i + 1]))
        out.append(_reference_sobolev(inc, s_c, 2.0))
    return out


def _max_rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.abs(want)))


GRID_1D = Grid(1, 256, 16 * np.pi)
GRID_2D = Grid(2, (32, 64), (8 * np.pi, 12 * np.pi))
# Unequal in n and L. Its lowest TILDE band holds only the zero mode of
# axis 0 (K = 0), its band N = 2 spans axes 1 and 2 whole and is pruned on
# axis 0, and its top band is not pruned at all.
GRID_3D = Grid(3, (16, 32, 16), (3 * np.pi, 10 * np.pi, 8 * np.pi))
PARAMS_1D = ModelParams(1, 0.75, 7, 1, 1.0)
PARAMS_2D = ModelParams(2, 0.8, 5, -1, 1.0)
PARAMS_3D = ModelParams(3, 0.75, 3, 1, 1.0)


def _traj(grid, params, amplitude, t_end=0.205, dt=1e-2, stride=2):
    # Every t_end is not a whole number of dt, so the last snapshot gap is shorter.
    u0 = gaussian(grid, width=1.2, amplitude=amplitude, center=(0.3,) * grid.d)
    return evolve(u0, EvolveConfig(params, t_end=t_end, dt=dt, snapshot_stride=stride))


# (grid, params, q, r, s): every admissible r of {2, 4, inf} in 1D and 2D
# (the 2D endpoint (2, inf) is not admissible), and r = 2, 3 in 3D, with
# s = 0 and s != 0.
NORM_CASES = {
    "1d-r2-s0": (GRID_1D, PARAMS_1D, np.inf, 2.0, 0.0),
    "1d-r4-s0.5": (GRID_1D, PARAMS_1D, 8.0, 4.0, 0.5),
    "1d-rinf-s0": (GRID_1D, PARAMS_1D, 4.0, np.inf, 0.0),
    "1d-rinf-s-0.3": (GRID_1D, PARAMS_1D, 4.0, np.inf, -0.3),
    "2d-r2-s0.25": (GRID_2D, PARAMS_2D, np.inf, 2.0, 0.25),
    "2d-r4-s0": (GRID_2D, PARAMS_2D, 4.0, 4.0, 0.0),
    "2d-r4-s1": (GRID_2D, PARAMS_2D, 4.0, 4.0, 1.0),
    "3d-r3-s0": (GRID_3D, PARAMS_3D, 4.0, 3.0, 0.0),
    "3d-r3-s0.5": (GRID_3D, PARAMS_3D, 4.0, 3.0, 0.5),
    "3d-r2-s0": (GRID_3D, PARAMS_3D, np.inf, 2.0, 0.0),
    "3d-r2-s0.5": (GRID_3D, PARAMS_3D, np.inf, 2.0, 0.5),
}


def _band_boxes(grid, spec):
    """Lines per axis in the box of each band spacetime_norm transforms."""
    bands = [BandMultiplier(m) for m in observables._spacetime_bands(grid, spec)]
    return [[sum(s.stop - s.start for s in b) for b in band.box] for band in bands]


def test_3d_norm_cases_cover_a_zero_mode_band_and_whole_axes():
    spec = SpacetimeNormSpec(q=4.0, r=3.0, s=0.0, sigma=PARAMS_3D.sigma, variant=TILDE)
    assert _band_boxes(GRID_3D, spec) == [
        [1, 5, 3],
        [3, 9, 7],
        [5, 19, 15],
        [11, 32, 16],
        [16, 32, 16],
    ]


def _count_inverse_lines(monkeypatch):
    """Record (axis, lines) for every 1D line the inverse transforms run."""
    lines = []
    ifft, ifftn = np.fft.ifft, np.fft.ifftn

    def counting_ifft(a, *args, axis=-1, **kw):
        lines.append((axis % a.ndim, a.size // a.shape[axis]))
        return ifft(a, *args, axis=axis, **kw)

    def counting_ifftn(a, *args, **kw):
        lines.extend((j, a.size // a.shape[j]) for j in range(a.ndim))
        return ifftn(a, *args, **kw)

    monkeypatch.setattr(np.fft, "ifft", counting_ifft)
    monkeypatch.setattr(np.fft, "ifftn", counting_ifftn)
    return lines


@pytest.mark.parametrize("variant, columns", [(PLAIN, 256), (TILDE, 631)])
def test_pruned_inverse_transforms_only_the_box_columns(monkeypatch, variant, columns):
    # norms-2d's grid: the eight TILDE bands hold 3, 5, 11, 23, 47, 95, 191
    # and 256 of the 256 columns; every row is transformed, once per band.
    grid = Grid(2, 256, (32 * np.pi, 24 * np.pi))
    u = gaussian(grid, width=2.0, amplitude=1.0)
    spec = SpacetimeNormSpec(q=4.0, r=4.0, s=0.0, sigma=0.75, variant=variant)
    lines = _count_inverse_lines(monkeypatch)
    spacetime_norm([(0.0, u)], spec)
    rows = 256 * len(_band_boxes(grid, spec))
    assert sum(n for axis, n in lines if axis == 0) == columns
    assert sum(n for axis, n in lines if axis == 1) == rows


@pytest.mark.parametrize("variant", [PLAIN, TILDE])
@pytest.mark.parametrize("case", NORM_CASES, ids=list(NORM_CASES))
def test_spacetime_norm_matches_physical_space_reference(case, variant):
    grid, params, q, r, s = NORM_CASES[case]
    traj = _traj(grid, params, amplitude=0.5)
    spec = SpacetimeNormSpec(q=q, r=r, s=s, sigma=params.sigma, variant=variant)
    got = spacetime_norm(traj, spec)
    want = _reference_spacetime_norm(traj, spec)
    assert abs(got - want) <= NORM_TOL * want


DEFECT_CASES = {"1d": (GRID_1D, PARAMS_1D), "2d": (GRID_2D, PARAMS_2D)}
# The defects propagate back under the run's dispersion; at nu < 1 a nu-free
# backward flow leaves the linear flow's own mismatch in the direct defect.
# The nu = 1 cases keep their plain ids.
DEFECT_NU_CASES = [
    pytest.param(case, nu, id=case if nu == 1 else f"{case}-nu{nu:g}")
    for nu in (1.0, 0.5, 0.0)
    for case in DEFECT_CASES
]


def _defect_case(case, nu, amplitude):
    """(params at nu, s_c, trajectory, direct, duhamel) for a DEFECT_CASES entry."""
    grid, params = DEFECT_CASES[case]
    params = dataclasses.replace(params, nu=nu)
    s_c, _ = critical_exponents(params.d, params.p, params.sigma)
    traj = _traj(grid, params, amplitude)
    rows = list(scattering_defects(traj, params, s_c))
    assert [(lo, hi) for lo, hi, _, _ in rows] == list(zip(traj.times, traj.times[1:]))
    return params, s_c, traj, [r[2] for r in rows], [r[3] for r in rows]


@pytest.mark.parametrize("amplitude", [0.5, 1e-3])
@pytest.mark.parametrize("case, nu", DEFECT_NU_CASES)
def test_duhamel_increments_match_reference(case, nu, amplitude):
    params, s_c, traj, _, got = _defect_case(case, nu, amplitude)
    want = _reference_duhamel(traj, params, s_c)
    assert len(got) == len(want) == len(traj.times) - 1
    assert _max_rel(got, want) <= DUHAMEL_TOL


@pytest.mark.parametrize("case, nu", DEFECT_NU_CASES)
def test_direct_defect_matches_reference(case, nu):
    params, s_c, traj, got, _ = _defect_case(case, nu, amplitude=0.5)
    want = _reference_scattering_defect(traj, params, s_c)
    assert len(got) == len(want) == len(traj.times) - 1
    assert _max_rel(got, want) <= DIRECT_TOL


@pytest.mark.parametrize("case, nu", DEFECT_NU_CASES)
def test_direct_defect_of_tiny_data_stays_at_roundoff(case, nu):
    params, s_c, traj, got, _ = _defect_case(case, nu, amplitude=1e-3)
    size = _reference_sobolev(traj.fields[0], s_c, 2.0)
    want = _reference_scattering_defect(traj, params, s_c)
    assert np.max(np.abs(np.subtract(got, want))) <= DIRECT_FLOOR * size


def _count_symbols(monkeypatch):
    """Record every spec that observables and ModelParams.dispersion pass to evaluate_symbol."""
    seen = []

    def counting(spec, grid):
        seen.append(spec)
        return evaluate_symbol(spec, grid)

    monkeypatch.setattr(observables, "evaluate_symbol", counting)
    monkeypatch.setattr(model, "evaluate_symbol", counting)
    return seen


def test_tilde_norm_evaluates_each_band_cutoff_once(monkeypatch):
    traj = _traj(GRID_2D, PARAMS_2D, amplitude=0.5)
    assert len(traj.fields) > 3
    seen = _count_symbols(monkeypatch)
    spacetime_norm(traj, SpacetimeNormSpec(q=4.0, r=4.0, s=0.5, sigma=0.8, variant=TILDE))
    cutoffs = [spec.N for spec in seen if isinstance(spec, LpCutoff)]
    assert sorted(cutoffs) == resolvable_scales(GRID_2D)
    assert sum(isinstance(spec, Bessel) for spec in seen) == 1
    assert sum(isinstance(spec, StrichartzWeight) for spec in seen) == 1


def test_defect_pass_evaluates_bessel_and_dispersion_once(monkeypatch):
    params = PARAMS_1D
    s_c, _ = critical_exponents(params.d, params.p, params.sigma)
    traj = _traj(GRID_1D, params, amplitude=0.5)
    assert len(traj.fields) > 3
    seen = _count_symbols(monkeypatch)
    rows = list(scattering_defects(traj, params, s_c))
    assert len(rows) == len(traj.fields) - 1
    kinds = [type(spec) for spec in seen]
    assert kinds.count(Bessel) == 1
    assert kinds.count(FractionalLaplacian) == 1  # omega, by ModelParams.dispersion
    assert len(seen) == 2
