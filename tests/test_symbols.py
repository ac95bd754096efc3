"""Fourier multiplier symbols: closed-form values and algebraic identities."""

import numpy as np
import pytest

import fnls.grid
from fnls.errors import SingularSymbolError
from fnls.grid import Grid
from fnls.model import ModelParams
from fnls.symbols import (
    Bessel,
    ErrorSymbol,
    FractionalLaplacian,
    LinearPropagator,
    LpCutoff,
    Riesz,
    SolitonSymbol,
    StrichartzWeight,
    evaluate_symbol,
    linear_flow,
    lp_bump,
    smooth_step,
)
from references import Product

GRID = Grid(1, 64, 16 * np.pi)
GRID2 = Grid(2, 32, 8 * np.pi)


def test_fractional_laplacian_symbol_values():
    m = evaluate_symbol(FractionalLaplacian(0.75), GRID)
    assert np.allclose(m, GRID.k_abs**1.5)
    assert m.flat[0] == 0.0


def test_bessel_and_riesz_pointwise():
    s = -0.3
    bessel = evaluate_symbol(Bessel(s), GRID)
    assert np.allclose(bessel, (1 + GRID.k_abs**2) ** (s / 2))
    riesz = evaluate_symbol(Riesz(0.5), GRID)
    expected = GRID.k_abs**0.5
    assert np.allclose(riesz, expected)


def test_riesz_zero_mode_projected():
    r = evaluate_symbol(Riesz(-0.5), GRID)
    assert r.flat[0] == 0.0
    assert np.all(np.isfinite(r))


def test_symbol_not_finite_on_the_lattice_is_rejected():
    with np.errstate(divide="ignore"), pytest.raises(SingularSymbolError, match="not finite"):
        evaluate_symbol(FractionalLaplacian(-0.25), GRID)  # |0|^(-1/2)


def test_smooth_step_plateaus():
    r = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    eta = smooth_step(r)
    assert eta[0] == 1.0 and eta[1] == 1.0 and eta[2] == 1.0
    assert eta[3] == 0.0 and eta[4] == 0.0
    mid = smooth_step(np.array([1.5]))[0]
    assert 0.0 < mid < 1.0


def test_lp_bump_support():
    r = np.array([0.3, 0.5, 1.0, 2.0, 2.5])
    psi = lp_bump(r)
    assert psi[0] == 0.0 and psi[-1] == 0.0
    assert psi[2] > 0.0


def test_lp_partition_of_unity_telescopes():
    """sum_N psi(xi / N) = 1 away from the origin, by the telescoping sum."""
    k = GRID.k_abs
    total = np.zeros_like(k)
    for j in range(-40, 40):
        total += evaluate_symbol(LpCutoff(2.0**j), GRID)
    interior = k > 0
    assert np.allclose(total[interior], 1.0, atol=1e-12)


def test_strichartz_weight_exponent():
    w = StrichartzWeight(r=6.0, d=1, sigma=0.75)
    assert w.exponent == pytest.approx(-1 * (1 - 0.75) * (0.5 - 1 / 6))
    m = evaluate_symbol(w, GRID)
    nz = GRID.k_abs > 0
    assert np.allclose(m[nz], GRID.k_abs[nz] ** w.exponent)
    assert m.flat[0] == 0.0


def test_strichartz_weight_trivial_at_sigma_one():
    m = evaluate_symbol(StrichartzWeight(r=6.0, d=1, sigma=1.0), GRID)
    nz = GRID.k_abs > 0
    assert np.allclose(m[nz], 1.0)


# The small-dispersion flow exp(i t nu^(2 sigma) |xi|^(2 sigma)) is
# linear_flow of the run's dispersion, and the nu = 1 LinearPropagator at the
# nu-scaled time nu^(2 sigma) t; nu = 0 is time 0.
def test_linear_propagator_is_unimodular():
    m = evaluate_symbol(LinearPropagator(0.37, 0.75), GRID)
    assert np.allclose(np.abs(m), 1.0)
    m0 = evaluate_symbol(LinearPropagator(0.0**1.5 * 0.37, 0.75), GRID)
    assert np.allclose(m0, 1.0)


def test_linear_propagator_scales_the_dispersion_by_nu_to_the_two_sigma():
    for nu in (0.0, 0.5, 1.0):
        m = evaluate_symbol(LinearPropagator(nu**1.5 * 0.37, 0.75), GRID)
        assert np.allclose(m, np.exp(0.37j * nu**1.5 * GRID.k_abs**1.5), rtol=0, atol=1e-14)
        omega = ModelParams(1, 0.75, 3, 1, nu).dispersion(GRID)
        for t in (0.37, -0.37):
            exact = np.exp(1j * t * nu**1.5 * GRID.k_abs**1.5)
            assert np.allclose(linear_flow(omega, t), exact, rtol=0, atol=1e-14)
    unit = ModelParams(1, 0.75, 3, 1, 1.0).dispersion(GRID)
    for t in (0.37, -0.37):
        m = evaluate_symbol(LinearPropagator(t, 0.75), GRID)
        assert np.array_equal(m, linear_flow(unit, t))


@pytest.mark.parametrize("block", [None, 1000], ids=["default-blocks", "ragged-blocks"])
def test_linear_flow_is_exp_i_t_omega_to_one_ulp(monkeypatch, block):
    # linear_flow writes cos and sin block by block; a 2D 256^2 grid spans
    # several blocks, and 1000 samples divide no grid.
    if block is not None:
        monkeypatch.setattr(fnls.grid, "BLOCK", block)
    grid = Grid(2, 256, 16 * np.pi)
    assert grid.total_points > fnls.grid.BLOCK
    for nu in (1.0, 0.5, 0.0):
        omega = ModelParams(2, 0.75, 3, 1, nu).dispersion(grid)
        for t in (0.005, -0.37, 17.3):
            got = linear_flow(omega, t).view(float)
            want = np.exp(1j * (t * omega)).view(float)
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_error_symbol_identities():
    v, sigma = 0.5, 0.75
    E = evaluate_symbol(ErrorSymbol((v,), sigma), GRID)
    k = GRID.k[0]
    # E(0) = 0 and E(xi) = p_v(xi) - |xi|^(2 sigma)
    assert E.flat[0] == 0.0
    P = evaluate_symbol(SolitonSymbol((v,), sigma), GRID)
    assert np.allclose(E, P - GRID.k_abs ** (2 * sigma))
    # closed form at xi = v: E(v) = 2 (sigma - 1)|v|^(2 sigma)
    idx = np.argmin(np.abs(k - v))
    assert k[idx] == pytest.approx(v)  # v is on the lattice for this box
    assert E[idx] == pytest.approx(2 * (sigma - 1) * v ** (2 * sigma))


def test_error_symbol_vanishes_at_sigma_one():
    E = evaluate_symbol(ErrorSymbol((0.5,), 1.0), GRID)
    assert np.all(E == 0.0)


def test_soliton_symbol_values():
    v, sigma = 0.5, 0.75
    P = evaluate_symbol(SolitonSymbol((v,), sigma), GRID)
    k = GRID.k[0]
    assert P.flat[0] == 0.0
    idx = np.argmin(np.abs(k - v))
    # p_v(v) = (2 sigma - 1)|v|^(2 sigma)
    assert P[idx] == pytest.approx((2 * sigma - 1) * v ** (2 * sigma))
    direct = np.abs(k - v) ** (2 * sigma) - v ** (2 * sigma) + 2 * sigma * v ** (
        2 * sigma - 2
    ) * v * k
    assert np.allclose(P, direct)


@pytest.mark.parametrize("d, v", [(1, (-1.25,)), (2, (-1.25, 0.3))])
def test_soliton_and_error_symbols_vanish_exactly_at_zero(d, v):
    # At these values numpy's array pow and Python's float pow of
    # |v|^(2 sigma) differ in the last bit.
    grid = Grid(d, 64, 16 * np.pi)
    assert evaluate_symbol(SolitonSymbol(v, 0.95), grid).flat[0] == 0.0
    assert evaluate_symbol(ErrorSymbol(v, 0.95), grid).flat[0] == 0.0


def test_product_symbol_composes():
    a = FractionalLaplacian(0.5)
    b = Bessel(-1.0)
    prod = evaluate_symbol(Product((a, b)), GRID)
    assert np.allclose(prod, evaluate_symbol(a, GRID) * evaluate_symbol(b, GRID))


def test_symbols_work_in_two_dimensions():
    m = evaluate_symbol(FractionalLaplacian(0.6), GRID2)
    assert m.shape == GRID2.shape
    E = evaluate_symbol(ErrorSymbol((0.5, 0.25), 0.6), GRID2)
    assert E.flat[0] == 0.0
