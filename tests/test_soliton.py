"""Petviashvili iteration: convergence, guards, and the traveling ansatz."""

import numpy as np
import pytest

from fnls.errors import CoercivityError, StagnationError
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.profiles import gaussian
from fnls.soliton import (
    SolitonConfig,
    petviashvili_solve,
    soliton_residual,
    traveling_wave_check,
)

GRID = Grid(1, 512, 32 * np.pi)
SEED = gaussian(GRID, amplitude=1.0, width=1.0)


def _config(sigma=0.75, v=0.5, omega=1.0, **kw):
    params = ModelParams(d=1, sigma=sigma, p=3, mu=-1, nu=1.0)
    return SolitonConfig(params, omega=omega, v=(v,), **kw)


def test_converges_at_fractional_dispersion():
    res = petviashvili_solve(_config(), SEED)
    assert res.converged
    assert res.residual_history[-1] < 1e-10
    # stabilization factor tends to 1 at the fixed point
    assert abs(res.stabilization_history[-1] - 1.0) < 1e-8


def test_exact_sech_profile_at_classical_dispersion():
    res = petviashvili_solve(_config(sigma=1.0, v=0.0), SEED)
    x = GRID.x[0]
    peak = x[np.argmax(np.abs(res.Q.values))]
    exact = np.sqrt(2) / np.cosh(x - peak)
    assert np.max(np.abs(np.abs(res.Q.values) - exact)) < 1e-6


def test_residual_of_exact_sech_is_small():
    cfg = _config(sigma=1.0, v=0.0)
    exact = ComplexField(GRID, (np.sqrt(2) / np.cosh(GRID.x[0])).astype(complex))
    assert soliton_residual(exact, cfg) < 1e-9


def test_coercivity_guard():
    # below sigma = 1/2 the drift term dominates at negative frequencies
    # and p_v + omega^(2 sigma) dips below zero on a wide enough grid
    with pytest.raises(CoercivityError):
        petviashvili_solve(_config(sigma=0.4, v=1.0), SEED)


def test_stagnation_on_zero_seed():
    zero = ComplexField(GRID, np.zeros(512, dtype=complex))
    with pytest.raises(StagnationError):
        petviashvili_solve(_config(), zero)


def test_gamma_validation():
    with pytest.raises(ValueError):
        _config(gamma=5.0)
    with pytest.raises(ValueError):
        _config(gamma=1.0)


def test_traveling_wave_closes_under_evolution():
    cfg = _config()
    res = petviashvili_solve(cfg, SEED)
    mismatch = traveling_wave_check(res, cfg, t_end=0.5, dt=1e-3)
    assert mismatch < 1e-4


def test_traveling_check_requires_convergence():
    cfg = _config(max_iter=1)
    res = petviashvili_solve(cfg, SEED)
    assert not res.converged
    with pytest.raises(ValueError):
        traveling_wave_check(res, cfg, t_end=0.1, dt=1e-3)


def test_zero_velocity_profile_is_even_and_positive():
    res = petviashvili_solve(_config(v=0.0), SEED)
    q = np.abs(res.Q.values)
    peak = np.argmax(q)
    w = 100
    left = q[peak - w : peak]
    right = q[peak + 1 : peak + w + 1][::-1]
    assert np.allclose(left, right, atol=1e-8)


def test_solve_evaluates_the_symbol_once_and_reports_the_public_residual(monkeypatch):
    import fnls.soliton

    calls = []
    evaluate = fnls.soliton.evaluate_symbol
    monkeypatch.setattr(
        fnls.soliton, "evaluate_symbol", lambda *args: calls.append(args) or evaluate(*args)
    )
    cfg = _config()
    res = petviashvili_solve(cfg, SEED)
    assert len(res.residual_history) > 10
    assert len(calls) == 1
    monkeypatch.undo()
    assert res.residual_history[-1] == soliton_residual(res.Q, cfg)
