"""Petviashvili iteration: convergence, guards, and the traveling ansatz."""

import numpy as np
import pytest

from fnls.errors import CoercivityError, StagnationError
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.profiles import gaussian
from fnls.soliton import SolitonConfig, petviashvili_solve, traveling_wave_check
from fnls.spectral import round_velocity

from references import petviashvili_two_pairs, soliton_residual

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


@pytest.mark.parametrize(
    "kw, match",
    [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"max_iter": -3}, "max_iter must be >= 1"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": -1.0}, "tol must be positive"),
        ({"tol": float("nan")}, "tol must be positive"),
    ],
)
def test_iteration_budget_and_tolerance_are_validated(kw, match):
    with pytest.raises(ValueError, match=match):
        _config(**kw)
    assert _config(max_iter=1).max_iter == 1


@pytest.mark.parametrize("omega", [float("nan"), 0.0, -1.0])
def test_config_rejects_an_omega_that_is_not_positive(omega):
    # A NaN omega used to pass and fail later as a nonfinite field.
    with pytest.raises(ValueError, match="omega must be positive"):
        _config(omega=omega)


def test_traveling_wave_closes_under_evolution():
    cfg = _config()
    res = petviashvili_solve(cfg, SEED)
    mismatch = traveling_wave_check(res, cfg, t_end=0.5, dt=1e-3)
    assert mismatch < 1e-4


@pytest.mark.parametrize(
    "mu, nu, match", [(1, 1.0, "mu = -1"), (-1, 0.5, "nu = 1"), (-1, 0.0, "nu = 1")]
)
def test_config_rejects_parameters_the_profile_equation_does_not_have(mu, nu, match):
    with pytest.raises(ValueError, match=match):
        SolitonConfig(ModelParams(d=1, sigma=0.75, p=3, mu=mu, nu=nu), v=(0.5,))


def test_traveling_check_evolves_under_the_config_params(monkeypatch):
    import fnls.evolution

    cfg = _config()
    res = petviashvili_solve(cfg, SEED)
    seen = []
    final_state = fnls.evolution.final_state

    def recording(u0, params, t_end, dt=None):
        seen.append(params)
        return final_state(u0, params, t_end, dt)

    monkeypatch.setattr(fnls.evolution, "final_state", recording)
    traveling_wave_check(res, cfg, t_end=0.05, dt=1e-2)
    assert len(seen) == 1 and seen[0] is cfg.params


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
    # The solver takes its residual on the spectrum (Plancherel), so it is
    # the public one only up to roundoff (5e-16 here), far below tol.
    assert abs(res.residual_history[-1] - soliton_residual(res.Q, cfg)) <= 1e-13


CRITERION_09_SEED = gaussian(Grid(1, 1024, 32 * np.pi), amplitude=1.0, width=1.0)
GRID_2D = Grid(2, 64, 8 * np.pi)


REFERENCE_CASES = [
    (CRITERION_09_SEED, (0.0,)),
    (CRITERION_09_SEED, (0.5,)),
    (gaussian(GRID_2D, width=1.1, center=(3 * GRID_2D.dx[0], -2 * GRID_2D.dx[0])), (0.5, 0.0)),
]


def _reference_config(seed, v):
    return SolitonConfig(ModelParams(seed.grid.d, 0.75, 3, -1, 1.0), omega=1.0, v=v)


@pytest.mark.parametrize("seed, v", REFERENCE_CASES)
def test_one_pair_iteration_matches_the_two_pair_reference(seed, v):
    # Anderson mixing reaches the reference's fixed point by another path, so
    # the profiles agree at the tolerance scale (about 10 tol), not at roundoff.
    cfg = _reference_config(seed, v)
    res = petviashvili_solve(cfg, seed)
    ref = petviashvili_two_pairs(cfg, seed)
    assert res.converged and ref.converged
    q, q_ref = res.Q.values, ref.Q.values
    assert np.linalg.norm(q - q_ref) <= 1e-9 * np.linalg.norm(q_ref)
    assert 2 * len(res.residual_history) <= len(ref.residual_history)


@pytest.mark.parametrize("failure", ["raises", "nonfinite"])
@pytest.mark.parametrize("seed, v", REFERENCE_CASES[:2])
def test_failed_mixing_falls_back_to_the_plain_petviashvili_step(monkeypatch, seed, v, failure):
    def solve(a, b):
        if failure == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(np.shape(b), np.nan)

    monkeypatch.setattr(np.linalg, "solve", solve)
    cfg = _reference_config(seed, v)
    res = petviashvili_solve(cfg, seed)
    monkeypatch.undo()
    ref = petviashvili_two_pairs(cfg, seed)
    # With every mix refused, each step is x <- G(x): the reference loop,
    # whose rows start after the seed's.
    assert res.converged
    assert len(res.residual_history) == len(ref.residual_history) + 1
    q, q_ref = res.Q.values, ref.Q.values
    assert np.linalg.norm(q - q_ref) <= 1e-12 * np.linalg.norm(q_ref)
    np.testing.assert_allclose(res.residual_history[1:], ref.residual_history, rtol=0, atol=1e-13)


def test_solve_traced_peak_stays_within_one_and_a_half_fields_of_the_plain_loop():
    # The bound is the traced peak of the plain one-pair Petviashvili loop on
    # this input, 7.14 MiB (numpy 2.4; a complex field is 1 MiB), plus 1.5
    # fields. The mixed solve holds x, two rings of three fields, the symbol
    # and the |Q|^(p-1) temporaries: 8.50 MiB.
    import tracemalloc

    grid = Grid(2, 256, 16 * np.pi)
    seed = gaussian(grid, width=1.0)
    cfg = SolitonConfig(ModelParams(2, 0.75, 3, -1, 1.0), omega=1.0, v=(0.5, 0.0))
    tracemalloc.start()
    try:
        res = petviashvili_solve(cfg, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak <= (7.14 + 1.5) * 2**20


def test_solve_runs_one_fft_pair_per_iteration_after_the_seed(monkeypatch):
    calls = []
    for name in ("fftn", "ifftn"):
        transform = getattr(np.fft, name)
        monkeypatch.setattr(
            np.fft, name, lambda *a, _f=transform, **kw: calls.append(_f) or _f(*a, **kw)
        )
    res = petviashvili_solve(_config(), SEED)
    monkeypatch.undo()
    assert res.converged
    assert len(calls) == 2 * (len(res.residual_history) + 1)


def test_velocity_with_the_wrong_number_of_components_is_rejected():
    params = ModelParams(d=2, sigma=0.75, p=3, mu=-1, nu=1.0)
    with pytest.raises(ValueError, match="velocity must have 2 components"):
        SolitonConfig(params, v=(0.5, 0.0, 0.7))
    with pytest.raises(ValueError, match="velocity must have 2 components"):
        round_velocity(GRID_2D, (0.5, 0.0, 0.7))
    assert SolitonConfig(params, v=np.array([0.5, 0.0])).v == (0.5, 0.0)
    assert SolitonConfig(params).v == (0.0, 0.0)
