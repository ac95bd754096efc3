"""Traveling-profile computation by Petviashvili iteration.

The profile solves p_v(xi) Q_hat + omega^(2 sigma) Q_hat = F[|Q|^(p-1) Q]
in spectrum; the iteration renormalizes with the standard power-law
stabilization factor, which tends to 1 at a converged fixed point.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CoercivityError, StagnationError
from .grid import ComplexField, abs_power
from .model import ModelParams
from .spectral import galilean_boost, modulate, round_velocity
from .symbols import SolitonSymbol, evaluate_symbol


@dataclass
class SolitonConfig:
    params: ModelParams
    omega: float = 1.0
    v: tuple = ()
    gamma: float | None = None
    max_iter: int = 500
    tol: float = 1e-10

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError("omega must be positive")
        if not self.v:
            self.v = (0.0,) * self.params.d
        g = self.gamma if self.gamma is not None else self.params.p / (self.params.p - 1)
        if not 1 < g < self.params.p:
            raise ValueError("gamma must lie in (1, p)")
        self.gamma = g


@dataclass
class SolitonResult:
    Q: ComplexField
    residual_history: list = field(default_factory=list)
    stabilization_history: list = field(default_factory=list)
    converged: bool = False
    symbol_min: float = 0.0


def _inner(grid, a, b):
    return float(np.real(np.sum(a * np.conj(b)))) * grid.cell_volume


def soliton_symbol_on_grid(cfg, grid):
    v = round_velocity(grid, cfg.v)
    return evaluate_symbol(SolitonSymbol(tuple(v), cfg.params.sigma), grid), v


def _profile_terms(vals, shifted, p):
    """(p_v + omega^(2 sigma)) Q and |Q|^(p-1) Q, given the shifted symbol."""
    lin = np.fft.ifftn(shifted * np.fft.fftn(vals))
    return lin, abs_power(vals, p - 1) * vals


def _relative_residual(vals, lin, nl):
    denom = np.linalg.norm(vals)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(lin - nl) / denom)


def soliton_residual(Q, cfg):
    """Relative L^2 residual of the profile equation."""
    symbol, _ = soliton_symbol_on_grid(cfg, Q.grid)
    shifted = symbol + cfg.omega ** (2 * cfg.params.sigma)
    return _relative_residual(Q.values, *_profile_terms(Q.values, shifted, cfg.params.p))


def petviashvili_solve(cfg, seed):
    """Fixed-point iteration with stabilization factor M_n.

    Q_{n+1} = M_n^gamma (p_v + omega^(2 sigma))^(-1) [|Q_n|^(p-1) Q_n],
    M_n = <(p_v + omega^(2 sigma)) Q_n, Q_n> / <|Q_n|^(p-1) Q_n, Q_n>.

    The symbol is evaluated once per solve, and both terms of the profile
    equation at Q_n serve the residual of step n - 1 and the update of step n.
    """
    params = cfg.params
    grid = seed.grid
    symbol, _ = soliton_symbol_on_grid(cfg, grid)
    shifted = symbol + cfg.omega ** (2 * params.sigma)
    sym_min = float(np.min(shifted))
    if sym_min <= 0:
        raise CoercivityError(
            f"symbol not coercive: min(p_v + omega^(2 sigma)) = {sym_min:.3e}"
        )

    Q = seed.copy()
    result = SolitonResult(Q, symbol_min=sym_min)
    lin, nl = _profile_terms(Q.values, shifted, params.p)
    prev_res = np.inf
    stall = 0
    for _ in range(cfg.max_iter):
        vals = Q.values
        num = _inner(grid, lin, vals)
        den = _inner(grid, nl, vals)
        if den == 0 or not np.isfinite(num / den):
            raise StagnationError("stagnation: degenerate seed (zero nonlinear pairing)")
        M = num / den
        new_vals = (M**cfg.gamma) * np.fft.ifftn(np.fft.fftn(nl) / shifted)
        Q = ComplexField(grid, new_vals)
        lin, nl = _profile_terms(Q.values, shifted, params.p)
        res = _relative_residual(Q.values, lin, nl)
        result.residual_history.append(res)
        result.stabilization_history.append(M)
        if res < cfg.tol:
            result.converged = True
            break
        if res >= prev_res * (1 - 1e-12):
            stall += 1
            if stall > 25:
                raise StagnationError(
                    f"stagnation: residual plateaued at {res:.3e} above tol {cfg.tol:.1e}"
                )
        else:
            stall = 0
        prev_res = res
    result.Q = Q
    return result


def traveling_wave_check(result, cfg, t_end, dt):
    """Relative L^2 mismatch between the evolved and the analytic traveling wave.

    Evolves u0 = exp(-i v.x) Q under the full equation and compares with
    exp(-i t omega^(2 sigma)) G_v(Q)(t), the pseudo-Galilean boost of Q.
    The ansatz closes for mu = -1 with this sign convention of the flow, so
    the check runs at mu = -1 regardless of the mu stored in cfg.params.
    """
    from .evolution import EvolveConfig, evolve

    if not result.converged:
        raise ValueError("traveling check requires a converged profile")
    params = cfg.params
    _, v = soliton_symbol_on_grid(cfg, result.Q.grid)
    sigma = params.sigma

    u0 = modulate(result.Q, v)
    run = ModelParams(params.d, sigma, params.p, mu=-1, nu=1.0)
    traj = evolve(u0, EvolveConfig(run, t_end=t_end, dt=dt, snapshot_stride=10**9))

    boosted = galilean_boost(result.Q, v, t_end, sigma)
    ref = np.exp(-1j * t_end * cfg.omega ** (2 * sigma)) * boosted.values
    return float(np.linalg.norm(traj.final.values - ref) / np.linalg.norm(ref))
