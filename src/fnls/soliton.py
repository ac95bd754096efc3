"""Traveling-profile computation by Petviashvili iteration.

The profile solves p_v(xi) Q_hat + omega^(2 sigma) Q_hat = F[|Q|^(p-1) Q]
in spectrum; the iteration renormalizes with the standard power-law
stabilization factor, which tends to 1 at a converged fixed point. That
equation is the focusing (mu = -1), full-dispersion (nu = 1) one, and
`SolitonConfig` rejects any other parameters.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CoercivityError, StagnationError
from .grid import ComplexField, abs_power, axis_vector
from .model import ModelParams
from .spectral import fft_values, galilean_boost, modulate, round_velocity
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
        if self.params.mu != -1:
            raise ValueError("soliton profiles need the focusing sign mu = -1")
        if self.params.nu != 1:
            raise ValueError("soliton profiles need full dispersion nu = 1")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        d = self.params.d
        self.v = tuple(axis_vector(self.v, d).tolist()) if np.size(self.v) else (0.0,) * d
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
    """The shifted symbol p_v + omega^(2 sigma) at the velocity rounded to grid."""
    sigma = cfg.params.sigma
    v = tuple(round_velocity(grid, cfg.v))
    return evaluate_symbol(SolitonSymbol(v, sigma), grid) + cfg.omega ** (2 * sigma)


def _profile_terms(vals, shifted, p):
    """(p_v + omega^(2 sigma)) Q and |Q|^(p-1) Q, given the shifted symbol.

    Out of place on purpose: run once before the Petviashvili loop with an
    output buffer, it left the loop's fresh arrays to fault in anew (2D
    256^2: ~29k minor page faults per solve against ~2k) and the solve slower.
    """
    lin = np.fft.ifftn(shifted * np.fft.fftn(vals))
    return lin, abs_power(vals, p - 1) * vals


def _relative_residual(vals, lin, nl):
    denom = np.linalg.norm(vals)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(lin - nl) / denom)


def soliton_residual(Q, cfg):
    """Relative L^2 residual of the profile equation, both terms taken directly."""
    shifted = soliton_symbol_on_grid(cfg, Q.grid)
    return _relative_residual(Q.values, *_profile_terms(Q.values, shifted, cfg.params.p))


def petviashvili_solve(cfg, seed):
    """Fixed-point iteration with stabilization factor M_n, one FFT pair per iteration.

    Q_{n+1} = M_n^gamma (p_v + omega^(2 sigma))^(-1) [|Q_n|^(p-1) Q_n],
    M_n = <(p_v + omega^(2 sigma)) Q_n, Q_n> / <|Q_n|^(p-1) Q_n, Q_n>.

    The symbol is evaluated once per solve. Applying p_v + omega^(2 sigma)
    to the update undoes its division, so the linear term at Q_{n+1} is
    M_n^gamma |Q_n|^(p-1) Q_n up to roundoff and is taken in that form. Only
    the seed's linear term costs an FFT pair of its own; after it, each
    iteration runs the update's pair and the pointwise |Q|^(p-1) Q, and both
    terms at Q_n serve the residual of step n - 1 and the update of step n.
    `soliton_residual` keeps the direct two-FFT form.
    """
    params = cfg.params
    grid = seed.grid
    shifted = soliton_symbol_on_grid(cfg, grid)
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
        scale = M**cfg.gamma
        new_vals = fft_values(nl)
        new_vals /= shifted
        np.fft.ifftn(new_vals, out=new_vals)
        new_vals *= scale
        Q = ComplexField(grid, new_vals)
        lin = scale * nl
        nl = abs_power(Q.values, params.p - 1) * Q.values
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

    Evolves u0 = exp(-i v.x) Q under cfg.params and compares with
    exp(-i t omega^(2 sigma)) G_v(Q)(t), the pseudo-Galilean boost of Q.
    The ansatz closes for mu = -1 with this sign convention of the flow,
    which `SolitonConfig` requires.
    """
    from .evolution import final_state

    if not result.converged:
        raise ValueError("traveling check requires a converged profile")
    v = round_velocity(result.Q.grid, cfg.v)
    sigma = cfg.params.sigma

    final = final_state(modulate(result.Q, v), cfg.params, t_end, dt)

    boosted = galilean_boost(result.Q, v, t_end, sigma)
    ref = np.exp(-1j * t_end * cfg.omega ** (2 * sigma)) * boosted.values
    return float(np.linalg.norm(final.values - ref) / np.linalg.norm(ref))
