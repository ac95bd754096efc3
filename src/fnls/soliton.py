"""Traveling-profile computation by Anderson-accelerated Petviashvili iteration.

The profile solves p_v(xi) Q_hat + omega^(2 sigma) Q_hat = F[|Q|^(p-1) Q]
in spectrum. The iteration renormalizes with the standard power-law
stabilization factor, which tends to 1 at a converged fixed point, and
runs on the spectrum, where all but |Q|^(p-1) Q is a pointwise product;
Anderson mixing of the last few fixed-point residuals cuts the iteration
count about threefold. That equation is the focusing (mu = -1),
full-dispersion (nu = 1) one, and `SolitonConfig` rejects any other
parameters.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CoercivityError, StagnationError
from .grid import ComplexField, abs_power, axis_vector
from .model import ModelParams
from .spectral import fft_values, galilean_boost, modulate, round_velocity
from .symbols import SolitonSymbol, evaluate_symbol

# Anderson mixing depth: the number of earlier (G, f) pairs each step combines.
ANDERSON_DEPTH = 2


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


def soliton_symbol_on_grid(cfg, grid):
    """The shifted symbol p_v + omega^(2 sigma) at the velocity rounded to grid."""
    sigma = cfg.params.sigma
    v = tuple(round_velocity(grid, cfg.v))
    return evaluate_symbol(SolitonSymbol(v, sigma), grid) + cfg.omega ** (2 * sigma)


def _real_inner(a, b):
    """Re <a, b> over the flattened arrays: the real dot product of their (re, im) parts."""
    return float(np.vdot(a, b).real)


def _anderson_coefficients(gram, s, held):
    """Real c minimising ||f_s - sum_j c_j (f_s - f_j)|| over the held slots j.

    The normal equations are built from the cached Gram matrix
    gram[a, b] = Re <f_a, f_b> alone. Returns None when the solve fails or
    its coefficients are not finite.
    """
    row = gram[s, s] - gram[s, held]
    A = row[:, None] + row[None, :] - gram[s, s] + gram[np.ix_(held, held)]
    try:
        c = np.linalg.solve(A, row)
    except np.linalg.LinAlgError:
        return None
    return c if np.all(np.isfinite(c)) else None


def petviashvili_solve(cfg, seed):
    """Petviashvili's fixed-point map on the spectrum, Anderson-mixed, one FFT pair per iterate.

    At the spectrum x = F[Q] of an iterate, with N = |Q|^(p-1) Q,

        G(x) = M^gamma F[N] / (p_v + omega^(2 sigma)),
        M    = <(p_v + omega^(2 sigma)) x, x> / Re <F[N], x>,

    and G(x) = x at a profile (M = 1 there). The inverse transform of x and
    the forward one of N are the iterate's one FFT pair; the linear term
    (p_v + omega^(2 sigma)) x, M and the relative residual
    ||(p_v + omega^(2 sigma)) x - F[N]|| / ||x|| are spectral products,
    equal to their physical-space forms by Plancherel.

    The next iterate is type-II Anderson mixing of depth ANDERSON_DEPTH
    (Anderson 1965; Walker & Ni, SIAM J. Numer. Anal. 49 (2011) 1715):
    x <- G_k - sum_j c_j (G_k - G_j), with real c minimising the combined
    fixed-point residual f = G(x) - x over the real and imaginary parts.
    Real coefficients keep the real-linear symmetries the seed has. When
    the 2x2 normal-equation solve fails or gives non-finite coefficients,
    the step is the plain x <- G_k and the history is cleared.

    Row i of `residual_history` and `stabilization_history` holds the
    residual and M at iterate i; row 0 is the seed. At most max_iter
    iterates are evaluated, and Q is the last one. The symbol is evaluated
    once per solve; the FFT count is 2 (iterates + 1), the seed's forward
    transform and Q's inverse one included.
    """
    params = cfg.params
    grid = seed.grid
    shifted = soliton_symbol_on_grid(cfg, grid)
    sym_min = float(np.min(shifted))
    if sym_min <= 0:
        raise CoercivityError(
            f"symbol not coercive: min(p_v + omega^(2 sigma)) = {sym_min:.3e}"
        )

    slots = ANDERSON_DEPTH + 1
    x = fft_values(seed.values)
    # Rings of the last ANDERSON_DEPTH + 1 values of G(x) and f = G(x) - x,
    # and no other full-size buffer: an iterate's N and F[N] are formed in
    # its G slot, its linear term and residual in its f slot.
    G = np.empty((slots,) + grid.shape, dtype=np.complex128)
    f_ring = np.empty_like(G)
    gram = np.zeros((slots, slots))
    held = []
    result = SolitonResult(seed, symbol_min=sym_min)
    prev_res = np.inf
    stall = 0
    for k in range(cfg.max_iter):
        s = k % slots
        g, f = G[s], f_ring[s]
        np.fft.ifftn(x, out=g)
        g *= abs_power(g, params.p - 1)
        np.fft.fftn(g, out=g)
        np.multiply(shifted, x, out=f)
        num = _real_inner(x, f)
        den = _real_inner(x, g)
        if den == 0 or not np.isfinite(num / den):
            raise StagnationError("stagnation: degenerate seed (zero nonlinear pairing)")
        M = num / den
        f -= g
        res = float(np.sqrt(_real_inner(f, f) / _real_inner(x, x)))
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
        if k == cfg.max_iter - 1:
            break

        g /= shifted
        g *= M**cfg.gamma
        np.subtract(g, x, out=f)
        for j in held + [s]:
            gram[s, j] = gram[j, s] = _real_inner(f_ring[j], f)
        c = _anderson_coefficients(gram, s, held) if held else None
        if c is None:
            held = []
            np.copyto(x, g)
        else:
            # The oldest f leaves the window at the next iterate, and its
            # Gram entries are cached, so its slot is free as scratch.
            tmp = f_ring[(s + 1) % slots]
            np.multiply(g, 1.0 - c.sum(), out=x)
            for cj, j in zip(c, held):
                np.multiply(G[j], cj, out=tmp)
                x += tmp
        held = (held + [s])[-ANDERSON_DEPTH:]
    result.Q = ComplexField(grid, np.fft.ifftn(x, out=x))
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
