"""Exponent arithmetic, hypothesis bookkeeping and symbol-bound measurement."""

from dataclasses import dataclass, field

import numpy as np

from .grid import axis_vector
from .symbols import ErrorSymbol, evaluate_symbol

SUBCRITICAL_LWP = "SUBCRITICAL_LWP"
CRITICAL_LWP = "CRITICAL_LWP"
ILLPOSED_RANGE = "ILLPOSED_RANGE"
OUTSIDE_THEORY = "OUTSIDE_THEORY"

_TOL = 1e-12


def critical_exponents(d, p, sigma):
    """Scaling-critical exponent s_c = d/2 - 2 sigma/(p-1) and s_g = (1-sigma)/2."""
    if d < 1 or p <= 1 or not 0 < sigma <= 1:
        raise ValueError("require d >= 1, p > 1, sigma in (0, 1]")
    s_c = d / 2 - 2 * sigma / (p - 1)
    s_g = (1 - sigma) / 2
    return s_c, s_g


def smallest_integer_above(x):
    k = int(np.floor(x)) + 1
    return k


def _is_odd_integer(p):
    return abs(p - round(p)) < _TOL and round(p) % 2 == 1


@dataclass
class RegimeReport:
    s_c: float
    s_g: float
    regime: str
    hypothesis_notes: list = field(default_factory=list)

    def lines(self):
        out = [
            f"s_c    : {self.s_c:.12g}",
            f"s_g    : {self.s_g:.12g}",
            f"regime : {self.regime}",
        ]
        for note in self.hypothesis_notes:
            out.append(f"match  : {note}")
        return out

    def csv_row(self):
        notes = ";".join(self.hypothesis_notes)
        return f"{self.s_c:.12g},{self.s_g:.12g},{self.regime},{notes}"


def classify_regime(d, p, sigma, s):
    """Match (d, p, sigma, s) against the known well- and ill-posedness windows.

    All matching hypothesis sets are recorded; overlaps are resolved with
    priority subcritical > critical > ill-posed.
    """
    s_c, s_g = critical_exponents(d, p, sigma)
    notes = []
    if d == 1 and 2 <= p < 5 and s >= s_g - _TOL:
        notes.append("subcritical LWP: d=1, 2<=p<5, s>=s_g")
    if d == 1 and p >= 5 and s > s_c + _TOL:
        notes.append("subcritical LWP: d=1, p>=5, s>s_c")
    if d >= 2 and p >= 3 and s > s_c + _TOL:
        notes.append("subcritical LWP: d>=2, p>=3, s>s_c")
    subcritical = bool(notes)

    critical = abs(s - s_c) <= _TOL and ((d == 1 and p > 5) or (d >= 2 and p > 3))
    if critical:
        notes.append("critical LWP: s=s_c, " + ("d=1, p>5" if d == 1 else "d>=2, p>3"))

    k = smallest_integer_above(d / 2)
    illposed = (
        d in (1, 2, 3)
        and d / 4 < sigma < 1
        and s_c < s < 0
        and (_is_odd_integer(p) or p >= k + 1)
    )
    if illposed:
        notes.append(f"ill-posedness: sigma in (d/4,1), s in (s_c,0), p odd or p>=k+1 (k={k})")

    if subcritical:
        regime = SUBCRITICAL_LWP
    elif critical:
        regime = CRITICAL_LWP
    elif illposed:
        regime = ILLPOSED_RANGE
    else:
        regime = OUTSIDE_THEORY
    return RegimeReport(s_c, s_g, regime, notes)


def is_admissible(q, r, d):
    """Exponent pair check: 2/q + d/r = d/2, 2 <= q,r <= inf, not (2,inf,2)."""
    if not (2 - _TOL <= q) or not (2 - _TOL <= r):
        return False
    inv_q = 0.0 if np.isinf(q) else 1.0 / q
    inv_r = 0.0 if np.isinf(r) else 1.0 / r
    if abs(2 * inv_q + d * inv_r - d / 2) > _TOL:
        return False
    if d == 2 and abs(q - 2) < _TOL and np.isinf(r):
        return False
    return True


def verify_error_symbol_bound(v, sigma, grid):
    """Measure sup over nonzero lattice modes of |E(xi)| / |xi|^(2 sigma).

    Returns (sup_ratio, argmax_mode). Finiteness and refinement stability
    are the caller's assertions.
    """
    v = axis_vector(v, grid.d)
    if not np.any(v):
        raise ValueError("v must be nonzero")
    E = evaluate_symbol(ErrorSymbol(tuple(v), sigma), grid)
    k = grid.k_abs
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(k > 0, np.abs(E) / k ** (2 * sigma), 0.0)
    idx = np.unravel_index(np.argmax(ratio), ratio.shape)
    mode = np.array([np.broadcast_to(kj, grid.shape)[idx] for kj in grid.k])
    return float(ratio[idx]), mode
