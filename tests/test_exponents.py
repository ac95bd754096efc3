"""Critical exponents, regime classification, and the error-symbol bound."""

import numpy as np
import pytest

from fnls.exponents import (
    CRITICAL_LWP,
    ILLPOSED_RANGE,
    OUTSIDE_THEORY,
    SUBCRITICAL_LWP,
    classify_regime,
    critical_exponents,
    is_admissible,
    smallest_integer_above,
    verify_error_symbol_bound,
)
from fnls.grid import Grid
from fnls.symbols import StrichartzWeight


def test_exponent_formulas():
    s_c, s_g = critical_exponents(d=1, p=3, sigma=0.75)
    assert s_c == pytest.approx(0.5 - 1.5 / 2)  # d/2 - 2 sigma/(p-1)
    assert s_g == pytest.approx(0.125)  # (1 - sigma)/2
    s_c, s_g = critical_exponents(d=2, p=5, sigma=0.9)
    assert s_c == pytest.approx(1 - 1.8 / 4)
    assert s_g == pytest.approx(0.05)


def test_classical_limit_exponents():
    s_c, s_g = critical_exponents(d=1, p=5, sigma=1.0)
    assert s_c == pytest.approx(0.0)
    assert s_g == pytest.approx(0.0)


def test_smallest_integer_above():
    assert smallest_integer_above(0.5) == 1
    assert smallest_integer_above(1.0) == 2
    assert smallest_integer_above(1.5) == 2
    assert smallest_integer_above(-0.3) == 0


def test_regime_subcritical_low_power():
    rep = classify_regime(d=1, p=3, sigma=0.75, s=0.5)
    assert rep.regime == SUBCRITICAL_LWP


def test_regime_critical():
    s_c, _ = critical_exponents(d=1, p=7, sigma=0.75)
    rep = classify_regime(d=1, p=7, sigma=0.75, s=s_c)
    assert rep.regime == CRITICAL_LWP


def test_regime_illposed_window():
    rep = classify_regime(d=1, p=3, sigma=0.75, s=-0.1)
    assert rep.regime == ILLPOSED_RANGE
    assert any("ill-posedness" in note for note in rep.hypothesis_notes)


def test_regime_outside():
    rep = classify_regime(d=1, p=3, sigma=0.75, s=0.0)
    assert rep.regime == OUTSIDE_THEORY


def test_regime_priority_records_all_matches():
    # s large: subcritical even though other windows cannot apply
    rep = classify_regime(d=2, p=5, sigma=0.9, s=2.0)
    assert rep.regime == SUBCRITICAL_LWP
    assert len(rep.hypothesis_notes) >= 1


def test_admissible_pairs():
    assert is_admissible(6.0, 6.0, 1)
    assert is_admissible(np.inf, 2.0, 1)
    assert not is_admissible(4.0, 4.0, 1)
    assert is_admissible(4.0, 4.0, 2)
    assert not is_admissible(2.0, np.inf, 2)  # excluded endpoint
    assert not is_admissible(1.5, 6.0, 1)


def test_strichartz_weight_exponent_formula():
    got = StrichartzWeight(r=6.0, d=1, sigma=0.75).exponent
    assert got == pytest.approx(-1 * (1 - 0.75) * (0.5 - 1 / 6))
    assert StrichartzWeight(r=6.0, d=1, sigma=1.0).exponent == 0.0


def test_error_symbol_bound_finite_and_grid_stable():
    sups = []
    for n in (256, 512):
        g = Grid(1, n, 16 * np.pi)
        sup, _ = verify_error_symbol_bound((0.5,), 0.75, g)
        assert np.isfinite(sup)
        sups.append(sup)
    assert abs(sups[1] / sups[0] - 1) < 0.05


def test_error_symbol_bound_zero_at_sigma_one():
    g = Grid(1, 256, 16 * np.pi)
    sup, _ = verify_error_symbol_bound((0.5,), 1.0, g)
    assert sup == 0.0
