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
    require_regime,
    smallest_integer_above,
    verify_error_symbol_bound,
)
from fnls.cli import main
from fnls.errors import RegimeError
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


@pytest.mark.parametrize(
    "d, p, s, regime_elsewhere",
    [(1, 3, 0.3, SUBCRITICAL_LWP), (1, 7, None, CRITICAL_LWP), (1, 2.5, -0.1, ILLPOSED_RANGE)],
    ids=["subcritical", "critical", "ill-posed"],
)
def test_sigma_one_half_leaves_the_windows_its_neighbours_match(d, p, s, regime_elsewhere):
    for sigma in (0.5 - 1e-6, 0.5 + 1e-6):
        s_at = critical_exponents(d, p, sigma)[0] if s is None else s
        assert classify_regime(d, p, sigma, s_at).regime == regime_elsewhere
    s_at = critical_exponents(d, p, 0.5)[0] if s is None else s
    rep = classify_regime(d, p, 0.5, s_at)
    assert rep.regime == OUTSIDE_THEORY
    assert rep.hypothesis_notes == [
        "sigma = 1/2 is outside the paper: the 1D half-wave flow does not disperse"
    ]


@pytest.mark.parametrize("sigma", [0.5, 0.5 - 1e-13, 0.5 + 1e-13])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2, 2.5, 3, 4, 5, 7, 9])
def test_no_regime_at_sigma_one_half(d, p, sigma):
    # The paper's results are for sigma in (0, 1), sigma != 1/2.
    s_c, s_g = critical_exponents(d, p, sigma)
    for s in (s_c - 0.2, s_c - 1e-13, s_c, s_c + 0.05, s_g, -0.1, 0.0, 0.3, 2.0):
        rep = classify_regime(d, p, sigma, s)
        assert rep.regime == OUTSIDE_THEORY
        assert len(rep.hypothesis_notes) == 1 and "sigma = 1/2" in rep.hypothesis_notes[0]


SIGMA_ONE_NOTE = "sigma = 1 is the classical NLS, which the paper does not treat"


@pytest.mark.parametrize(
    "d, p, s, regime",
    [
        (1, 3, 0.3, SUBCRITICAL_LWP),
        (1, 7, None, CRITICAL_LWP),
        (2, 5, None, CRITICAL_LWP),
        (1, 3, -0.1, OUTSIDE_THEORY),  # the ill-posed window needs sigma < 1
    ],
)
def test_sigma_one_keeps_its_regime_and_adds_a_note(d, p, s, regime):
    s_at = critical_exponents(d, p, 1.0)[0] if s is None else s
    rep = classify_regime(d, p, 1.0, s_at)
    assert rep.regime == regime
    assert rep.hypothesis_notes[-1] == SIGMA_ONE_NOTE
    assert rep.lines()[-1] == f"note   : {SIGMA_ONE_NOTE}"
    assert rep.csv_row().endswith(SIGMA_ONE_NOTE)
    assert SIGMA_ONE_NOTE not in classify_regime(d, p, 0.9, s_at).hypothesis_notes


@pytest.mark.parametrize(
    "argv, lines",
    [
        (
            ["--d", "1", "--p", "3", "--sigma", "0.5", "--s", "0.3"],
            ["regime : OUTSIDE_THEORY",
             "note   : sigma = 1/2 is outside the paper: the 1D half-wave flow does not disperse"],
        ),
        (
            ["--d", "1", "--p", "3", "--sigma", "0.75"],
            ["regime : OUTSIDE_THEORY", "note   : no s supplied; classified at s = 0"],
        ),
        (
            ["--d", "1", "--p", "3", "--sigma", "0.75", "--s", "-0.1"],
            ["regime : ILLPOSED_RANGE",
             "match  : ill-posedness: sigma in (d/4,1), s in (s_c,0), p odd or p>=k+1 (k=1)"],
        ),
    ],
    ids=["sigma-one-half", "no-s", "ill-posed"],
)
def test_cli_exponents_labels_only_matched_windows_as_match(capsys, argv, lines):
    assert main(["exponents"] + argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2:-1] == lines
    # The csv row keeps every note, as before.
    assert out[-1].endswith(lines[-1].split(": ", 1)[1])


def test_require_regime_returns_the_report_or_names_the_inputs():
    rep = require_regime(ILLPOSED_RANGE, 1, 3, 0.75, -0.1, "decoherence")
    assert rep == classify_regime(1, 3, 0.75, -0.1)
    message = (
        "scattering probe requires CRITICAL_LWP, got OUTSIDE_THEORY "
        "(d = 1, p = 3, sigma = 0.75, s = -0.25, s_c = -0.25)"
    )
    with pytest.raises(RegimeError) as err:
        require_regime(CRITICAL_LWP, 1, 3, 0.75, -0.25, "scattering probe")
    assert str(err.value) == message


def test_admissible_pairs():
    assert is_admissible(6.0, 6.0, 1)
    assert is_admissible(np.inf, 2.0, 1)
    assert not is_admissible(4.0, 4.0, 1)
    assert is_admissible(4.0, 4.0, 2)
    assert not is_admissible(2.0, np.inf, 2)  # excluded endpoint
    assert not is_admissible(1.5, 6.0, 1)
    assert is_admissible(4, np.inf, 1)  # 2/4 + 1/inf = 1/2


def test_strichartz_weight_exponent_formula():
    got = StrichartzWeight(r=6.0, d=1, sigma=0.75).exponent
    assert got == pytest.approx(-1 * (1 - 0.75) * (0.5 - 1 / 6))
    assert StrichartzWeight(r=6.0, d=1, sigma=1.0).exponent == 0.0
    for d in (1, 2, 3):
        assert StrichartzWeight(r=np.inf, d=d, sigma=0.75).exponent == -d * (1 - 0.75) / 2


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
