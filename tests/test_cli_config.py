"""The CLI's config table: strict typing, required keys, and what each subcommand reads."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fnls.cli as cli
import fnls.experiments as exp
from fnls.cli import CONFIG_KEYS, KEY_TYPES, _load_config, main
from fnls.config import load_config
from fnls.errors import MassDriftError, RegimeError, SingularSymbolError, WrapAroundError
from fnls.evolution import EvolveConfig
from fnls.grid import ComplexField, Grid
from fnls.model import ModelParams
from fnls.profiles import ProfileSpec
from fnls.soliton import SolitonConfig, SolitonResult

# A valid value for every key, as config text; soliton takes only mu = -1.
VALID = {
    "d": "1", "sigma": "0.75", "p": "3", "mu": "-1", "nu": "1.0", "n": "64", "L": "20",
    "dt": "0.01", "profile_width": "1.0", "profile_amplitude": "0.5", "t_end": "0.1",
    "snapshot_stride": "2", "mass_drift_guard": "1e-8", "omega": "1.0", "v": "0.5",
    "gamma": "1.5", "max_iter": "10", "tol": "1e-10", "seed_width": "1.0",
    "N_list": "1, 4", "t_grid": "5, 10, 20", "nu_list": "0.1, 0.05, 0.025", "t_eval": "0.5",
    "k": "1", "hs_track": "0.5", "n_x": "64", "L_x": "20", "n_y": "64", "dt_x": "0.01",
    "dt_y": "0.01", "a": "1.0", "a_prime": "0.9", "alpha": "1.2", "s": "-0.1",
    "epsilon": "5", "t_scan_max": "10", "L_y": "20", "max_n_x": "1024",
    "true_evolution": "false", "amplitude_list": "1e-3", "windows": "0.025:0.05, 0.05:0.1",
}


def _run(tmp_path, command, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_load_config_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sigma = 0.5\np = 3\n# sigma once more\nsigma = 0.75\n")
    repeated = r"run\.cfg:4: config key 'sigma' is already set on line 1"
    with pytest.raises(ValueError, match=repeated):
        load_config(path)
    with pytest.raises(ValueError, match="'sigma' is already set on line 1"):
        _load_config(path, "dispersive")


def test_property_tests_draw_the_same_examples_on_every_run():
    # tests/conftest.py loads this profile for every module.
    assert settings.default.derandomize
    assert settings.default.database is None
    assert settings.default.deadline is None


def test_key_types_cover_exactly_the_listed_keys():
    listed = {key for required, optional in CONFIG_KEYS.values() for key in required + optional}
    assert set(KEY_TYPES) == listed == set(VALID)


@pytest.mark.parametrize(
    "command, text, match",
    [
        ("evolve", "p = 3\nn = 64\nL = 20\nt_end = 0.1\n", "missing config key 'sigma' for evolve"),
        ("evolve", "sigma = 0.75\np = 3\nn = 64\nL = 20\n", "missing config key 't_end' for evolve"),
        ("small-dispersion", "sigma = 0.75\np = 3\nn = 64\n", "'n' for small-dispersion needs 'L'"),
        ("scatter", "sigma = 0.75\np = 7\nn = 64\n", "'n' for scatter needs 'L'"),
        # Small runs, so a CLI that drops the lone L fails these fast.
        ("dispersive", "sigma = 0.75\nL = 20\nt_grid = 5, 10, 20\n", "'L' for dispersive needs 'n'"),
        (
            "small-dispersion",
            "sigma = 0.75\np = 3\nL = 20\nnu_list = 0.5, 0.4, 0.3\nt_eval = 0.1\n",
            "'L' for small-dispersion needs 'n'",
        ),
        ("scatter", "sigma = 0.75\np = 7\nL = 20\nt_end = 0.1\n", "'L' for scatter needs 'n'"),
        # dt steps only the traveling check, which t_end turns on.
        (
            "soliton",
            "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\ndt = 0.01\n",
            "config key 'dt' for soliton needs 't_end'",
        ),
    ],
)
def test_cli_rejects_missing_and_half_given_keys(tmp_path, command, text, match):
    with pytest.raises(ValueError, match=match):
        _run(tmp_path, command, text)
    assert not (tmp_path / "out").exists()


def test_dispersive_takes_n_alone(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma = 0.75\nn = 1024\n")
    assert _load_config(cfg, "dispersive") == {"d": 1, "sigma": 0.75, "n": 1024}


BASE = {
    "evolve": "sigma = 0.75\np = 3\nn = 64\nL = 20\nt_end = 0.1\n",
    "small-dispersion": "sigma = 0.75\np = 3\n",
    "galilean": "sigma = 0.75\np = 3\n",
    "decohere": "sigma = 0.75\np = 3\n",
    "dispersive": "sigma = 0.75\n",
    "scatter": "sigma = 0.75\np = 7\n",
    "soliton": "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\n",
}


def _with(text, line):
    """(key, config text): text with line in place of its key's own line."""
    key = line.split(" = ")[0]
    rows = [row for row in text.splitlines() if not row.startswith(key + " ")]
    return key, "\n".join(rows + [line]) + "\n"


def _base_with(command, line):
    return _with(BASE[command], line)


# Casting would turn these into n = 64, stride 2, k = 2, mu = -1,
# true_evolution = True and sigma = 1.0.
@pytest.mark.parametrize(
    "command, line",
    [
        ("evolve", "n = 64.5"),
        ("evolve", "snapshot_stride = 2.7"),
        ("small-dispersion", "k = 2.9"),
        ("evolve", "mu = -1.5"),
        ("decohere", "true_evolution = nope"),
        ("evolve", "sigma = yes"),
        # Each value's text is parsed once, by its key's type: an integer is
        # no float literal, only true and false are booleans, nan is no
        # number, and a list has no empty item.
        ("evolve", "n = 64.0"),
        ("decohere", "true_evolution = yes"),
        ("decohere", "true_evolution = True"),
        ("evolve", "sigma = nan"),
        ("evolve", "mass_drift_guard = nan"),
        ("dispersive", "N_list = ,"),
        ("scatter", "windows = 1:nan"),
        ("scatter", "windows = 1:2:3"),
    ],
)
def test_cli_rejects_values_of_the_wrong_type(tmp_path, command, line):
    key, text = _base_with(command, line)
    with pytest.raises(ValueError, match=f"config key '{key}' for {command}: expected"):
        _run(tmp_path, command, text)


# Each is rejected by the library, after the config parses; every run
# computes all it writes before --out is made.
@pytest.mark.parametrize(
    "command, line, error, match",
    [
        ("evolve", "snapshot_stride = 0", ValueError, "snapshot stride must be a whole number"),
        ("evolve", "dt = 1.0", ValueError, "dt must not exceed t_end"),
        ("scatter", "p = 3", RegimeError, "scattering probe requires CRITICAL_LWP"),
        # The default windows end at 20.
        ("scatter", "t_end = 10", ValueError, "windows must satisfy 0 <= lo < hi <= t_end = 10"),
        ("decohere", "a = 2", ValueError, "a, a' must lie in"),
        ("evolve", "profile_width = 0", ValueError, "width must be positive"),
        ("evolve", "profile_width = 1e300", ValueError, "width must be positive"),
        ("evolve", "profile_amplitude = inf", ValueError, "amplitude must be finite"),
        ("evolve", "L = 1e-300", ValueError, "extent L = 1e-300 is out of range"),
        # Sweeps too short for their runner's checks and fits.
        ("dispersive", "N_list = 1", ValueError, "N_list needs at least 2"),
        ("dispersive", "t_grid = 5, 10", ValueError, "t_grid needs at least 3"),
        ("small-dispersion", "nu_list = 0.1, 0.05", ValueError, "nu_list needs at least 3"),
        ("galilean", "nu_list = 0.1", ValueError, "nu_list needs at least 2"),
        ("scatter", "windows = 10:20", ValueError, "windows needs at least two"),
        ("scatter", "windows = 10:20, 5:10", ValueError, "windows must follow each other"),
        (
            "scatter", "t_end = 10\nwindows = 2.3:5, 5:10", ValueError,
            r"window edges must be multiples of the snapshot spacing t_end/40 = 0.25; got 2.3",
        ),
        ("dispersive", "t_grid = 0, 5, 10", ValueError, "t_grid entries must be positive"),
        ("dispersive", "N_list = 1, -4", ValueError, "N_list entries must be positive"),
        # Each amplitude is a run of its own, under its own fit and check keys.
        (
            "scatter", "amplitude_list = 1e-3, 1e-3", ValueError,
            "amplitude_list entries must differ; got 0.001 twice",
        ),
        ("scatter", "amplitude_list = 0", ValueError, "amplitude_list entries must be positive"),
        (
            "scatter", "amplitude_list = -1e-3", ValueError,
            "amplitude_list entries must be positive and finite; got -0.001",
        ),
        # Runs of ~1e301 and 1e299 steps, and a field whose mass is inf.
        ("evolve", "t_end = 1e300", ValueError, r"t_end = 1e\+300 .* more than MAX_STEPS"),
        ("evolve", "dt = 1e-300", ValueError, r"t_end = 0.1 in steps of at most dt = 1e-300"),
        ("evolve", "profile_amplitude = 1e200", ValueError, "amplitude 1e\\+200 gives a field"),
        # A finite mass whose spectrum squares past the largest double.
        (
            "evolve", "profile_amplitude = 1e153", ValueError,
            "amplitude 1e\\+153 gives a field whose spectrum squares",
        ),
        # Soliton plans its traveling check before it solves the profile.
        (
            "soliton", "t_end = -1", ValueError,
            r"run\.cfg: .*t_end must be finite and >= 0; got -1",
        ),
        (
            "soliton", "t_end = inf", ValueError,
            r"run\.cfg: .*t_end must be finite and >= 0; got inf",
        ),
        (
            "soliton", "t_end = 1e300", ValueError,
            r"run\.cfg: .*t_end = 1e\+300 .* more than MAX_STEPS",
        ),
        (
            "soliton", "t_end = 1\ndt = -1", ValueError,
            r"run\.cfg: .*dt must be positive and finite; got -1",
        ),
        (
            "soliton", "t_end = 1\ndt = inf", ValueError,
            r"run\.cfg: .*dt must be positive and finite; got inf",
        ),
        # Inputs that crashed mid-run, past the checks that came before.
        ("dispersive", "sigma = -1", ValueError, r"sigma must lie in \(0, 1\]; got -1"),
        ("dispersive", "sigma = 1e300", ValueError, r"sigma must lie in \(0, 1\]; got 1e\+300"),
        ("dispersive", "sigma = 0", ValueError, r"sigma must lie in \(0, 1\]; got 0"),
        (
            "small-dispersion", "profile_amplitude = 0", ValueError,
            "profile_amplitude 0.0 gives a zero datum on the grid",
        ),
        ("small-dispersion", "hs_track = inf", ValueError, "hs_track must be finite; got inf"),
        ("small-dispersion", "hs_track = -inf", ValueError, "hs_track must be finite; got -inf"),
        (
            "decohere", "alpha = 1e300", ValueError,
            r"derived \|v\| is not a finite number; adjust epsilon/alpha",
        ),
        (
            "decohere", "epsilon = 1e-300", ValueError,
            r"derived \|v\| is not a finite number; adjust epsilon/alpha",
        ),
        ("evolve", "p = inf", ValueError, "p must exceed 1 and be finite; got inf"),
        ("small-dispersion", "p = inf", ValueError, "p must exceed 1 and be finite; got inf"),
        ("galilean", "p = inf", ValueError, "p must exceed 1 and be finite; got inf"),
        ("scatter", "p = inf", ValueError, "p must exceed 1 and be finite; got inf"),
        ("soliton", "omega = inf", ValueError, "omega must be positive and finite; got inf"),
        ("soliton", "v = inf", ValueError, r"velocity must be finite; got \[inf\]"),
        ("galilean", "v = inf", ValueError, r"velocity must be finite; got \[inf\]"),
        ("galilean", "v = -inf", ValueError, r"velocity must be finite; got \[-inf\]"),
        # |v|^2 overflows though v is finite.
        ("soliton", "v = 1e300", ValueError, r"velocity is too large: its squared length"),
        ("galilean", "v = 1e300", ValueError, r"velocity is too large: its squared length"),
        # Each probe datum is ProfileSpec's, whose mass bound applies.
        (
            "scatter", "amplitude_list = 1e300", ValueError,
            r"amplitude 1e\+300 gives a field of infinite mass",
        ),
        # The probe checks t_end before the windows that it bounds.
        ("scatter", "t_end = -1", ValueError, "t_end must be finite and >= 0; got -1"),
        ("scatter", "t_end = -inf", ValueError, "t_end must be finite and >= 0; got -inf"),
    ],
    ids=[
        "evolve-stride-0", "evolve-dt-above-t_end", "scatter-p-3", "scatter-t_end-10",
        "decohere-a-2",
        "evolve-width-0", "evolve-width-1e300", "evolve-amplitude-inf", "evolve-L-1e-300",
        "dispersive-N_list-1", "dispersive-t_grid-2", "small-dispersion-nu_list-2",
        "galilean-nu_list-1", "scatter-one-window", "scatter-late-first", "scatter-off-the-clock",
        "dispersive-t_grid-0", "dispersive-N_list-negative", "scatter-amplitude-repeated",
        "scatter-amplitude-0", "scatter-amplitude-negative", "evolve-t_end-1e300",
        "evolve-dt-1e-300", "evolve-amplitude-1e200", "evolve-amplitude-1e153",
        "soliton-t_end-negative",
        "soliton-t_end-inf", "soliton-t_end-1e300", "soliton-dt-negative", "soliton-dt-inf",
        "dispersive-sigma-negative", "dispersive-sigma-1e300", "dispersive-sigma-0",
        "small-dispersion-amplitude-0", "small-dispersion-hs_track-inf",
        "small-dispersion-hs_track-negative-inf", "decohere-alpha-1e300",
        "decohere-epsilon-1e-300", "evolve-p-inf", "small-dispersion-p-inf", "galilean-p-inf",
        "scatter-p-inf", "soliton-omega-inf", "soliton-v-inf", "galilean-v-inf",
        "galilean-v-negative-inf", "soliton-v-1e300", "galilean-v-1e300",
        "scatter-amplitude-1e300", "scatter-t_end-negative", "scatter-t_end-negative-inf",
    ],
)
def test_a_rejected_config_leaves_no_out_behind(tmp_path, command, line, error, match):
    with pytest.raises(error, match=match):
        _run(tmp_path, command, _base_with(command, line)[1])
    assert not (tmp_path / "out").exists()


# With --save-fields the fields are written after the run, with its report,
# so a config the runner rejects leaves no --out.
@pytest.mark.parametrize(
    "command, text, error, match",
    [
        ("dispersive", "sigma = 0.75\nn = 64\nL = 20\n", WrapAroundError, "wrap-around horizon"),
        (
            "small-dispersion", "sigma = 0.75\np = 3\ndt = 2\n", ValueError,
            "dt must not exceed t_eval = 1; got 2",
        ),
        ("galilean", "sigma = 0.2\np = 3\n", RegimeError, "sigma below d/4"),
        ("decohere", "sigma = 0.75\np = 3\na = 2\n", ValueError, "a, a' must lie in"),
        ("scatter", "sigma = 0.75\np = 3\n", RegimeError, "scattering probe requires"),
        ("scatter", "sigma = 0.75\np = 7\nt_end = 10\n", ValueError, "windows must satisfy"),
        ("dispersive", "sigma = 0.75\nN_list = 1\n", ValueError, "N_list needs at least 2"),
        ("dispersive", "sigma = 0.75\nt_grid = 5, 10\n", ValueError, "t_grid needs at least 3"),
        (
            "small-dispersion", "sigma = 0.75\np = 3\nnu_list = 0.1, 0.05\n", ValueError,
            "nu_list needs at least 3",
        ),
        (
            "galilean", "sigma = 0.75\np = 3\nnu_list = 0.1\n", ValueError,
            "nu_list needs at least 2",
        ),
        (
            "scatter", "sigma = 0.75\np = 7\nt_end = 1\nwindows = 0.5:1\n", ValueError,
            "windows needs at least two",
        ),
        (
            "scatter", "sigma = 0.75\np = 7\nt_end = 4\nwindows = 2:4, 1:2\n", ValueError,
            "windows must follow each other",
        ),
        (
            "scatter", "sigma = 0.75\np = 7\nt_end = 10\nwindows = 2.3:5, 5:10\n", ValueError,
            "window edges must be multiples of the snapshot spacing",
        ),
        (
            "dispersive", "sigma = 0.75\nn = 1024\nt_grid = 0, 5, 10\n", ValueError,
            "t_grid entries must be positive and finite; got 0",
        ),
        (
            "dispersive", "sigma = 0.75\nN_list = 1, inf\n", ValueError,
            "N_list entries must be positive and finite; got inf",
        ),
        # decohere's scales, checked after its regime gate and before its grid.
        (
            "decohere", "sigma = 0.75\np = 3\nepsilon = 0\n", ValueError,
            "epsilon must be positive and finite; got 0",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\ns = -0.15\nepsilon = -5\n", ValueError,
            "epsilon must be positive and finite; got -5",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\nt_scan_max = -1\n", ValueError,
            "t_scan_max must be positive and finite; got -1",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\nt_scan_max = 0\n", ValueError,
            "t_scan_max must be positive and finite; got 0",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\nk = 0\n", ValueError,
            "k must be an integer above d/2 = 0.5; got 0",
        ),
        # The nu runners' step keys, named before the first run; decohere's
        # dt_y as soon as its decoherence time T is known.
        (
            "small-dispersion", "sigma = 0.75\np = 3\ndt = -1\n", ValueError,
            "dt must be positive and finite; got -1",
        ),
        (
            "galilean", "sigma = 0.75\np = 3\ndt_x = 5\n", ValueError,
            "dt_x must not exceed t_eval = 0.5; got 5",
        ),
        (
            "galilean", "sigma = 0.75\np = 3\ndt_x = inf\n", ValueError,
            "dt_x must be positive and finite; got inf",
        ),
        (
            "galilean", "sigma = 0.75\np = 3\ndt_y = 5\n", ValueError,
            "dt_y must not exceed t_eval = 0.5; got 5",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\ndt_y = 100\n", ValueError,
            r"dt_y must not exceed the decoherence time T = \S+; got 100",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\ndt_y = -1\n", ValueError,
            "dt_y must be positive and finite; got -1",
        ),
        # Both fits take the log of an error that is 0 at t_eval = 0.
        (
            "small-dispersion", "sigma = 0.75\np = 3\nt_eval = -1\n", ValueError,
            "t_eval must be finite and >= 0; got -1",
        ),
        (
            "small-dispersion", "sigma = 0.75\np = 3\nt_eval = inf\n", ValueError,
            "t_eval must be finite and >= 0; got inf",
        ),
        (
            "small-dispersion", "sigma = 0.75\np = 3\nt_eval = 0\n", ValueError,
            "t_eval must be positive; got 0",
        ),
        (
            "galilean", "sigma = 0.75\np = 3\nt_eval = -1\n", ValueError,
            "t_eval must be finite and >= 0; got -1",
        ),
        (
            "galilean", "sigma = 0.75\np = 3\nt_eval = inf\n", ValueError,
            "t_eval must be finite and >= 0; got inf",
        ),
        (
            "galilean", "sigma = 0.75\np = 3\nt_eval = 0\n", ValueError,
            "t_eval must be positive; got 0",
        ),
        # Inputs that crashed mid-run, past the checks that came before.
        ("dispersive", "sigma = -1\n", ValueError, r"sigma must lie in \(0, 1\]; got -1"),
        ("dispersive", "sigma = 1e300\n", ValueError, r"sigma must lie in \(0, 1\]"),
        ("dispersive", "sigma = 0\n", ValueError, r"sigma must lie in \(0, 1\]; got 0"),
        (
            "small-dispersion", "sigma = 0.75\np = 3\nprofile_amplitude = 0\n", ValueError,
            "profile_amplitude 0.0 gives a zero datum",
        ),
        (
            "small-dispersion", "sigma = 0.75\np = 3\nhs_track = inf\n", ValueError,
            "hs_track must be finite; got inf",
        ),
        (
            "small-dispersion", "sigma = 0.75\np = 3\nhs_track = -inf\n", ValueError,
            "hs_track must be finite; got -inf",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\nalpha = 1e300\n", ValueError,
            r"derived \|v\| is not a finite number",
        ),
        (
            "decohere", "sigma = 0.75\np = 3\nepsilon = 1e-300\n", ValueError,
            r"derived \|v\| is not a finite number",
        ),
        ("small-dispersion", "sigma = 0.75\np = inf\n", ValueError, "p must exceed 1 and be"),
        ("galilean", "sigma = 0.75\np = inf\n", ValueError, "p must exceed 1 and be finite"),
        ("scatter", "sigma = 0.75\np = inf\n", ValueError, "p must exceed 1 and be finite"),
        ("galilean", "sigma = 0.75\np = 3\nv = inf\n", ValueError, "velocity must be finite"),
        ("galilean", "sigma = 0.75\np = 3\nv = -inf\n", ValueError, "velocity must be finite"),
        ("galilean", "sigma = 0.75\np = 3\nv = 1e300\n", ValueError, "velocity is too large"),
        (
            "scatter", "sigma = 0.75\np = 7\namplitude_list = 1e300\n", ValueError,
            r"amplitude 1e\+300 gives a field of infinite mass",
        ),
    ],
    ids=[
        "dispersive", "small-dispersion", "galilean", "decohere", "scatter", "scatter-windows",
        "dispersive-N_list-1", "dispersive-t_grid-2", "small-dispersion-nu_list-2",
        "galilean-nu_list-1", "scatter-one-window", "scatter-late-first",
        "scatter-off-the-clock", "dispersive-t_grid-0", "dispersive-N_list-inf",
        "decohere-epsilon-0", "decohere-epsilon-negative", "decohere-t_scan_max-negative",
        "decohere-t_scan_max-0", "decohere-k-0", "small-dispersion-dt-negative",
        "galilean-dt_x-5", "galilean-dt_x-inf", "galilean-dt_y-5", "decohere-dt_y-100",
        "decohere-dt_y-negative", "small-dispersion-t_eval-negative",
        "small-dispersion-t_eval-inf", "small-dispersion-t_eval-0", "galilean-t_eval-negative",
        "galilean-t_eval-inf", "galilean-t_eval-0", "dispersive-sigma-negative",
        "dispersive-sigma-1e300", "dispersive-sigma-0", "small-dispersion-amplitude-0",
        "small-dispersion-hs_track-inf", "small-dispersion-hs_track-negative-inf",
        "decohere-alpha-1e300", "decohere-epsilon-1e-300", "small-dispersion-p-inf",
        "galilean-p-inf", "scatter-p-inf", "galilean-v-inf", "galilean-v-negative-inf",
        "galilean-v-1e300", "scatter-amplitude-1e300",
    ],
)
def test_a_rejected_config_leaves_no_out_behind_with_save_fields(
    tmp_path, command, text, error, match
):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--save-fields"]
    with pytest.raises(error, match=match):
        main(argv)
    assert not (tmp_path / "out").exists()


# Tiny configs that run to exit 0, and the files each subcommand always writes.
SMALL_RUNS = {
    "evolve": BASE["evolve"],
    "soliton": BASE["soliton"] + "t_end = 0.05\n",
    "dispersive": "sigma = 0.75\nn = 1024\nN_list = 1, 4\nt_grid = 5, 10, 20\n",
    "small-dispersion": (
        "sigma = 0.75\np = 3\nn = 64\nL = 20\nnu_list = 0.5, 0.4, 0.3\nt_eval = 0.1\n"
    ),
    "galilean": (
        "sigma = 0.75\np = 3\nnu_list = 0.5, 0.4, 0.3\nt_eval = 0.05\nn_x = 256\nL_x = 40\n"
        "n_y = 64\nv = 4\n"
    ),
    "decohere": (
        "sigma = 0.75\np = 3\nnu_list = 0.1, 0.09\nn_y = 64\nL_y = 20\nt_scan_max = 10\n"
        "max_n_x = 1024\n"
    ),
    "scatter": "sigma = 0.75\np = 7\nn = 256\nL = 40\nt_end = 1\nwindows = 0.2:0.5, 0.5:1\n",
}
WRITES = {
    "evolve": {"diagnostics.csv", "snap_00000.fnls"},
    "soliton": {"Q.fnls", "residuals.csv", "summary.txt"},
    **dict.fromkeys(cli.EXPERIMENTS, {"report.csv", "summary.txt"}),
}


def _infinite_configs(command):
    """SMALL_RUNS[command] with each key that parses inf set to inf, then to -inf."""
    required, optional = CONFIG_KEYS[command]
    for key in required + optional:
        try:
            KEY_TYPES[key]("inf")
        except ValueError:  # an integer, boolean or window key
            continue
        for value in ("inf", "-inf"):
            yield _with(SMALL_RUNS[command], f"{key} = {value}")[1]


# Every float and float-list key at +-inf either runs to exit 0 with the
# subcommand's files, or is rejected before --out exists.
@pytest.mark.parametrize(
    "command, flags",
    [pytest.param(command, [], id=command) for command in sorted(CONFIG_KEYS)]
    + [
        pytest.param(command, ["--save-fields"], id=f"{command}-save-fields")
        for command in sorted(cli.EXPERIMENTS)
    ],
)
def test_every_float_key_at_infinity_runs_or_is_rejected_before_out(tmp_path, command, flags):
    cfg = tmp_path / "run.cfg"
    broken = []
    for i, text in enumerate([SMALL_RUNS[command], *_infinite_configs(command)]):
        cfg.write_text(text)
        out = tmp_path / f"out{i}"
        try:
            code = main([command, "--config", str(cfg), "--out", str(out), *flags])
        except (ValueError, RegimeError) as err:
            if i == 0 or out.exists():
                broken.append(f"{text.splitlines()[-1]}: {err!r}")
            continue
        except Exception as err:
            broken.append(f"{text.splitlines()[-1]}: {err!r}")
            continue
        if code != 0 or not WRITES[command] <= {path.name for path in out.iterdir()}:
            broken.append(f"{text.splitlines()[-1]}: exit {code}")
    assert broken == []


def test_soliton_leaves_no_out_behind_when_its_solve_fails(tmp_path, monkeypatch):
    def fail(*args):
        raise SingularSymbolError("symbol is not finite on the lattice")

    monkeypatch.setattr(cli, "petviashvili_solve", fail)
    with pytest.raises(SingularSymbolError):
        _run(tmp_path, "soliton", BASE["soliton"])
    assert not (tmp_path / "out").exists()


def test_soliton_leaves_no_out_behind_when_its_traveling_check_fails(tmp_path, monkeypatch):
    def fail(*args):
        raise MassDriftError("relative mass drift exceeded the guard")

    monkeypatch.setattr(cli, "traveling_wave_check", fail)
    with pytest.raises(MassDriftError):
        _run(tmp_path, "soliton", SMALL_RUNS["soliton"])
    assert not (tmp_path / "out").exists()


# A run that raises after its first nu's fields are computed leaves no --out:
# the fields are written only once the whole run has returned.
@pytest.mark.parametrize(
    "command, runner",
    [("small-dispersion", exp.smalldisp), ("galilean", exp.galilean), ("decohere", exp.decoherence)],
    ids=["small-dispersion", "galilean", "decohere"],
)
def test_a_run_that_raises_midway_leaves_no_out_behind(tmp_path, monkeypatch, command, runner):
    final_state, calls = runner.final_state, []

    def third_call_fails(*args):
        calls.append(args)
        if len(calls) == 3:
            raise MassDriftError("relative mass drift exceeded the guard")
        return final_state(*args)

    monkeypatch.setattr(runner, "final_state", third_call_fails)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL_RUNS[command])
    with pytest.raises(MassDriftError):
        main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--save-fields"])
    assert len(calls) == 3
    assert not (tmp_path / "out").exists()


def test_soliton_runs_the_traveling_check_at_t_end_zero(tmp_path):
    text = "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\nt_end = 0\n"
    assert _run(tmp_path, "soliton", text) == 0
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "converged: True" in summary
    assert "traveling-wave mismatch at t=0.0: " in summary



def test_soliton_steps_a_short_traveling_check_in_one_step_by_default(tmp_path, monkeypatch):
    # The default dt is 1e-3, cut to t_end when the check is shorter.
    seen = []
    check = cli.traveling_wave_check
    monkeypatch.setattr(
        cli, "traveling_wave_check", lambda *args: seen.append(args[2:]) or check(*args)
    )
    text = "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\nt_end = 0.0005\n"
    assert _run(tmp_path, "soliton", text) == 0
    assert seen == [(0.0005, 0.0005)]
    assert "traveling-wave mismatch at t=0.0005: " in (tmp_path / "out" / "summary.txt").read_text()


def test_soliton_rejects_a_zero_seed_width_before_writing(tmp_path):
    text = "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\nseed_width = 0\n"
    with pytest.raises(ValueError, match="width must be positive"):
        _run(tmp_path, "soliton", text)
    assert not (tmp_path / "out").exists()


def test_soliton_rejects_a_dt_beyond_t_end_before_writing(tmp_path):
    text = "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\nt_end = 0.0005\ndt = 0.001\n"
    message = r"run\.cfg: soliton's traveling check: dt must not exceed t_end = 0.0005; got 0.001"
    with pytest.raises(ValueError, match=message):
        _run(tmp_path, "soliton", text)
    assert not (tmp_path / "out").exists()

@pytest.mark.parametrize(
    "command, key",
    [
        ("dispersive", "p"),
        ("dispersive", "profile_width"),
        ("dispersive", "dt"),
        ("galilean", "n"),
        ("galilean", "L"),
        ("galilean", "dt"),
        ("decohere", "n"),
        ("decohere", "L"),
        ("decohere", "dt"),
        ("soliton", "profile_width"),
    ],
)
def test_cli_rejects_keys_a_subcommand_never_reads(tmp_path, command, key):
    with pytest.raises(ValueError, match=f"unknown config key '{key}' for {command}"):
        _run(tmp_path, command, f"sigma = 0.75\n{key} = {VALID[key]}\n")


def test_soliton_rejects_a_velocity_with_the_wrong_number_of_components(tmp_path):
    text = "d = 2\nsigma = 0.75\np = 3\nmu = -1\nn = 32\nL = 20\nv = 0.5, 0, 0.7\n"
    with pytest.raises(ValueError, match="velocity must have 2 components"):
        _run(tmp_path, "soliton", text)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mu", ["mu = 1\n", ""])
def test_soliton_rejects_the_defocusing_sign_before_writing(tmp_path, mu):
    # Without a mu line the model default mu = 1 applies, and is rejected too.
    text = f"sigma = 0.75\np = 3\n{mu}n = 64\nL = 20\nt_end = 0.1\n"
    with pytest.raises(ValueError, match="mu = -1"):
        _run(tmp_path, "soliton", text)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "line, match", [("max_iter = 0", "max_iter must be >= 1"), ("tol = 0", "tol must be positive")]
)
def test_soliton_rejects_an_empty_iteration_budget_before_solving(tmp_path, line, match):
    text = f"sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\n{line}\n"
    with pytest.raises(ValueError, match=match):
        _run(tmp_path, "soliton", text)
    assert not (tmp_path / "out").exists()


class _Recording(dict):
    """A config that records the keys the CLI reads from it."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class _Reached(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Reached


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_cli_passes_on_every_listed_key(tmp_path, monkeypatch, command):
    required, optional = CONFIG_KEYS[command]
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {VALID[key]}\n" for key in required + optional))
    cfg = _Recording(_load_config(path, command))
    monkeypatch.setattr(cli, "_load_config", lambda *args: cfg)
    monkeypatch.setattr(cli, "snapshots", _stop)
    monkeypatch.setattr(cli, "traveling_wave_check", _stop)
    monkeypatch.setattr(cli, "write_field", lambda *args: None)
    Q = ComplexField(Grid(1, 64, 20.0), np.zeros(64))
    solved = SolitonResult(Q, [0.0], [1.0], converged=True)
    monkeypatch.setattr(cli, "petviashvili_solve", lambda *args: solved)
    for name in exp.__all__:
        if name.startswith("run_"):
            monkeypatch.setattr(exp, name, _stop)
    with pytest.raises(_Reached):
        main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert cfg.read == set(required + optional)


# A valid value for every key that differs from its consumer's default, so
# that a key the CLI drops arrives as that default and fails the test below.
NONDEFAULT = {
    "d": "2", "sigma": "0.7", "p": "5", "mu": "-1", "nu": "0.5", "n": "32", "L": "24",
    "t_end": "0.2", "dt": "0.02", "profile_width": "1.5", "profile_amplitude": "0.5",
    "snapshot_stride": "3", "mass_drift_guard": "1e-7", "omega": "1.5", "v": "0.5, 0.25",
    "gamma": "1.8", "max_iter": "50", "tol": "1e-9", "seed_width": "0.8", "N_list": "2, 8",
    "t_grid": "4, 8, 16", "nu_list": "0.2, 0.15, 0.1", "t_eval": "0.3", "k": "2",
    "hs_track": "0.4", "n_x": "128", "L_x": "50", "n_y": "64", "dt_x": "0.005",
    "dt_y": "0.004", "a": "0.8", "a_prime": "0.7", "alpha": "1.5", "s": "-0.05",
    "epsilon": "4", "t_scan_max": "30", "L_y": "30", "max_n_x": "4096",
    "true_evolution": "true", "amplitude_list": "1e-3, 2e-3", "windows": "0.05:0.1, 0.1:0.2",
}

# The library callable that takes each subcommand's keyword keys.
CONSUMERS = {
    "evolve": EvolveConfig,
    "soliton": SolitonConfig,
    "dispersive": exp.run_dispersive_decay,
    "small-dispersion": exp.run_small_dispersion,
    "galilean": exp.run_galilean_error,
    "decohere": exp.run_decoherence,
    "scatter": exp.run_scattering_probe,
}


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_every_config_key_reaches_its_consumer(tmp_path, monkeypatch, command):
    required, optional = CONFIG_KEYS[command]
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {NONDEFAULT[key]}\n" for key in required + optional))
    cfg = _load_config(path, command)
    calls = {}

    def record(name, result=None):
        def call(*args, **kwargs):
            calls[name] = args, kwargs
            if result is None:
                raise _Reached
            return result

        return call

    Q = ComplexField(Grid(1, 64, 20.0), np.zeros(64))
    monkeypatch.setattr(cli, "snapshots", record("run"))
    solved = SolitonResult(Q, [0.0], [1.0], converged=True)
    monkeypatch.setattr(cli, "petviashvili_solve", record("run", solved))
    monkeypatch.setattr(cli, "traveling_wave_check", record("check"))
    for name in exp.__all__:
        if name.startswith("run_"):
            monkeypatch.setattr(exp, name, record("run"))
    with pytest.raises(_Reached):
        main([command, "--config", str(path), "--out", str(tmp_path / "out")])

    args, named = calls["run"]
    profile = ProfileSpec(cfg.get("profile_width", 1.0), cfg.get("profile_amplitude", 1.0))
    if command == "evolve":
        u0, run = args
        named = vars(run)
        params, grid = run.params, u0.grid
        assert np.array_equal(u0.values, profile.realize(grid).values)
    elif command == "soliton":
        scfg, seed = args
        named = {**vars(scfg), **dict(zip(("t_end", "dt"), calls["check"][0][2:]))}
        params, grid = scfg.params, seed.grid
        seeded = ProfileSpec(width=cfg["seed_width"]).realize(grid)
        assert np.array_equal(seed.values, seeded.values)
    elif command == "dispersive":
        params, grid = None, named["grid"]  # d and sigma are keywords here
    else:
        (given_profile, params), grid = args, named.get("grid")
        assert given_profile == profile
    for key in required + optional:
        if key in ("n", "L"):
            assert getattr(grid, key) == getattr(Grid(cfg["d"], cfg["n"], cfg["L"]), key)
        elif key in ("d", "sigma", "p", "mu", "nu") and params is not None:
            assert getattr(params, key) == cfg[key], key
        elif key not in ("profile_width", "profile_amplitude", "seed_width"):
            assert named[key] == cfg[key], key
    # Every value differs from the default its consumer would take instead.
    defaults = inspect.signature(CONSUMERS[command]).parameters
    for key in set(cfg) & set(named) & set(defaults):
        assert defaults[key].default != cfg[key], key
    model, spec = (inspect.signature(c).parameters for c in (ModelParams, ProfileSpec))
    for key in set(cfg) & {"mu", "nu"}:
        assert model[key].default != cfg[key], key
    for key in set(cfg) & {"profile_width", "profile_amplitude"}:
        assert spec[key.removeprefix("profile_")].default != cfg[key], key
    assert cfg["d"] != 1  # the CLI's default


# A runner keyword that no config key reaches is a knob only tests can turn.
@pytest.mark.parametrize("command", sorted(cli.EXPERIMENTS))
def test_every_runner_keyword_is_a_config_key(command):
    required, optional = CONFIG_KEYS[command]
    reached = set(required + optional) | {"profile", "params", "grid"}
    assert set(inspect.signature(CONSUMERS[command]).parameters) - reached == set()


TOKENS = [
    "1", "-1", "64", "64.5", "0.75", "1e-3", "1e400", "1" + "0" * 400, "nan", "inf",
    "true", "yes", "nope", "5:10", "5:x", ":", "1:2:3", "",
]
VALUES = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=3).map(", ".join), st.text(max_size=12)
)
LINES = st.lists(
    st.tuples(st.sampled_from(sorted(KEY_TYPES) + ["bogus"]), VALUES).map(" = ".join),
    max_size=6,
)


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.cfg"


@given(
    command=st.sampled_from(sorted(CONFIG_KEYS)),
    with_required=st.booleans(),
    text=st.one_of(LINES.map("\n".join), st.text()),
)
def test_load_config_returns_typed_values_or_raises_value_error(
    cfg_path, command, with_required, text
):
    required, optional = CONFIG_KEYS[command]
    prefix = "".join(f"{key} = {VALID[key]}\n" for key in required) if with_required else ""
    cfg_path.write_text(prefix + text, encoding="utf-8")
    try:
        cfg = _load_config(cfg_path, command)
    except ValueError:
        return
    assert set(required) <= set(cfg) <= set(required + optional)
    for value in cfg.values():
        assert type(value) in (int, float, bool, tuple)
