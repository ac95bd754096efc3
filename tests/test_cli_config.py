"""The CLI's config table: strict typing, required keys, and what each subcommand reads."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fnls.cli as cli
import fnls.experiments as exp
from fnls.cli import CONFIG_KEYS, KEY_TYPES, _load_config, main
from fnls.config import load_config
from fnls.errors import RegimeError
from fnls.grid import ComplexField, Grid
from fnls.soliton import SolitonResult

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
    "true_evolution": "false", "amplitude_list": "1e-3", "windows": "1:2, 2:3",
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
    "decohere": "sigma = 0.75\np = 3\n",
    "dispersive": "sigma = 0.75\n",
    "scatter": "sigma = 0.75\np = 7\n",
}


def _base_with(command, line):
    """(key, config text): BASE[command] with line in place of its key's own line."""
    key = line.split(" = ")[0]
    base = [row for row in BASE[command].splitlines() if not row.startswith(key + " ")]
    return key, "\n".join(base + [line]) + "\n"


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


# Each is rejected by the library, after the config parses; without
# --save-fields the run writes nothing before its report.
@pytest.mark.parametrize(
    "command, line, error, match",
    [
        ("evolve", "snapshot_stride = 0", ValueError, "snapshot stride must be a whole number"),
        ("evolve", "dt = 1.0", ValueError, "dt must not exceed t_end"),
        ("scatter", "p = 3", RegimeError, "scattering probe needs"),
        ("decohere", "a = 2", ValueError, "a, a' must lie in"),
    ],
    ids=["evolve-stride-0", "evolve-dt-above-t_end", "scatter-p-3", "decohere-a-2"],
)
def test_a_rejected_config_leaves_no_out_behind(tmp_path, command, line, error, match):
    with pytest.raises(error, match=match):
        _run(tmp_path, command, _base_with(command, line)[1])
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


def test_soliton_rejects_a_dt_beyond_t_end_before_writing(tmp_path):
    text = "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\nt_end = 0.0005\ndt = 0.001\n"
    with pytest.raises(ValueError, match="'dt' for soliton must not exceed 't_end'"):
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
