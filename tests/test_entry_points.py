"""End-to-end CLI runs on small configs, each pinned by the bound it must meet.

Every test calls `cli.main` as the `fnls` console script would, writes its
outputs under `tmp_path`, and reads back the files the subcommand wrote.
"""

import ast
import csv
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fnls
from fnls.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(tmp_path, command, text, out="out"):
    cfg = tmp_path / f"{out}.cfg"
    cfg.write_text(text)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
    return tmp_path / out


def _column(path, key):
    with open(path, newline="") as fh:
        return [float(row[key]) for row in csv.DictReader(fh)]


@pytest.mark.parametrize(
    "text, q, r",
    [
        (
            "sigma = 0.75\np = 3\nn = 64\nL = 20\n"
            "t_end = 0.05\ndt = 0.004\nsnapshot_stride = 5\n",
            6,
            6,
        ),
        (
            "d = 3\nsigma = 0.75\np = 3\nn = 16\nL = 8, 12, 10\n"
            "t_end = 0.02\ndt = 0.005\nsnapshot_stride = 2\n",
            4,
            3,
        ),
    ],
    ids=["1d", "3d"],
)
def test_evolve_then_tilde_norms(tmp_path, text, q, r):
    run = _run(tmp_path, "evolve", text)
    argv = ["norms", "--traj", str(run), "--q", str(q), "--r", str(r), "--sigma", "0.75"]
    assert main(argv + ["--variant", "TILDE"]) == 0
    (value,) = _column(run / "norms.csv", "value")
    assert math.isfinite(value) and value > 0


def test_soliton_converges_within_25_iterations(tmp_path):
    out = _run(tmp_path, "soliton", "sigma = 0.75\np = 3\nmu = -1\nn = 256\nL = 32\nt_end = 0.05\n")
    lines = (out / "summary.txt").read_text().splitlines()
    assert "converged: True" in lines
    (iterations,) = [int(line.split(": ")[1]) for line in lines if line.startswith("iterations: ")]
    assert iterations <= 25


def test_soliton_that_does_not_converge_exits_nonzero_after_writing(tmp_path):
    cfg = tmp_path / "sol.cfg"
    cfg.write_text("sigma = 0.75\np = 3\nmu = -1\nn = 256\nL = 32\nmax_iter = 2\n")
    out = tmp_path / "out"
    assert main(["soliton", "--config", str(cfg), "--out", str(out)]) == 1
    lines = (out / "summary.txt").read_text().splitlines()
    assert "converged: False" in lines
    rows = len(_column(out / "residuals.csv", "residual"))
    assert f"iterations: {rows}" in lines and rows >= 2


def _readme_example(name):
    """The text of README's example config `name`."""
    pattern = rf"Example \(`{re.escape(name)}`\):\n\n```ini\n(.*?)```"
    (text,) = re.findall(pattern, README.read_text(), re.S)
    return text


def test_readme_scatter_example_prints_its_phase_bound(tmp_path, capsys):
    out = _run(tmp_path, "scatter", _readme_example("sc.cfg"))
    printed = capsys.readouterr().out.splitlines()
    (line,) = [line for line in printed if line.startswith("input phase_bound = ")]
    assert line in (out / "summary.txt").read_text().splitlines()
    # Amplitude 1e-3 at p = 7 turns no sample by more than 2^-53.
    (theta,) = ast.literal_eval(line.split(" = ")[1])
    assert 0 < theta <= np.finfo(float).eps / 2


def test_readme_soliton_example_converges_to_its_traveling_wave(tmp_path):
    out = _run(tmp_path, "soliton", _readme_example("sol.cfg"))
    lines = (out / "summary.txt").read_text().splitlines()
    assert "converged: True" in lines
    (line,) = [line for line in lines if line.startswith("traveling-wave mismatch at t=1.0: ")]
    assert float(line.split(": ")[1]) < 1e-5


def _readme_code_spans():
    return re.findall(r"`([^`]*)`", README.read_text())


def test_readme_names_every_public_name():
    words = {word for span in _readme_code_spans() for word in re.findall(r"\w+", span)}
    assert sorted(set(fnls.__all__) - words) == []


def _resolve(dotted):
    """The object a dotted fnls name denotes: its longest importable module, then attributes."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part)
        return obj


def test_readme_dotted_names_resolve():
    cited = set(re.findall(r"(?<![\w.])fnls(?:\.\w+)+", README.read_text()))
    assert len(cited) >= 10
    for dotted in sorted(cited):
        assert _resolve(dotted) is not None, dotted


def test_readme_names_every_file_a_subcommand_writes(tmp_path):
    run = _run(tmp_path, "evolve", "sigma = 0.75\np = 3\nn = 64\nL = 20\nt_end = 0.02\n", "run")
    assert main(["norms", "--traj", str(run), "--q", "6", "--r", "6", "--sigma", "0.75"]) == 0
    _run(tmp_path, "soliton", "sigma = 0.75\np = 3\nmu = -1\nn = 64\nL = 20\n", "sol")
    cfg = tmp_path / "sc.cfg"
    cfg.write_text(
        "sigma = 0.75\np = 7\nn = 64\nL = 20\nt_end = 0.4\nwindows = 0.1:0.2, 0.2:0.4\n"
    )
    main(["scatter", "--config", str(cfg), "--out", str(tmp_path / "sc")])  # any verdict
    written = {
        re.sub(r"\d{5}", "#####", path.name)
        for out in (run, tmp_path / "sol", tmp_path / "sc")
        for path in out.iterdir()
    }
    assert written == {
        "diagnostics.csv", "snap_#####.fnls", "norms.csv", "Q.fnls", "residuals.csv",
        "report.csv", "summary.txt",
    }
    spans = set(_readme_code_spans())
    assert sorted(written - spans) == []


def test_small_dispersion_evolve_conserves_the_energy(tmp_path):
    text = (
        "sigma = 0.75\np = 3\nnu = 0.5\nn = 64\nL = 20\n"
        "t_end = 0.2\ndt = 0.004\nsnapshot_stride = 5\n"
    )
    energies = _column(_run(tmp_path, "evolve", text) / "diagnostics.csv", "energy")
    assert len(energies) == 11
    drift = max(abs(e - energies[0]) / abs(energies[0]) for e in energies)
    assert drift <= 1e-6


def test_small_dispersion_scatter_direct_defect_stays_at_roundoff(tmp_path):
    text = (
        "sigma = 0.75\np = 7\nnu = 0.5\nn = 512\nL = 100.53096491487338\n"
        "t_end = 4\ndt = 0.04\namplitude_list = 1e-3\nwindows = 1:2, 2:4\n"
    )
    out = _run(tmp_path, "scatter", text)
    assert max(_column(out / "report.csv", "defect_direct")) < 1e-12
    assert "input scheme = blanes_moan4" in (out / "summary.txt").read_text().splitlines()
