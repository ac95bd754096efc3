"""End-to-end CLI runs on small configs, each pinned by the bound it must meet.

Every test calls `cli.main` as the `fnls` console script would, writes its
outputs under `tmp_path`, and reads back the files the subcommand wrote.
"""

import csv
import math

import pytest

from fnls.cli import main


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
        "t_end = 4\ndt = 0.02\namplitude_list = 1e-3\nwindows = 1:2, 2:4\n"
    )
    out = _run(tmp_path, "scatter", text)
    assert max(_column(out / "report.csv", "defect_direct")) < 1e-12
    assert "input scheme = yoshida4" in (out / "summary.txt").read_text().splitlines()
