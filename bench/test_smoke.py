"""Smoke test of the benchmark harness at tiny grid sizes.

    python3 -m pytest bench/test_smoke.py

Runs every workload through `run.py --workload all --size tiny` and checks
that each workload appears in the output with exactly the metrics that
BENCHMARK.json names, each with its unit, plus the printed failed_ratio
and the environment record.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_every_workload_and_metric_is_reported():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--size", "tiny", "--seconds", "1", "--seed", "5"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in record["workloads"].items():
        for group in ("end_to_end", "per_layer"):
            reported = entry[group]
            assert set(reported) == {m["name"] for m in spec[group]}, (name, group)
            for metric in spec[group]:
                assert reported[metric["name"]]["unit"] == metric["unit"], (name, metric["name"])
        for metric in ("task_s.p50", "setup_s", "peak_rss_mib", "success_ratio", "failed_ratio"):
            assert any(line.split()[:2] == [name, metric] for line in proc.stdout.splitlines()), metric
    for key in ("nproc", "cpu_model", "llc_size", "python", "numpy", "scipy", "fft_backend", "git_sha", "seed"):
        assert key in record["env"], key
