#!/usr/bin/env python3
"""Record the reference outputs the benchmark's checks compare against.

    python3 bench/record_reference.py

Runs the task of every workload that has a `summary` for each of the
VARIANTS inputs at both sizes, with the fnls of ./src, and writes
bench/reference.json. Re-record only when fnls is meant to change its
results; a change that claims only speed must pass against the old file.
"""

import json
import os
import shutil
import sys

import run

run.cap_threads()
run.import_fnls()

import workloads  # noqa: E402


def main():
    refs = {}
    workdir = os.path.join(run.OUT_DIR, f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for wl in (workloads.Evolve3D(), workloads.Norms2D()):
            for size in ("full", "tiny"):
                for variant in range(workloads.VARIANTS):
                    state = wl.setup(variant, size, workdir)
                    out = wl.run(state)
                    refs.setdefault(wl.name, {}).setdefault(size, {})[str(variant)] = wl.summary(state, out)
                    wl.cleanup(out)
                    print(wl.name, size, variant, file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
