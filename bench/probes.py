"""Per-layer probe rows: microseconds per call of single fnls operations.

Each operation is timed at the three grid sizes the laboratory uses,
through public functions only. One Strang step is timed through `evolve`
with a stride larger than the run, as the difference between a long and a
short run divided by the extra steps, so the two snapshots `evolve` always
takes cancel out.
"""

import statistics
import time

import numpy as np

import fnls
from fnls.spectral import fft, field_from_spectrum
from fnls.symbols import LinearPropagator, evaluate_symbol

SIGMA, P, MU, DT = 0.75, 3, 1, 1e-3

SIZES = {
    "1d4096": (1, 4096, 128 * np.pi),
    "2d256": (2, 256, 32 * np.pi),
    "3d64": (3, 64, 16 * np.pi),
}

# Extra Strang steps timed per size: about 0.2 s of work each.
EXTRA_STEPS = {"1d4096": 400, "2d256": 24, "3d64": 4}

OPS = (
    "fft_pair",
    "linear_propagate",
    "nonlinear_phase",
    "strang_step",
    "snapshot_diagnostics",
    "evaluate_symbol",
    "sobolev_norm",
)


def _per_call_us(fn, budget_s):
    """Median of single-call times over at least 3 calls and ~budget_s."""
    times = []
    start = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _strang_step_us(u, params, extra, repeats=3):
    def run(steps):
        cfg = fnls.EvolveConfig(params, t_end=steps * DT, dt=DT, snapshot_stride=10**9)
        t0 = time.perf_counter()
        fnls.evolve(u, cfg)
        return time.perf_counter() - t0

    short = statistics.median(run(1) for _ in range(repeats))
    long = statistics.median(run(1 + extra) for _ in range(repeats))
    return max(long - short, 0.0) / extra * 1e6


def probe_rows(budget_s):
    """{"probe.<op>.<size>.us": value}; roughly budget_s seconds in total."""
    per_row = budget_s / (len(SIZES) * len(OPS))
    rows = {}
    for size, (d, n, L) in SIZES.items():
        grid = fnls.Grid(d, n, L)
        u = fnls.gaussian(grid, width=2.0)
        params = fnls.ModelParams(d, SIGMA, P, MU, 1.0)
        ops = {
            "fft_pair": lambda: field_from_spectrum(grid, fft(u)),
            "linear_propagate": lambda: fnls.linear_propagate(u, DT, SIGMA),
            "nonlinear_phase": lambda: fnls.nonlinear_phase(u, DT, MU, P),
            "snapshot_diagnostics": lambda: (fnls.mass(u), fnls.energy(u, SIGMA, MU, P)),
            "evaluate_symbol": lambda: evaluate_symbol(LinearPropagator(DT / 2, SIGMA), grid),
            "sobolev_norm": lambda: fnls.sobolev_norm(u, 0.5),
        }
        for op in OPS:
            if op == "strang_step":
                us = _strang_step_us(u, params, EXTRA_STEPS[size])
            else:
                us = _per_call_us(ops[op], per_row)
            rows[f"probe.{op}.{size}.us"] = us
    return rows
