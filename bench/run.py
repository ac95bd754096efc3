#!/usr/bin/env python3
"""Benchmark harness for fnls: end-to-end task times and per-layer spans.

Run from the repository root; the harness imports fnls from ./src and
nothing else of the repository.

    python3 bench/run.py --workload evolve-3d --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --out bench/results/BENCH_x.json

One run is one process and one thread of work. It sets the workload up,
then repeats the workload's task for --seconds (closed loop, one task at
a time, each task's output checked) and prints human-readable lines, an
`env` line, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: task_s.p50 (median wall time of
one task), setup_s (median wall time of a fresh process that imports fnls
and builds the workload's grid and inputs), peak_rss_mib (ru_maxrss of the
run's process) and success_ratio (1 - failed_ratio, where failed_ratio is
failed tasks / attempted; an exception or a failed output check counts).

--trace 1 reports the per-layer metrics: probe rows (us per call of single
operations at 1d4096, 2d256 and 3d64), then untraced and traced tasks.
Traced tasks run with every public fnls function wrapped (see spans.py);
counts and self times are per traced task. trace.overhead_ratio is the
traced over the untraced task median. Spans are written to
.bench_out/spans-<workload>-s<seed>.csv.gz.

--workload all runs every workload, each in its own process, with tracing
off and then on, prints each end-to-end metric by name and unit, and with
--out writes the whole record (environment included) as JSON.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("evolve-3d", "scatter-1d", "norms-2d", "soliton-2d")
SETUP_REPEATS = 7
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
NOTES = [
    "A 64^3 complex128 field is 4 MiB and fits in the last-level cache, so no "
    "memory-bandwidth figure is claimed.",
    "io times write and read through the page cache, not a disk.",
    "Per-layer counts and self times are means per traced task.",
]

CALLS_AND_SELF = (
    "grid.ComplexField",
    "symbols.evaluate_symbol",
    "observables.mass",
    "observables.energy",
    "observables.spacetime_norm",
    "observables.scattering_defect",
    "observables.duhamel_defect_increments",
    "spectral.apply_multiplier",
    "spectral.sobolev_norm",
    "spectral.littlewood_paley_project",
    "spectral.spatial_shift",
    "io.write_field",
    "io.read_field",
)
SELF_ONLY = (
    "evolution.evolve",
    "soliton.petviashvili_solve",
    "soliton.soliton_residual",
    "soliton.traveling_wave_check",
    "cli.main",
    "config.load_config",
    "experiments.run_scattering_probe",
)
LAYER_TOTALS = ("evolution", "observables", "spectral", "symbols")
COUNTERS = {
    "fft.bytes_computed": "B",
    "evolution.steps": "count",
    "evolution.snapshots": "count",
    "soliton.iters": "count",
    "io.write_field.bytes": "B",
    "io.read_field.bytes": "B",
}


def cap_threads():
    """Cap BLAS/OpenMP thread pools at one thread (before numpy loads).

    One thread is within nproc on any machine, and keeps a run one thread
    of work: uncapped, OpenBLAS runs the ddot inside np.linalg.norm on two
    threads and spins them between calls.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {var: 1 for var in THREAD_VARS}


def import_fnls():
    """Put ./src first on sys.path; refuse to run against any other fnls."""
    if not os.path.isfile(os.path.join(SRC, "fnls", "__init__.py")):
        sys.exit(f"error: {SRC}/fnls not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import fnls

    if not os.path.abspath(fnls.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported fnls from {fnls.__file__}, not {SRC}")
    return fnls


def git_sha():
    """HEAD of ./.git if the checkout is a git repository, else 'unknown'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(args, thread_caps):
    from importlib import metadata

    import numpy

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines() if ln.startswith("model name")),
        "unknown",
    )
    caches = "/sys/devices/system/cpu/cpu0/cache"
    levels = []
    for entry in sorted(os.listdir(caches)) if os.path.isdir(caches) else []:
        level = _read(os.path.join(caches, entry, "level")).strip()
        if level.isdigit():
            levels.append((int(level), _read(os.path.join(caches, entry, "size")).strip()))
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "llc_size": max(levels)[1] if levels else "unknown",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "fft_backend": "scipy.fft" if "scipy.fft" in sys.modules else "numpy.fft (pocketfft)",
        "thread_caps": thread_caps,
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "notes": NOTES,
    }


def measure_setup(args):
    """Median wall time of SETUP_REPEATS fresh processes doing only the set-up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"error: set-up failed:\n{proc.stderr}")
    return statistics.median(times)


class Loop:
    """Closed loop of tasks: run, time, check; stop before overrunning a budget.

    At least `min_tasks` run, so that a median can discard one slow task.
    """

    def __init__(self, workload, state):
        self.workload, self.state = workload, state
        self.attempted = self.failed = 0
        self.task_times = []

    def run(self, budget_s, tracer=None, min_tasks=1):
        times = []
        start = time.perf_counter()
        while True:
            times.append(self._one(tracer))
            self.task_times.append(times[-1])
            over = time.perf_counter() - start + statistics.median(times) > budget_s
            if over and len(times) >= min_tasks:
                return times

    def _one(self, tracer):
        self.attempted += 1
        run = self.workload.run
        if tracer is not None:
            tracer.task = self.attempted
            tracer.install()
            run = tracer.wrap("task", run)
        out, errors = None, []
        t0 = time.perf_counter()
        try:
            out = run(self.state)
        except Exception as exc:  # a failing task is counted, not fatal
            errors = [f"{type(exc).__name__}: {exc}"]
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if out is not None:
            try:
                errors = self.workload.check(self.state, out)
            except Exception as exc:
                errors = [f"check raised {type(exc).__name__}: {exc}"]
            finally:
                self.workload.cleanup(out)
        if errors:
            self.failed += 1
            for err in errors:
                print(f"task {self.attempted} failed: {err}", file=sys.stderr)
        return elapsed


def layer_metrics(tracer, n_tasks):
    table = tracer.layer_table()

    def calls(name):
        return table.get(name, (0, 0.0))[0] / n_tasks

    def self_s(name):
        return table.get(name, (0, 0.0))[1] / n_tasks

    m = {"fft.calls": (calls("fft"), "count"), "fft.self_s": (self_s("fft"), "s")}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = (self_s(name), "s")
    for layer in LAYER_TOTALS:
        total = sum(s for n, (_, s) in table.items() if n.startswith(layer + "."))
        m[f"{layer}.self_s"] = (total / n_tasks, "s")
    for name, unit in COUNTERS.items():
        m[name] = (tracer.counters[name] / n_tasks, unit)
    n_sym = table.get("symbols.evaluate_symbol", (0, 0.0))[0]
    m["symbols.evaluate_symbol.unique_ratio"] = (len(tracer.symbol_keys) / n_sym if n_sym else 0.0, "ratio")
    return m


def single_run(args):
    thread_caps = cap_threads()
    import_fnls()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    if args.setup_only:
        wl.setup(args.seed, args.size, workdir)
        return 0

    metrics = {}
    setup_s = measure_setup(args)
    os.makedirs(workdir, exist_ok=True)
    try:
        state = wl.setup(args.seed, args.size, workdir)
        loop = Loop(wl, state)
        if args.trace == 0:
            times = loop.run(args.seconds, min_tasks=3)
            metrics["task_s.p50"] = (statistics.median(times), "s")
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
            metrics["success_ratio"] = (1 - loop.failed / loop.attempted, "ratio")
            env = environment(args, thread_caps)
        else:
            import probes
            from spans import Tracer

            for name, us in probes.probe_rows(0.2 * args.seconds).items():
                metrics[name] = (us, "us")
            plain = loop.run(0.35 * args.seconds)
            env = environment(args, thread_caps)
            tracer = Tracer()
            traced = loop.run(0.35 * args.seconds, tracer)
            metrics.update(layer_metrics(tracer, len(traced)))
            metrics["trace.task_s.p50"] = (statistics.median(traced), "s")
            metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
            tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-s{args.seed}.csv.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_ratio = {loop.failed / loop.attempted:.6g} ({loop.failed}/{loop.attempted})")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(dict(result, env=env, task_times=loop.task_times), fh, indent=1)
    print(json.dumps(result))
    return 0


def all_runs(args):
    """Every workload, each in its own process, tracing off then on."""
    record = {"seed": args.seed, "seconds": args.seconds, "size": args.size, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        entry = record["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
            record["env"] = {k: v for k, v in env.items() if k != "workload"}
            key = "end_to_end" if trace == 0 else "per_layer"
            entry[key] = result["metrics"]
            entry[f"{key}_tasks"] = {k: result[k] for k in ("correct", "attempted", "failed")}
        tasks = entry.get("end_to_end_tasks")
        for metric, m in entry.get("end_to_end", {}).items():
            print(f"{name:<11} {metric:<14} {m['value']:>12.6g} {m['unit']}")
        if tasks:
            ratio = tasks["failed"] / tasks["attempted"]
            print(f"{name:<11} {'failed_ratio':<14} {ratio:>12.6g} ({tasks['failed']}/{tasks['attempted']})")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(record, sort_keys=True))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every grid, for the smoke test")
    parser.add_argument("--out", help="with --workload all: write the record here")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        import_fnls()  # fail fast outside a checkout
        return all_runs(args)
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
