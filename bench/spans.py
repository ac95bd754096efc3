"""Span tracing of fnls from outside the package.

`Tracer.install()` replaces every public function of every loaded fnls
module with a timing wrapper, at each name a caller binds it to (so
`fnls.evolution.energy` is wrapped as well as `fnls.observables.energy`),
and does the same for the FFT entry points of `numpy.fft` and `scipy.fft`
so that a backend switch stays counted. `ComplexField.__init__` is
wrapped too, which times construction and its finiteness scan.
`uninstall()` puts every original back.

Spans (name, start, end, parent, task id) stay in memory; `layer_table()`
turns them into per-name call counts and self time, where self time is a
span's duration minus the time covered by its direct children.
"""

import csv
import gzip
import os
import sys
import time
import types
from collections import defaultdict

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2", "rfft", "irfft", "rfftn", "irfftn")


def _layer(module_name):
    """fnls.observables -> observables; fnls.experiments.scattering -> experiments."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _file_bytes(path):
    return os.path.getsize(path) if os.path.exists(path) else 0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (name id, start, end, parent span index or -1, task id)
        self.counters = defaultdict(float)
        self.symbol_keys = set()
        self.task = -1
        self._stack = [-1]
        self._patches = []

    # ------------------------------------------------------------ spans
    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        """Return fn wrapped in a span called `name`.

        `count(args, kwargs, result)` may add to `self.counters`.
        """
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.task)
            if count is not None:
                count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------ counters
    def _count_fft(self, args, kwargs, result):
        x = args[0] if args else kwargs.get("x")
        self.counters["fft.bytes_computed"] += getattr(x, "nbytes", 0)

    def _count_symbol(self, args, kwargs, result):
        spec, grid = args[0], args[1]
        try:
            self.symbol_keys.add((self.task, spec, grid))
        except TypeError:
            self.symbol_keys.add((self.task, repr(spec), repr(grid)))

    def _count_evolve(self, args, kwargs, result):
        import fnls.evolution as ev

        u0 = args[0]
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        dt = cfg.dt if cfg.dt is not None else ev.default_dt(u0.grid, cfg.params, cfg.t_end)
        n_full = int(cfg.t_end / dt + 1e-12) if cfg.t_end > 0 else 0
        remainder = cfg.t_end - n_full * dt
        self.counters["evolution.steps"] += n_full + (1 if remainder > 1e-12 * dt else 0)
        self.counters["evolution.snapshots"] += len(result.times)

    def _count_soliton(self, args, kwargs, result):
        self.counters["soliton.iters"] += len(result.residual_history)

    def _count_write(self, args, kwargs, result):
        self.counters["io.write_field.bytes"] += _file_bytes(args[0])

    def _count_read(self, args, kwargs, result):
        self.counters["io.read_field.bytes"] += _file_bytes(args[0])

    # ------------------------------------------------------------ patching
    def _targets(self):
        """Map id(original function) -> (original, wrapper)."""
        counts = {
            "symbols.evaluate_symbol": self._count_symbol,
            "evolution.evolve": self._count_evolve,
            "soliton.petviashvili_solve": self._count_soliton,
            "io.write_field": self._count_write,
            "io.read_field": self._count_read,
        }
        targets = {}
        for mod in self._fnls_modules():
            for attr, value in vars(mod).items():
                if (
                    isinstance(value, types.FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == mod.__name__
                ):
                    name = f"{_layer(mod.__name__)}.{attr}"
                    targets[id(value)] = (value, self.wrap(name, value, counts.get(name)))
        for mod in self._fft_modules():
            for attr in FFT_NAMES:
                fn = getattr(mod, attr, None)
                if fn is not None and id(fn) not in targets:
                    targets[id(fn)] = (fn, self.wrap("fft", fn, self._count_fft))
        return targets

    @staticmethod
    def _fnls_modules():
        return [m for n, m in list(sys.modules.items()) if (n == "fnls" or n.startswith("fnls.")) and m]

    @staticmethod
    def _fft_modules():
        import numpy.fft

        mods = [numpy.fft]
        try:
            import scipy.fft

            mods.append(scipy.fft)
        except ImportError:
            pass
        return mods

    def install(self):
        from fnls.grid import ComplexField

        targets = self._targets()
        for mod in self._fnls_modules() + self._fft_modules():
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        init = ComplexField.__init__
        self._patches.append((ComplexField, "__init__", init))
        ComplexField.__init__ = self.wrap("grid.ComplexField", init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results
    def layer_table(self):
        """{name: (calls, self seconds)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i, (nid, t0, t1, _, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[i]
        return {n: (calls[n], self_s[n]) for n in calls}

    def write(self, path):
        """Write every span as gzip'd CSV: name,start,end,parent,task."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "task"])
            for nid, t0, t1, parent, task in self.spans:
                w.writerow([self.names[nid], f"{t0:.9f}", f"{t1:.9f}", parent, task])
