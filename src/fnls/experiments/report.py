"""Experiment reports: raw series, log-log fits and pass/fail bookkeeping."""

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np


def loglog_fit(x, y):
    """Least-squares slope/intercept of log y vs log x with residual.

    Returns (slope, intercept, residual) where residual is the RMS of the
    log-domain misfit. Requires at least 3 points.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("log-log fit needs at least 3 points")
    lx, ly = np.log(x), np.log(y)
    A = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, ly, rcond=None)
    rms = float(np.sqrt(np.mean((A @ [slope, intercept] - ly) ** 2)))
    return float(slope), float(intercept), rms


def sweep(values, key, least, use, upper=math.inf):
    """The sweep's values in increasing order: at least `least` of them (`use`
    says what for), each finite, in (0, upper] and given once, or ValueError
    naming key. Runners call it before their first run and any output.
    """
    # Plain Python numbers: an int stays an int, so fit keys keep their names.
    values = sorted(v.item() if isinstance(v, np.generic) else v for v in values)
    bound = "finite" if upper == math.inf else f"at most {upper:g}"
    for value in values:
        if not (math.isfinite(value) and 0 < value <= upper):
            raise ValueError(f"{key} entries must be positive and {bound}; got {value:g}")
    if len(values) < least:
        raise ValueError(f"{key} needs at least {least} values {use}; got {len(values)}")
    for lo, hi in zip(values, values[1:]):
        if lo == hi:
            raise ValueError(f"{key} entries must differ; got {lo:g} twice")
    return values


@dataclass
class ExperimentReport:
    name: str
    inputs: dict = field(default_factory=dict)
    series: list = field(default_factory=list)  # list of row dicts
    fits: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # name -> bool

    @property
    def passed(self):
        return all(self.checks.values())

    def add_row(self, **row):
        self.series.append(row)

    def summary_lines(self):
        lines = [f"experiment: {self.name}"]
        for k in sorted(self.inputs):
            lines.append(f"input {k} = {self.inputs[k]}")
        for k in sorted(self.fits):
            lines.append(f"fit {k} = {self.fits[k]:.6g}")
        for k, ok in self.checks.items():
            lines.append(f"check {k}: {'PASS' if ok else 'FAIL'}")
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines

    def write(self, outdir):
        os.makedirs(outdir, exist_ok=True)
        if self.series:
            keys = list(self.series[0].keys())
            with open(os.path.join(outdir, "report.csv"), "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=keys)
                writer.writeheader()
                writer.writerows(self.series)
        with open(os.path.join(outdir, "summary.txt"), "w") as fh:
            fh.write("\n".join(self.summary_lines()) + "\n")
