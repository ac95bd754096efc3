"""Command-line interface.

Subcommands: exponents, evolve, norms, soliton, dispersive,
small-dispersion, galilean, decohere, scatter. Experiment configs are
plain text `key = value` files; see README for the documented keys.
"""

import argparse
import csv
import difflib
import itertools
import math
import os

from .config import load_config
from .evolution import EvolveConfig, snapshots, step_plan
from .exponents import classify_regime
from .grid import Grid
from .io import read_field, read_header, write_field
from .model import ModelParams
from .observables import PLAIN, SpacetimeNormSpec, spacetime_norm
from .profiles import ProfileSpec
from .soliton import SolitonConfig, petviashvili_solve, traveling_wave_check
from . import experiments as exp


# Parsers of fnls.config's value text: each key has one type under every
# subcommand, and text of another type is an error.
def _int(text):
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _float(text):
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # no number key has a use for nan
        raise ValueError(f"expected a number, got {text!r}")
    return value


def _bool(text):
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _window(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected a lo:hi window, got {text!r}")
    return tuple(_float(x) for x in parts)


def _list_of(item):
    return lambda text: tuple(item(x.strip()) for x in text.split(","))


def _per_axis(item):
    return lambda text: _list_of(item)(text) if "," in text else item(text)


KEY_TYPES = {
    **dict.fromkeys("d mu snapshot_stride max_iter k n_x n_y max_n_x".split(), _int),
    **dict.fromkeys(
        "sigma p nu dt profile_width profile_amplitude t_end mass_drift_guard omega gamma "
        "tol seed_width t_eval hs_track L_x dt_x dt_y a a_prime alpha s epsilon "
        "t_scan_max L_y".split(),
        _float,
    ),
    **dict.fromkeys("v N_list t_grid nu_list amplitude_list".split(), _list_of(_float)),
    "n": _per_axis(_int),
    "L": _per_axis(_float),
    "true_evolution": _bool,
    "windows": _list_of(_window),
}

# Per subcommand: (required keys, optional keys), the keys it passes on.
CONFIG_KEYS = {
    command: (tuple(required.split()), tuple(optional.split()))
    for command, required, optional in [
        ("evolve", "sigma p n L t_end",
         "d mu nu dt profile_width profile_amplitude snapshot_stride mass_drift_guard"),
        ("soliton", "sigma p n L", "d mu dt omega v gamma max_iter tol t_end seed_width"),
        ("dispersive", "sigma", "d n L N_list t_grid"),
        ("small-dispersion", "sigma p",
         "d mu n L dt profile_width profile_amplitude nu_list t_eval k hs_track"),
        ("galilean", "sigma p",
         "d mu profile_width profile_amplitude nu_list v k t_eval n_x L_x n_y dt_x dt_y"),
        ("decohere", "sigma p",
         "d mu profile_width profile_amplitude nu_list a a_prime alpha s epsilon k "
         "t_scan_max n_y L_y dt_y max_n_x true_evolution"),
        ("scatter", "sigma p",
         "d mu nu n L dt profile_width profile_amplitude amplitude_list t_end windows"),
    ]
}


def _load_config(path, command):
    """Typed config for command; unknown, mistyped and missing keys are errors."""
    required, optional = CONFIG_KEYS[command]
    known = required + optional
    cfg = {"d": 1}  # ModelParams and the runners take d without a default
    for key, value in load_config(path).items():
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(f"{path}: unknown config key {key!r} for {command}{hint}")
        try:
            cfg[key] = KEY_TYPES[key](value)
        except (ValueError, OverflowError) as err:
            raise ValueError(f"{path}: config key {key!r} for {command}: {err}") from None
    for key in required:
        if key not in cfg:
            raise ValueError(f"{path}: missing config key {key!r} for {command}")
    # A box takes n and L together; only dispersive sizes L itself from n.
    for key, other in (("L", "n"), ("n", "L")):
        if key in cfg and other not in cfg and (key, command) != ("n", "dispersive"):
            raise ValueError(f"{path}: config key {key!r} for {command} needs {other!r}")
    # Soliton's dt steps only the traveling check, which its t_end asks for.
    if command == "soliton" and "dt" in cfg and "t_end" not in cfg:
        raise ValueError(f"{path}: config key 'dt' for soliton needs 't_end'")
    return cfg


def _pick(cfg, keys):
    """The named keys the config sets; the rest take the library's defaults."""
    return {key: cfg[key] for key in keys.split() if key in cfg}


def _params_from(cfg):
    return ModelParams(**_pick(cfg, "d sigma p mu nu"))


def _grid_from(cfg):
    return Grid(cfg["d"], cfg["n"], cfg["L"]) if "L" in cfg else None


def _profile_from(cfg):
    picked = _pick(cfg, "profile_width profile_amplitude")
    return ProfileSpec(**{key.removeprefix("profile_"): v for key, v in picked.items()})


def cmd_exponents(args):
    report = classify_regime(args.d, args.p, args.sigma, args.s if args.s is not None else 0.0)
    if args.s is None:
        report.hypothesis_notes.insert(0, "no s supplied; classified at s = 0")
    for line in report.lines():
        print(line)
    print("csv:", report.csv_row())


def cmd_evolve(args):
    cfg = _load_config(args.config, args.command)
    u0 = _profile_from(cfg).realize(_grid_from(cfg))
    run = EvolveConfig(
        _params_from(cfg), **_pick(cfg, "t_end dt snapshot_stride mass_drift_guard")
    )
    rows = snapshots(u0, run)
    first = next(rows)  # the run is planned before --out is made
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "diagnostics.csv"), "w", newline="") as fh:
        # The diagnostics' keys name the columns.
        writer = csv.DictWriter(fh, fieldnames=list(first[2]))
        writer.writeheader()
        for i, (_, field, diagnostics) in enumerate(itertools.chain([first], rows)):
            writer.writerow(diagnostics)
            write_field(os.path.join(args.out, f"snap_{i:05d}.fnls"), field)
    print(f"wrote {i + 1} snapshots to {args.out}")


NORMS_HEADER = ["q", "r", "s", "sigma", "variant", "snapshots", "value"]


def cmd_norms(args):
    spec = SpacetimeNormSpec(
        q=args.q, r=args.r, s=args.s, sigma=args.sigma, variant=args.variant
    )
    path = os.path.join(args.traj, "norms.csv")
    new = not os.path.exists(path)
    if not new:  # rows are appended only under the header they belong to
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), [])
        if header != NORMS_HEADER:
            raise ValueError(
                f"{path}: header {','.join(header)!r} is not {','.join(NORMS_HEADER)!r}"
            )
    with open(os.path.join(args.traj, "diagnostics.csv")) as fh:
        times = [float(row["time"]) for row in csv.DictReader(fh)]
    if not times:
        raise ValueError(f"{args.traj}: diagnostics.csv lists no snapshots")
    paths = [os.path.join(args.traj, f"snap_{i:05d}.fnls") for i in range(len(times))]
    with open(paths[0], "rb") as fh:  # (q, r) is checked before any samples are read
        d = read_header(fh, paths[0]).d
    spec.validate(d)
    value = spacetime_norm(((t, read_field(path)) for t, path in zip(times, paths)), spec)
    print(f"spacetime norm (q={args.q:g}, r={args.r:g}, s={args.s:g}, "
          f"variant={args.variant}, d={d}): {value:.12g}")
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(NORMS_HEADER)
        writer.writerow([args.q, args.r, args.s, args.sigma, args.variant, len(times), value])


def cmd_soliton(args):
    cfg = _load_config(args.config, args.command)
    scfg = SolitonConfig(_params_from(cfg), **_pick(cfg, "omega v gamma max_iter tol"))
    seed = ProfileSpec(width=cfg.get("seed_width", 1.0 / scfg.omega)).realize(_grid_from(cfg))
    if "t_end" in cfg:  # the traveling check is planned before --out is made
        t_end = cfg["t_end"]
        dt = cfg.get("dt", min(1e-3, t_end) if t_end > 0 else 1e-3)
        try:
            step_plan(t_end, dt)
        except ValueError as err:
            raise ValueError(f"{args.config}: soliton's traveling check: {err}") from None
    result = petviashvili_solve(scfg, seed)
    lines = [
        f"converged: {result.converged}",
        f"iterations: {len(result.residual_history)}",
        f"final residual: {min(result.residual_history):.6e}",
        f"symbol min: {result.symbol_min:.6e}",
    ]
    if result.converged and "t_end" in cfg:
        mismatch = traveling_wave_check(result, scfg, t_end, dt)
        lines.append(f"traveling-wave mismatch at t={t_end}: {mismatch:.6e}")
    os.makedirs(args.out, exist_ok=True)  # a failed solve or check leaves no --out
    write_field(os.path.join(args.out, "Q.fnls"), result.Q)
    with open(os.path.join(args.out, "residuals.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "residual", "M_n"])
        for i, (r, m) in enumerate(
            zip(result.residual_history, result.stabilization_history)
        ):
            writer.writerow([i, r, m])
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if result.converged else 1


# Each experiment subcommand's runner, called with the config.
EXPERIMENTS = {
    "dispersive": lambda cfg: exp.run_dispersive_decay(
        grid=_grid_from(cfg), **_pick(cfg, "d sigma n N_list t_grid")
    ),
    "small-dispersion": lambda cfg: exp.run_small_dispersion(
        _profile_from(cfg), _params_from(cfg), grid=_grid_from(cfg),
        **_pick(cfg, "nu_list t_eval k dt hs_track"),
    ),
    "galilean": lambda cfg: exp.run_galilean_error(
        _profile_from(cfg), _params_from(cfg),
        **_pick(cfg, "nu_list v k t_eval n_x L_x n_y dt_x dt_y"),
    ),
    "decohere": lambda cfg: exp.run_decoherence(
        _profile_from(cfg), _params_from(cfg), **_pick(
            cfg, "nu_list a a_prime alpha s epsilon k t_scan_max n_y L_y dt_y max_n_x "
            "true_evolution"
        ),
    ),
    "scatter": lambda cfg: exp.run_scattering_probe(
        _profile_from(cfg), _params_from(cfg), grid=_grid_from(cfg),
        **_pick(cfg, "amplitude_list t_end dt windows"),
    ),
}


def cmd_experiment(args):
    cfg = _load_config(args.config, args.command)
    report = EXPERIMENTS[args.command](cfg)  # the whole run, before --out is made
    report.write(args.out)
    if args.save_fields:
        for name, field in report.fields.items():
            write_field(os.path.join(args.out, name), field)
    print("\n".join(report.summary_lines()))
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="fnls")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exponents", help="critical exponents and regime classification")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--s", type=float, default=None)
    p.set_defaults(func=cmd_exponents)

    p = sub.add_parser("evolve", help="integrate the equation, write FNLS1 snapshots")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("norms", help="space-time norm of a stored trajectory")
    p.add_argument("--traj", required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--variant", choices=["PLAIN", "TILDE"], default=PLAIN)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("soliton", help="Petviashvili profile solve")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_soliton)

    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--save-fields", action="store_true")
        p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    raise SystemExit(main())
