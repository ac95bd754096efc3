"""Command-line interface.

Subcommands: exponents, evolve, norms, soliton, dispersive,
small-dispersion, galilean, decohere, scatter. Experiment configs are
plain text `key = value` files; see README for the documented keys.
"""

import argparse
import csv
import difflib
import os

import numpy as np

from .config import load_config
from .evolution import EvolveConfig, Trajectory, evolve
from .exponents import classify_regime
from .grid import Grid
from .io import read_field, write_field
from .model import ModelParams
from .observables import PLAIN, SpacetimeNormSpec, spacetime_norm
from .profiles import ProfileSpec
from .soliton import SolitonConfig, petviashvili_solve, traveling_wave_check
from . import experiments as exp


# The config keys README documents: common to all, and each subcommand's own.
COMMON_KEYS = (
    "d", "sigma", "p", "mu", "nu", "n", "L", "dt", "profile_width", "profile_amplitude",
)
CONFIG_KEYS = {
    "evolve": ("t_end", "snapshot_stride", "mass_drift_guard"),
    "soliton": ("omega", "v", "gamma", "max_iter", "tol", "t_end", "seed_width"),
    "dispersive": ("N_list", "t_grid"),
    "small-dispersion": ("nu_list", "t_eval", "k", "hs_track"),
    "galilean": ("nu_list", "v", "k", "t_eval", "n_x", "L_x", "n_y", "dt_x", "dt_y"),
    "decohere": (
        "nu_list", "a", "a_prime", "alpha", "s", "epsilon", "k", "t_scan_max",
        "n_y", "L_y", "dt_y", "max_n_x", "true_evolution",
    ),
    "scatter": ("amplitude_list", "t_end", "windows"),
}


def _load_config(args):
    """Load args.config; a key neither common nor the subcommand's own is an error."""
    cfg = load_config(args.config)
    known = COMMON_KEYS + CONFIG_KEYS[args.command]
    for key in cfg:
        if key not in known:
            close = difflib.get_close_matches(key, known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            raise ValueError(
                f"{args.config}: unknown config key {key!r} for {args.command}{hint}"
            )
    return cfg


def _aslist(v):
    return v if isinstance(v, list) else [v]


def _params_from(cfg):
    return ModelParams(
        d=int(cfg.get("d", 1)),
        sigma=float(cfg["sigma"]),
        p=float(cfg["p"]),
        mu=int(cfg.get("mu", 1)),
        nu=float(cfg.get("nu", 1.0)),
    )


def _grid_from(cfg):
    return Grid(int(cfg.get("d", 1)), cfg["n"], cfg["L"])


def _profile_from(cfg):
    return ProfileSpec(
        width=float(cfg.get("profile_width", 1.0)),
        amplitude=float(cfg.get("profile_amplitude", 1.0)),
    )


def cmd_exponents(args):
    report = classify_regime(args.d, args.p, args.sigma, args.s if args.s is not None else 0.0)
    if args.s is None:
        report.hypothesis_notes.insert(0, "no s supplied; classified at s = 0")
    for line in report.lines():
        print(line)
    print("csv:", report.csv_row())


def cmd_evolve(args):
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    u0 = _profile_from(cfg).realize(grid)
    run = EvolveConfig(
        params,
        t_end=float(cfg["t_end"]),
        dt=float(cfg["dt"]) if "dt" in cfg else None,
        snapshot_stride=int(cfg.get("snapshot_stride", 1)),
        mass_drift_guard=float(cfg.get("mass_drift_guard", EvolveConfig.mass_drift_guard)),
    )
    traj = evolve(u0, run)
    with open(os.path.join(args.out, "diagnostics.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["time", "mass", "energy", "linf", "boundary_amplitude"]
        )
        writer.writeheader()
        writer.writerows(traj.diagnostics)
    for i, field in enumerate(traj.fields):
        write_field(os.path.join(args.out, f"snap_{i:05d}.fnls"), field)
    print(f"wrote {len(traj.fields)} snapshots to {args.out}")


def _load_trajectory(traj_dir):
    traj = Trajectory()
    with open(os.path.join(traj_dir, "diagnostics.csv")) as fh:
        rows = list(csv.DictReader(fh))
    for i, row in enumerate(rows):
        field = read_field(os.path.join(traj_dir, f"snap_{i:05d}.fnls"))
        traj.times.append(float(row["time"]))
        traj.fields.append(field)
        traj.diagnostics.append({k: float(v) for k, v in row.items()})
    return traj


def cmd_norms(args):
    traj = _load_trajectory(args.traj)
    d = traj.fields[0].grid.d
    spec = SpacetimeNormSpec(
        q=args.q, r=args.r, s=args.s, sigma=args.sigma, variant=args.variant
    )
    value = spacetime_norm(traj, spec)
    snapshots = len(traj.times)
    print(f"spacetime norm (q={args.q:g}, r={args.r:g}, s={args.s:g}, "
          f"variant={args.variant}, d={d}): {value:.12g}")
    path = os.path.join(args.traj, "norms.csv")
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(["q", "r", "s", "variant", "snapshots", "value"])
        writer.writerow([args.q, args.r, args.s, args.variant, snapshots, value])


def cmd_soliton(args):
    cfg = _load_config(args)
    os.makedirs(args.out, exist_ok=True)
    grid = _grid_from(cfg)
    params = _params_from(cfg)
    scfg = SolitonConfig(
        params,
        omega=float(cfg.get("omega", 1.0)),
        v=tuple(float(v) for v in _aslist(cfg.get("v", 0.0))),
        gamma=float(cfg["gamma"]) if "gamma" in cfg else None,
        max_iter=int(cfg.get("max_iter", 500)),
        tol=float(cfg.get("tol", 1e-10)),
    )
    seed_width = float(cfg.get("seed_width", 1.0 / scfg.omega))
    seed = ProfileSpec(width=seed_width).realize(grid)
    result = petviashvili_solve(scfg, seed)
    write_field(os.path.join(args.out, "Q.fnls"), result.Q)
    with open(os.path.join(args.out, "residuals.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "residual", "M_n"])
        for i, (r, m) in enumerate(
            zip(result.residual_history, result.stabilization_history)
        ):
            writer.writerow([i, r, m])
    lines = [
        f"converged: {result.converged}",
        f"iterations: {len(result.residual_history)}",
        f"final residual: {result.residual_history[-1]:.6e}",
        f"symbol min: {result.symbol_min:.6e}",
    ]
    if result.converged and cfg.get("t_end", 0):
        mismatch = traveling_wave_check(
            result, scfg, float(cfg["t_end"]), float(cfg.get("dt", 1e-3))
        )
        lines.append(f"traveling-wave mismatch at t={cfg['t_end']}: {mismatch:.6e}")
    with open(os.path.join(args.out, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))


def _experiment_command(runner):
    def cmd(args):
        cfg = _load_config(args)
        os.makedirs(args.out, exist_ok=True)
        save_dir = args.out if args.save_fields else None
        report = runner(cfg, save_dir)
        report.write(args.out)
        print("\n".join(report.summary_lines()))
        return 0 if report.passed else 1

    return cmd


def _run_dispersive(cfg, save_dir):
    return exp.run_dispersive_decay(
        d=int(cfg.get("d", 1)),
        sigma=float(cfg["sigma"]),
        N_list=[float(N) for N in _aslist(cfg.get("N_list", [1.0, 4.0]))],
        t_grid=[float(t) for t in _aslist(cfg.get("t_grid", list(np.linspace(5, 40, 15))))],
        grid=_grid_from(cfg) if "n" in cfg and "L" in cfg else None,
        n=int(cfg.get("n", 2**14)),
        save_dir=save_dir,
    )


def _run_smalldisp(cfg, save_dir):
    params = _params_from(cfg)
    grid = _grid_from(cfg) if "n" in cfg else None
    return exp.run_small_dispersion(
        _profile_from(cfg),
        params,
        nu_list=[float(v) for v in _aslist(cfg.get("nu_list", [0.1, 0.05, 0.025]))],
        t_eval=float(cfg.get("t_eval", 1.0)),
        k=int(cfg.get("k", 1)),
        grid=grid,
        dt=float(cfg["dt"]) if "dt" in cfg else None,
        hs_track=float(cfg.get("hs_track", 0.5)),
        save_dir=save_dir,
    )


def _run_galilean(cfg, save_dir):
    params = _params_from(cfg)
    return exp.run_galilean_error(
        _profile_from(cfg),
        params,
        nu_list=[float(v) for v in _aslist(cfg.get("nu_list", [0.1, 0.05, 0.025]))],
        v=[float(v) for v in _aslist(cfg.get("v", 8.0))],
        k=int(cfg.get("k", 1)),
        t_eval=float(cfg.get("t_eval", 0.5)),
        n_x=int(cfg.get("n_x", 4096)),
        L_x=float(cfg.get("L_x", 128 * np.pi)),
        n_y=int(cfg.get("n_y", 512)),
        dt_x=float(cfg["dt_x"]) if "dt_x" in cfg else None,
        dt_y=float(cfg["dt_y"]) if "dt_y" in cfg else None,
        save_dir=save_dir,
    )


def _run_decohere(cfg, save_dir):
    params = _params_from(cfg)
    dcfg = exp.DecoherenceConfig(
        a=float(cfg.get("a", 1.0)),
        a_prime=float(cfg.get("a_prime", 0.9)),
        alpha=float(cfg.get("alpha", 1.2)),
        s=float(cfg.get("s", -0.1)),
        epsilon=float(cfg.get("epsilon", 5.0)),
        k=int(cfg["k"]) if "k" in cfg else None,
        t_scan_max=float(cfg.get("t_scan_max", 60.0)),
        n_y=int(cfg.get("n_y", 512)),
        L_y=float(cfg.get("L_y", 16 * np.pi)),
        dt_y=float(cfg["dt_y"]) if "dt_y" in cfg else None,
        max_n_x=int(cfg.get("max_n_x", exp.DecoherenceConfig.max_n_x)),
        true_evolution=bool(cfg.get("true_evolution", False)),
    )
    return exp.run_decoherence(
        dcfg,
        _profile_from(cfg),
        params,
        nu_list=[float(v) for v in _aslist(cfg.get("nu_list", [0.1, 0.09, 0.08]))],
        save_dir=save_dir,
    )


def _run_scatter(cfg, save_dir):
    params = _params_from(cfg)
    grid = _grid_from(cfg) if "n" in cfg else None
    return exp.run_scattering_probe(
        _profile_from(cfg),
        params,
        amplitude_list=[float(v) for v in _aslist(cfg.get("amplitude_list", [1e-3]))],
        t_end=float(cfg.get("t_end", 20.0)),
        grid=grid,
        dt=float(cfg["dt"]) if "dt" in cfg else None,
        windows=tuple(
            tuple(float(x) for x in str(w).split(":"))
            for w in _aslist(cfg.get("windows", ["5:10", "10:20"]))
        ),
        save_dir=save_dir,
    )


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

    for name, runner in [
        ("dispersive", _run_dispersive),
        ("small-dispersion", _run_smalldisp),
        ("galilean", _run_galilean),
        ("decohere", _run_decohere),
        ("scatter", _run_scatter),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--save-fields", action="store_true")
        p.set_defaults(func=_experiment_command(runner))

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args) or 0


if __name__ == "__main__":
    raise SystemExit(main())
