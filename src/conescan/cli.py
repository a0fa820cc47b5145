"""Command-line entry points: run, validate, sweep, plot."""

import argparse
import concurrent.futures
import os
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfg_mod
from .mission import EXIT_INVALID, EXIT_OK, MissionRunner, emit_plot_data

OUT_ENV = "CONESCAN_OUT"


def _default_out(config_path, seed) -> Path:
    base = Path(os.environ.get(OUT_ENV, "runs"))
    stem = Path(config_path).stem
    return base / f"{stem}-seed{seed}"


def _load(path, seeds=()):
    """The scenario at `path`, also checked with each of `seeds` as its seed;
    None, once the reason is printed, when either is invalid."""
    try:
        cfg = cfg_mod.load(path)
        for seed in seeds:
            cfg_mod.validate(replace(cfg, seed=seed))
        return cfg
    except cfg_mod.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _not_a_directory(out) -> bool:
    """Whether `out`, or its nearest existing parent, is no directory; says so on stderr."""
    if next(p for p in (out, *out.parents) if p.exists()).is_dir():
        return False
    print(f"--out {out}: not a directory", file=sys.stderr)
    return True


def cmd_run(args) -> int:
    cfg = _load(args.config, [] if args.seed is None else [args.seed])
    if cfg is None:
        return EXIT_INVALID
    seed = cfg.seed if args.seed is None else args.seed
    out = Path(args.out) if args.out else _default_out(args.config, seed)
    if _not_a_directory(out):
        return EXIT_INVALID
    report = MissionRunner(replace(cfg, seed=seed), out_dir=out,
                           dump_particles=args.dump_particles).run()
    print(f"run complete: {report.targets_found}/{report.targets_total} targets, "
          f"{report.duration_s:.1f} sim s, {report.distance_m:.1f} m flown")
    print(f"logs: {out}")
    return report.exit_code


def cmd_validate(args) -> int:
    cfg = _load(args.config)
    if cfg is None:
        return EXIT_INVALID
    print(f"{args.config}: valid ({len(cfg.targets)} targets, "
          f"seed {cfg.seed})")
    return EXIT_OK


def _sweep_one(payload):
    """One seed's row: found and total targets, then over the done targets their
    localization errors, largest eigenvalue and accepted updates, then sim
    seconds and exit code."""
    cfg, out = payload
    report = MissionRunner(cfg, out_dir=out).run()
    done = [t for t in report.targets if t.status == "done"]
    errors = [t.localization_error for t in done if t.localization_error is not None]
    lam = max((t.eigenvalues[0] for t in done), default=None)
    return (cfg.seed, report.targets_found, report.targets_total, errors, lam,
            sum(t.updates for t in done), report.duration_s, report.exit_code)


def cmd_sweep(args) -> int:
    try:
        lo, hi = (int(v) for v in args.seeds.split(".."))
    except ValueError:
        print("seeds must look like A..B", file=sys.stderr)
        return EXIT_INVALID
    seeds = list(range(lo, hi + 1))
    if not seeds:
        print(f"seeds {args.seeds}: empty range", file=sys.stderr)
        return EXIT_INVALID
    if args.jobs is not None and args.jobs < 1:
        print("jobs must be at least 1", file=sys.stderr)
        return EXIT_INVALID
    cfg = _load(args.config, (lo, hi))  # every seed is valid when both ends are
    if cfg is None:
        return EXIT_INVALID
    out_base = Path(args.out or Path(os.environ.get(OUT_ENV, "runs")) /
                    f"{Path(args.config).stem}-sweep")
    jobs = [(replace(cfg, seed=s), out_base / f"seed{s:04d}") for s in seeds]
    if _not_a_directory(out_base) or any(_not_a_directory(out) for _, out in jobs):
        return EXIT_INVALID
    worst_exit = EXIT_OK
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
        results = sorted(pool.map(_sweep_one, jobs))
    print("seed  found  worst_error  lambda_max  updates  sim_s   exit")
    found_all = total_all = 0
    all_errors = []
    for seed, found, total, errors, lam, updates, sim_s, code in results:
        found_all, total_all = found_all + found, total_all + total
        all_errors += errors
        err = f"{max(errors):.3f}" if errors else "-"
        lam = "-" if lam is None else f"{lam:.4f}"
        print(f"{seed:<6d}{found}/{total:<5d}{err:<13s}{lam:<12s}{updates:<9d}"
              f"{sim_s:<8.1f}{code}")
        worst_exit = max(worst_exit, code)
    summary = f"found {found_all}/{total_all} targets"
    if all_errors:
        summary += (f", median error {statistics.median(all_errors):.3f} m, "
                    f"worst {max(all_errors):.3f} m")
    print(summary)
    return worst_exit


def cmd_plot(args) -> int:
    run_dir = Path(args.run_dir)
    if not (run_dir / "report.json").exists():
        print(f"{run_dir}: not a completed run directory", file=sys.stderr)
        return EXIT_INVALID
    written = emit_plot_data(run_dir)
    for path in written:
        print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conescan",
        description="Search, localize and map sparse ground targets in simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one mission from a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--dump-particles", action="store_true")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run one scenario across a seed range")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--seeds", required=True, help="inclusive range A..B")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_plot = sub.add_parser("plot", help="emit plot-ready CSVs for a run directory")
    p_plot.add_argument("run_dir")
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
