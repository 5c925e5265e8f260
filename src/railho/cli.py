"""Command line interface.

Subcommands:
  simulate   run one configuration and write records, stats and histogram CSVs
  sweep      run a speed x offset (x environment) grid and write the same CSVs
  trace      dump the per-tick SINR / throughput trace of a single run

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import csvio, ici
from .config import RUN_INDEX_BITS, ConfigError, RunConfig, apply_overrides, load_config
from .geometry import Environment
from .simulate import monte_carlo, run_batch, simulate_run

_ENV_CHOICES = [env.value for env in Environment] + ["mixed"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON run configuration file")
    parser.add_argument("--ttt-ms", type=int, help="time-to-trigger in ms (multiple of 40)")
    parser.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _csv_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from exc


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railho", allow_abbrev=False,
        description="LTE hard-handover simulator for a high-speed train on a trackside RRH deployment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one configuration", allow_abbrev=False)
    _add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a speed x offset grid", allow_abbrev=False)
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--speeds", type=_csv_floats, default=[100.0, 300.0, 500.0], metavar="KMH,KMH,...",
        help="comma-separated speeds in km/h, replacing the configured speed",
    )
    p_sweep.add_argument(
        "--offsets", type=_csv_floats, default=[0.0, 2.0, 4.0], metavar="DB,DB,...",
        help="comma-separated hysteresis offsets in dB, replacing the configured offset",
    )
    p_sweep.add_argument(
        "--envs", default=None, metavar="ENV,ENV,...",
        help="comma-separated environments (default: the configured one)",
    )
    p_sweep.set_defaults(func=_cmd_sweep, speed=None, env=None, offset_db=None)

    p_trace = sub.add_parser("trace", help="dump one run's per-tick trace", allow_abbrev=False)
    _add_common(p_trace)
    p_trace.add_argument("--run", type=int, default=0, help="run index to trace")
    p_trace.set_defaults(func=_cmd_trace, runs=None)
    for p in (p_sim, p_trace):
        p.add_argument("--speed", type=float, metavar="KMH", help="train speed in km/h")
        p.add_argument("--env", choices=_ENV_CHOICES, help="environment along the track")
        p.add_argument("--offset-db", type=float, help="A3 hysteresis margin in dB")
    for p in (p_sim, p_sweep):
        p.add_argument("--runs", type=int, help="Monte Carlo runs per configuration")
        p.add_argument("--workers", type=int, metavar="N", help="threads for the runs (default: every usable CPU)")
    return parser


def _load(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    return apply_overrides(
        cfg,
        speed_kmh=args.speed,
        environment=args.env,
        offset_db=args.offset_db,
        ttt_ms=args.ttt_ms,
        runs=args.runs,
        seed=args.seed,
    )


def _check_out(out: Path) -> None:
    """Raise NotADirectoryError, creating nothing, if the nearest existing ancestor of ``out`` is no directory."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise NotADirectoryError(f"cannot make --out {out}: {path} is not a directory")
            return


def _warn_ici(cfgs: list[RunConfig]) -> None:
    """Name on stderr, once, the speeds whose ICI power (``ici.ici_power``, as the runs use it) is 1 or more."""
    speeds = sorted({cfg.speed_kmh for cfg in cfgs if ici.ici_power(cfg.kinematics.speed_mps, cfg.ici) >= 1.0})
    if speeds:
        print(
            f"warning: the ICI power bound is 1 or more at {', '.join(f'{v:g}' for v in speeds)} km/h, "
            "outside the range of its Taylor expansion",
            file=sys.stderr,
        )


def _run_configs(args: argparse.Namespace, cfgs: list[RunConfig], names: tuple[str, str, str]) -> int:
    """Run each config, print its summary line and write the records, stats and histogram CSVs."""
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    _check_out(args.out)  # --out itself is made only once every config has run
    stats_rows, record_groups, hist_rows = [], [], []
    batch = run_batch(cfgs, args.workers)  # configs that differ only in handover share each run's link
    for cfg in cfgs:
        # one call per config, in sweep order: bench/workloads.py patches it to capture each config's statistics
        stats = monte_carlo(cfg, grid=batch)
        stats_rows.append(csvio.stats_csv_row(stats, cfg))
        record_groups.append((csvio.config_columns(cfg), stats.records))
        hist_rows.extend(csvio.histogram_csv_rows(stats, cfg))
        print(
            f"{cfg.speed_kmh:g} km/h {cfg.environment_label} offset {cfg.handover.hysteresis_db:g} dB: "
            f"{stats.n_success}/{stats.n_records} handovers succeeded, "
            f"weighted start point {stats.weighted_start_point_m:.1f} m, "
            f"delay {stats.delay_in_samples} samples"
        )
    _warn_ici(cfgs)
    args.out.mkdir(parents=True, exist_ok=True)
    records_path, stats_path, hist_path = (args.out / name for name in names)
    csvio.write_records_csv(record_groups, records_path)
    csvio.write_stats_csv(stats_rows, stats_path)
    csvio.write_histogram_csv(hist_rows, hist_path)
    print(f"wrote {records_path}, {stats_path}, {hist_path}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    return _run_configs(args, [_load(args)], ("records.csv", "stats.csv", "start_hist.csv"))


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = _load(args)
    envs = [None] if args.envs is None else [env.strip() for env in args.envs.split(",") if env.strip()]
    if not args.speeds or not args.offsets or not envs:
        raise ConfigError("sweep needs at least one speed, one offset and one environment")
    cfgs = [
        apply_overrides(base, speed_kmh=speed, environment=env, offset_db=offset)
        for env in envs
        for speed in args.speeds
        for offset in args.offsets
    ]
    return _run_configs(args, cfgs, ("sweep_records.csv", "sweep_stats.csv", "sweep_hist.csv"))


def _cmd_trace(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if not 0 <= args.run < 2**RUN_INDEX_BITS:
        raise ConfigError(f"run index {args.run} is outside [0, 2**{RUN_INDEX_BITS})")
    _check_out(args.out)
    result = simulate_run(cfg, args.run, want_trace=True)
    _warn_ici([cfg])
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"trace_run{args.run}.csv"
    csvio.write_trace_csv(result.trace, path)
    outcomes = ", ".join(rec.outcome.value for rec in result.records)
    print(f"run {args.run}: {len(result.records)} records ({outcomes})")
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
