"""Workloads of the railho benchmark: inputs, timed units, set-up and output checks.

A workload is a sequence of units. A unit is one call a user of railho
makes: ``simulate.monte_carlo`` on one ``RunConfig`` for the ``mc_*``
workloads, and one in-process ``railho sweep`` for ``sweep_grid``. The
inputs of a unit are fixed by a pool entry, which sets the master seed, so
every input the benchmark can produce has a stored reference digest. A run
makes whole passes over its part of the pool, in an order the benchmark seed
chooses. Entries differ in work by up to ~10 % (ping-pong counts vary with the
master seed), so every ordinary seed gets the same part of the pool and the
medians of two seeds differ only by noise. ``HELD_OUT_SEED`` gets a disjoint
part, for confirming a claim on inputs not used while it was developed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from railho import cli, config, csvio, simulate
from railho.config import RunConfig
from railho.handover import Outcome, HandoverRecord

HELD_OUT_SEED = 1_000_003
SUCCESS_DELAY_SAMPLES = 3  # report -> completion is 3 samples (120 ms) in the paper's setting
SWEEP_SPEEDS = (100.0, 300.0, 500.0)
SWEEP_OFFSETS = (0.0, 2.0, 4.0)
SWEEP_ENVS = ("viaduct", "cutting", "urban")
# The sweep runs with the CLI's default single worker. With --workers 2 its wall
# time ranged from 2.2 s to 5.3 s between runs on a 2-vCPU VM (the GIL holder
# gets preempted when the host is busy), far beyond any usable bound.


@dataclass(frozen=True)
class Size:
    runs: int      # Monte Carlo runs per configuration in one unit
    pool: int      # pool entries ordinary seeds visit, i.e. units in one pass
    held_out: int  # further pool entries only HELD_OUT_SEED visits


@dataclass(frozen=True)
class Workload:
    name: str  # why each workload exists is recorded in BENCHMARK.json
    speed_kmh: float | None  # None: the sweep grid
    snapshot_interval_m: float
    memory_share: float  # weight of the yardstick's memory part (see yardstick.py)
    sizes: dict[str, Size]

    @property
    def is_sweep(self) -> bool:
        return self.speed_kmh is None

    def configs_per_unit(self) -> int:
        return 1 if not self.is_sweep else len(SWEEP_SPEEDS) * len(SWEEP_OFFSETS) * len(SWEEP_ENVS)

    def ops_per_unit(self, size: Size) -> int:
        """Operations in one unit: simulated runs, or configurations for the sweep."""
        return size.runs if not self.is_sweep else self.configs_per_unit()

    def runs_per_unit(self, size: Size) -> int:
        return size.runs * self.configs_per_unit()

    def pass_order(self, seed: int, size: Size) -> list[int]:
        """The pool entries of one pass, in the order this seed visits them."""
        if seed == HELD_OUT_SEED:
            order = list(range(size.pool, size.pool + size.held_out))
        else:
            order = list(range(size.pool))
        random.Random(f"{self.name}:{seed}").shuffle(order)
        return order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mc_100kmh",
            speed_kmh=100.0,
            snapshot_interval_m=1.0,
            memory_share=0.0,  # the FSM and row conversion: interpreter-bound
            sizes={"full": Size(runs=5, pool=8, held_out=4), "tiny": Size(runs=2, pool=2, held_out=1)},
        ),
        Workload(
            name="mc_500kmh_fine",
            speed_kmh=500.0,
            snapshot_interval_m=0.25,
            memory_share=0.5,  # numpy channel series over 20785-snapshot arrays, and the FSM
            sizes={"full": Size(runs=8, pool=8, held_out=4), "tiny": Size(runs=2, pool=2, held_out=1)},
        ),
        Workload(
            name="sweep_grid",
            speed_kmh=None,
            snapshot_interval_m=1.0,
            memory_share=0.5,  # 27 numpy set-ups, the FSM and the CSV writers
            sizes={"full": Size(runs=3, pool=3, held_out=2), "tiny": Size(runs=1, pool=1, held_out=1)},
        ),
    )
}


def master_seed(entry: int) -> int:
    return 20170328 + entry


# -- units -----------------------------------------------------------------

def mc_config(w: Workload, size: Size, seed: int) -> RunConfig:
    cfg = config.apply_overrides(RunConfig(), speed_kmh=w.speed_kmh, runs=size.runs, seed=seed)
    if w.snapshot_interval_m != cfg.kinematics.snapshot_interval_m:
        kin = dataclasses.replace(cfg.kinematics, snapshot_interval_m=w.snapshot_interval_m)
        cfg = dataclasses.replace(cfg, kinematics=kin)
    return cfg


def sweep_configs(size: Size, seed: int) -> list[RunConfig]:
    """The grid ``railho sweep`` builds, in its order (environment, speed, offset)."""
    base = config.apply_overrides(RunConfig(), runs=size.runs, seed=seed)
    return [
        config.apply_overrides(base, speed_kmh=speed, environment=env, offset_db=offset)
        for env in SWEEP_ENVS
        for speed in SWEEP_SPEEDS
        for offset in SWEEP_OFFSETS
    ]


def sweep_argv(size: Size, seed: int, out: Path, *, speeds=SWEEP_SPEEDS, offsets=SWEEP_OFFSETS,
               envs=SWEEP_ENVS) -> list[str]:
    return [
        "sweep",
        "--speeds", ",".join(f"{s:g}" for s in speeds),
        "--offsets", ",".join(f"{o:g}" for o in offsets),
        "--envs", ",".join(envs),
        "--runs", str(size.runs),
        "--seed", str(seed),
        "--out", str(out),
    ]


def run_cli_capturing(
    argv: list[str], between_configs=None
) -> tuple[int, list[tuple[RunConfig, simulate.SweepStatistics]]]:
    """``railho <argv>`` in-process, keeping each config's statistics for the output check.

    ``between_configs``, if given, is called after each config's ``monte_carlo``.
    """
    captured = []
    inner = cli.monte_carlo

    def capture(cfg, **kwargs):
        stats = inner(cfg, **kwargs)
        captured.append((cfg, stats))
        if between_configs is not None:
            between_configs()
        return stats

    cli.monte_carlo = capture
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        cli.monte_carlo = inner
    return code, captured


def setup(w: Workload, size: Size, seed: int, between_configs=None) -> None:
    """The unit's set-up work on its own: build the configs and their static tables.

    ``between_configs``, if given, is called between two configs' tables.
    """
    cfgs = sweep_configs(size, seed) if w.is_sweep else [mc_config(w, size, seed)]
    for i, cfg in enumerate(cfgs):
        if i and between_configs is not None:
            between_configs()
        simulate.precompute_tables(cfg)


def warm_up(w: Workload, workdir: Path) -> None:
    """One small call through the same code, so first-use costs stay out of the timings."""
    tiny = Size(runs=1, pool=1, held_out=0)
    if w.is_sweep:
        run_cli_capturing(sweep_argv(tiny, master_seed(0), workdir, speeds=SWEEP_SPEEDS[:1],
                                     offsets=SWEEP_OFFSETS[:1], envs=SWEEP_ENVS[:1]))
    else:
        simulate.monte_carlo(mc_config(w, tiny, master_seed(0)))


def run_unit(w: Workload, size: Size, entry: int, workdir: Path,
             between_configs=None) -> tuple[int, list]:
    """Run one unit; returns the CLI exit code (0 for monte_carlo) and (config, stats) pairs.

    ``between_configs``, if given, is called after each config of a sweep.
    """
    seed = master_seed(entry)
    if w.is_sweep:
        return run_cli_capturing(sweep_argv(size, seed, workdir), between_configs)
    cfg = mc_config(w, size, seed)
    return 0, [(cfg, simulate.monte_carlo(cfg))]


# -- output checks ---------------------------------------------------------

def _field(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, Outcome):
        return value.value
    if isinstance(value, float):
        return value.hex()
    return str(value)


_RECORD_FIELDS = [f.name for f in dataclasses.fields(HandoverRecord)]


def records_digest(results: list) -> str:
    """sha256 over every record field, floats as ``float.hex``, per config in order."""
    h = hashlib.sha256()
    for cfg, stats in results:
        h.update(
            f"{float(cfg.speed_kmh).hex()}|{cfg.environment_label}|"
            f"{float(cfg.handover.hysteresis_db).hex()}|{cfg.master_seed}|{cfg.runs}\n".encode()
        )
        for rec in stats.records:
            h.update(("|".join(_field(getattr(rec, f)) for f in _RECORD_FIELDS) + "\n").encode())
    return h.hexdigest()


@dataclass
class UnitCheck:
    problems: list[str]
    digest: str
    outcomes: Counter


def check_unit(w: Workload, code: int, results: list, workdir: Path) -> UnitCheck:
    """Check a unit's records (and, for the sweep, its CSVs); digest compared by the caller."""
    problems = []
    if code != 0:
        problems.append(f"railho exited with code {code}")
    if len(results) != w.configs_per_unit():
        problems.append(f"{len(results)} configs ran, expected {w.configs_per_unit()}")
    outcomes: Counter = Counter()
    for cfg, stats in results:
        counts = Counter(rec.outcome for rec in stats.records)
        if sum(counts[o] for o in Outcome) != len(stats.records) or stats.n_records != len(stats.records):
            problems.append("outcome counts do not sum to the number of records")
        if counts[Outcome.SUCCESS] != stats.n_success:
            problems.append("n_success disagrees with the Success records")
        if stats.runs != cfg.runs:
            problems.append(f"{stats.runs} runs have records, expected {cfg.runs}")
        for rec in stats.records:
            if rec.outcome is Outcome.SUCCESS and (
                rec.completion_tick - rec.report_tick != SUCCESS_DELAY_SAMPLES
                or abs(rec.total_delay_s - SUCCESS_DELAY_SAMPLES * cfg.l1.sample_period_s) > 1e-9
            ):
                problems.append(f"Success with delay {rec.total_delay_s} s in run {rec.run_id}")
                break
        outcomes.update(counts)
    if w.is_sweep and code == 0:
        problems += _check_sweep_csvs(results, workdir)
    return UnitCheck(problems, records_digest(results), outcomes)


def _check_sweep_csvs(results: list, workdir: Path) -> list[str]:
    rows = csvio.read_records_csv(workdir / "sweep_records.csv")
    expected = [(cfg, rec) for cfg, stats in results for rec in stats.records]
    if len(rows) != len(expected):
        return [f"sweep_records.csv has {len(rows)} rows for {len(expected)} records"]
    for row, (cfg, rec) in zip(rows, expected):
        if (
            row.run_id, row.environment, row.outcome,
            row.trigger_tick, row.report_tick, row.command_tick, row.completion_tick,
        ) != (
            rec.run_id, cfg.environment_label, rec.outcome.value,
            rec.trigger_tick, rec.report_tick, rec.command_tick, rec.completion_tick,
        ):
            return [f"sweep_records.csv row {row} does not match its record"]
    with open(workdir / "sweep_stats.csv", encoding="utf-8") as fh:
        n_stats = sum(1 for _ in fh) - 1
    if n_stats != len(results):
        return [f"sweep_stats.csv has {n_stats} rows for {len(results)} configs"]
    return []
