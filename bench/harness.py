"""Runs, checks and measures one workload in this process; see run.py for usage."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter as clock

import numpy
import scipy

import workloads
import yardstick
from railho.handover import Outcome
from spans import CSV_WRITES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "runs_per_s": "1/s", "peak_rss_mb": "MB"}

_BOTH_MC = "mc_100kmh mc_500kmh_fine"
# name -> (unit, end-to-end metric it should move, workloads where it should move it)
LAYER_METRICS = {
    "simulate.precompute_tables.s": ("s", "setup_s", "sweep_grid mc_500kmh_fine"),
    "simulate.precompute_tables.calls": ("count", "setup_s", "sweep_grid mc_500kmh_fine"),
    "geometry.environment_at.calls": ("count", "setup_s", "sweep_grid mc_500kmh_fine"),
    "channel.los_probability.calls": ("count", "setup_s", "sweep_grid mc_500kmh_fine"),
    "config.apply_overrides.s": ("s", "setup_s", "sweep_grid"),
    "channel.shadowing_series_db.s": ("s", "runs_per_s", "mc_500kmh_fine"),
    "channel.shadowing_series_db.calls": ("count", "runs_per_s", "mc_500kmh_fine"),
    "channel.small_scale_series.s": ("s", "runs_per_s", "mc_500kmh_fine"),
    "channel.small_scale_series.calls": ("count", "runs_per_s", "mc_500kmh_fine"),
    "channel.link_snapshots": ("count", "runs_per_s", "mc_500kmh_fine"),
    "measurement.measure_cell.s": ("s", "runs_per_s", _BOTH_MC),
    "measurement.measure_cell.calls": ("count", "runs_per_s", _BOTH_MC),
    "handover.step.s": ("s", "runs_per_s", "mc_100kmh"),
    "handover.step.calls": ("count", "runs_per_s", "mc_100kmh"),
    "handover.step.us_per_call": ("us", "runs_per_s", "mc_100kmh"),
    "handover.active_tick_ratio": ("ratio", "runs_per_s", "mc_100kmh"),
    "simulate.simulate_run.s": ("s", "runs_per_s", _BOTH_MC),
    "simulate.simulate_run.self_s": ("s", "runs_per_s", _BOTH_MC),
    "simulate.simulate_run.calls": ("count", "runs_per_s", _BOTH_MC),
    "simulate.run_ms.p50": ("ms", "runs_per_s", _BOTH_MC),
    "simulate.run_ms.p95": ("ms", "runs_per_s", _BOTH_MC),
    "simulate.monte_carlo.self_s": ("s", "wall_s", "sweep_grid"),
    "simulate.aggregate_records.s": ("s", "wall_s", "sweep_grid"),
    "cli.main.self_s": ("s", "wall_s", "sweep_grid"),
    "csvio.record_row.s": ("s", "wall_s", "sweep_grid"),
    "csvio.write.s": ("s", "wall_s", "sweep_grid"),
    "csvio.bytes_written": ("bytes", "wall_s", "sweep_grid"),
    # Correctness counts: must repeat exactly for a seed; they move no timing.
    "handover.outcome.success": ("count", None, None),
    "handover.outcome.fail_uplink_report": ("count", None, None),
    "handover.outcome.fail_downlink_command": ("count", None, None),
    "handover.outcome.fail_rach": ("count", None, None),
    "handover.outcome.not_triggered": ("count", None, None),
    # Cost and coverage of the tracing itself.
    "trace.overhead_s": ("s", None, None),
    "trace.top_level_coverage": ("ratio", None, None),
}


def main(args) -> int:
    if args.self_check:
        return self_check()
    if args.make_references:
        return make_references()
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: --workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    size = w.sizes[args.size]
    stamp = _stamp(args)
    print("stamp " + json.dumps(stamp))
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))[args.size][w.name]
    workdir = OUT / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.warm_up(w, workdir)
        bench = _Bench(w, size, refs, workdir)
        if args.trace:
            metrics = bench.traced(args.seed, args.seconds, stamp)
        else:
            metrics = bench.timed(args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in bench.problems[:20]:
        print("check failed: " + problem)
    units = {k: v[0] for k, v in LAYER_METRICS.items()} if args.trace else END_TO_END_UNITS
    result = {
        "correct": not bench.problems and bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


class _Bench:
    """One workload in one process: runs units, checks them and keeps the tallies."""

    def __init__(self, w, size, refs: dict, workdir: Path) -> None:
        self.w = w
        self.size = size
        self.refs = refs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def unit(self, entry: int, between_configs=None):
        """Run and check one unit; returns (start, wall seconds, check or None if it raised).

        ``between_configs`` is called after each configuration of a sweep; the
        wall seconds include its time.
        """
        ops = self.w.ops_per_unit(self.size)
        self.attempted += ops
        gc.collect()  # every unit starts from the same collector state; within it, GC runs as usual
        t0 = clock()
        try:
            code, results = workloads.run_unit(
                self.w, self.size, entry, self.workdir, between_configs
            )
        except Exception:  # a crash in railho is a failed unit, not a failed benchmark
            traceback.print_exc()
            self.failed += ops
            self.problems.append(f"pool entry {entry} raised")
            return t0, clock() - t0, None
        wall = clock() - t0
        check = workloads.check_unit(self.w, code, results, self.workdir)
        expected = self.refs.get(str(entry))
        if check.digest != expected:
            check.problems.append(f"records digest {check.digest[:12]} != reference {str(expected)[:12]}")
        if check.problems:
            self.failed += ops
            self.problems += [f"pool entry {entry}: {p}" for p in check.problems]
        return t0, wall, check

    def timed(self, seed: int, seconds: float) -> dict:
        """End-to-end metrics in reference seconds (see yardstick.py), medians over the run."""
        order = self.w.pass_order(seed, self.size)
        setup_seed = workloads.master_seed(0)
        runs = self.w.runs_per_unit(self.size)
        log = yardstick.Log(self.w.memory_share)
        log.read()
        units, setups = [], []
        begin = clock()
        passes = 0
        # Whole passes, as many as come closest to --seconds.
        while passes == 0 or (clock() - begin) * (1 + 0.5 / passes) < seconds:
            for entry in order:
                start, wall, _ = self.unit(entry, log.read)
                units.append((start, start + wall))
                log.read()
                # One set-up after each unit, so set-ups see the same machine state as units.
                gc.collect()
                t0 = clock()
                workloads.setup(self.w, self.size, setup_seed, log.read)
                setups.append((t0, clock()))
                log.read()
            passes += 1
        walls, ref_walls = zip(*(log.seconds(*span) for span in units))
        setup_walls, ref_setups = zip(*(log.seconds(*span) for span in setups))
        setup_s = statistics.median(ref_setups)
        rates = [runs / (wall - setup_s) for wall in ref_walls]
        print(
            f"units {len(walls)} (each {runs} runs), set-ups {len(setups)}, yardstick readings "
            f"{len(log.slowdowns)}; quartiles in seconds: wall {_quartiles(walls)}, set-up "
            f"{_quartiles(setup_walls)}; host slowdown {_quartiles(log.slowdowns)}; in reference "
            f"seconds: wall {_quartiles(ref_walls)}, set-up {_quartiles(ref_setups)}"
        )
        return {
            "wall_s": statistics.median(ref_walls),
            "setup_s": setup_s,
            "runs_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def traced(self, seed: int, seconds: float, stamp: dict) -> dict:
        """Per-layer metrics per unit, from whole passes run alternately untraced and traced."""
        units = self.w.pass_order(seed, self.size)
        tracer = Tracer()
        plain, traced = [], []
        begin = clock()
        passes = 0
        while passes == 0 or (clock() - begin) * (1 + 0.5 / passes) < seconds:
            plain += [self.unit(e) for e in units]
            tracer.install()
            try:
                traced += [self.unit(e) for e in units]
            finally:
                tracer.uninstall()
            passes += 1
        for (_, _, a), (_, _, b) in zip(plain, traced):
            if a is not None and b is not None and a.digest != b.digest:
                self.problems.append("traced records digest differs from the untraced one")
        outcomes = Counter()
        for _, _, check in traced:
            if check is not None:
                outcomes.update(check.outcomes)
        windows = [(start, start + wall) for start, wall, _ in traced]
        metrics = _layer_metrics(tracer, len(traced), [t[1] for t in traced], [p[1] for p in plain],
                                 windows, outcomes)
        tracer.write(OUT / f"spans-{self.w.name}-seed{seed}.json",
                     {"stamp": stamp, "units": units, "passes": passes, "metrics": metrics})
        return metrics


def _layer_metrics(tracer, n_units: int, traced_walls, plain_walls, windows, outcomes) -> dict:
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span[1]].append(span)
    selfs = tracer.self_times()
    counters = tracer.counter_totals()

    def seconds(name):
        return sum(s[3] - s[2] for s in by_name[name]) / n_units

    def calls(name):
        return len(by_name[name]) / n_units

    def self_s(name):
        return sum(selfs[s[0]] for s in by_name[name]) / n_units

    def timed_s(name):
        return counters.get(name, [0.0, 0, 0])[0] / n_units

    run_ms = sorted((s[3] - s[2]) * 1e3 for s in by_name["simulate.simulate_run"])
    step_s, step_calls, step_active = counters.get("handover.step", [0.0, 0, 0])
    writes = [s for n in CSV_WRITES for s in by_name[n]]
    m = {
        "simulate.precompute_tables.s": seconds("simulate.precompute_tables"),
        "simulate.precompute_tables.calls": calls("simulate.precompute_tables"),
        "geometry.environment_at.calls": tracer.call_count("geometry.environment_at") / n_units,
        "channel.los_probability.calls": tracer.call_count("channel.los_probability") / n_units,
        "config.apply_overrides.s": seconds("config.apply_overrides"),
        "channel.shadowing_series_db.s": seconds("channel.shadowing_series_db"),
        "channel.shadowing_series_db.calls": calls("channel.shadowing_series_db"),
        "channel.small_scale_series.s": seconds("channel.small_scale_series"),
        "channel.small_scale_series.calls": calls("channel.small_scale_series"),
        "channel.link_snapshots": sum(s[7] for s in by_name["channel.small_scale_series"]) / n_units,
        "measurement.measure_cell.s": seconds("measurement.measure_cell"),
        "measurement.measure_cell.calls": calls("measurement.measure_cell"),
        "handover.step.s": step_s / n_units,
        "handover.step.calls": step_calls / n_units,
        "handover.step.us_per_call": step_s / step_calls * 1e6 if step_calls else 0.0,
        "handover.active_tick_ratio": step_active / step_calls if step_calls else 0.0,
        "simulate.simulate_run.s": seconds("simulate.simulate_run"),
        "simulate.simulate_run.self_s": self_s("simulate.simulate_run"),
        "simulate.simulate_run.calls": calls("simulate.simulate_run"),
        "simulate.run_ms.p50": _percentile(run_ms, 50),
        "simulate.run_ms.p95": _percentile(run_ms, 95),
        "simulate.monte_carlo.self_s": self_s("simulate.monte_carlo"),
        "simulate.aggregate_records.s": seconds("simulate.aggregate_records"),
        "cli.main.self_s": self_s("cli.main"),
        "csvio.record_row.s": timed_s("csvio.record_row"),
        "csvio.write.s": sum(s[3] - s[2] for s in writes) / n_units,
        "csvio.bytes_written": sum(s[7] for s in writes) / n_units,
        "trace.overhead_s": (sum(traced_walls) - sum(plain_walls)) / n_units,
        "trace.top_level_coverage": sum(tracer.top_level_covered(a, b) for a, b in windows)
        / sum(b - a for a, b in windows),
    }
    for outcome in Outcome:
        key = "handover.outcome." + _snake(outcome.value)
        m[key] = outcomes[outcome] / n_units
    return m


def _snake(camel: str) -> str:
    return "".join("_" + c.lower() if c.isupper() else c for c in camel).lstrip("_")


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(v, 6) for v in values * 3]
    return [round(q, 6) for q in statistics.quantiles(values, n=4)]


def _git_commit() -> str:
    """HEAD of the tree read from .git without running git (the tree may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _stamp(args) -> dict:
    return {
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "held_out_seed": workloads.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def make_references() -> int:
    """Record the records digest of every pool entry of every workload and size."""
    refs: dict = {}
    workdir = OUT / f"references-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for size_name in ("tiny", "full"):
            for w in workloads.WORKLOADS.values():
                size = w.sizes[size_name]
                digests = refs.setdefault(size_name, {}).setdefault(w.name, {})
                for entry in range(size.pool + size.held_out):
                    code, results = workloads.run_unit(w, size, entry, workdir)
                    check = workloads.check_unit(w, code, results, workdir)
                    if check.problems:
                        print(f"{size_name} {w.name} entry {entry}: {check.problems}", file=sys.stderr)
                        return 1
                    digests[str(entry)] = check.digest
                    print(f"{size_name} {w.name} entry {entry}: {check.digest[:12]} "
                          f"{dict(check.outcomes)}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def self_check() -> int:
    """Run every workload at tiny size, traced and untraced, each in a fresh process."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if declared[0] != END_TO_END_UNITS:
        problems.append(f"BENCHMARK.json end_to_end {declared[0]} != {END_TO_END_UNITS}")
    if declared[1] != {k: v[0] for k, v in LAYER_METRICS.items()}:
        problems.append("BENCHMARK.json per_layer differs from LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} attempted={result['attempted']} "
                                f"failed={result['failed']}\n" + "\n".join(lines[:-1]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared[trace]:
                problems.append(f"{tag}: metrics {sorted(got)} != declared {sorted(declared[trace])}")
            for k, v in result["metrics"].items():
                if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{tag}: {k} = {v['value']!r}")
            print(f"{tag}: attempted {result['attempted']}, correct {result['correct']}")
    for p in problems:
        print("SELF-CHECK: " + p, file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
