"""Span tracer that times railho's layers from outside the package.

``Tracer.install`` replaces public callables of the ``railho`` modules with
wrappers; ``uninstall`` puts the originals back. Three kinds of wrapper:

* span: records (name, start, end, parent) for every call. Calls that are
  made in a pool thread with nothing open on that thread get the innermost
  span open on the main thread as parent (the ``monte_carlo`` that owns the
  pool).
* timed: accumulates seconds and calls on the innermost open span instead of
  storing one span per call, for functions called per record or per tick.
  ``HandoverFsm.step`` runs about 1M times per workload, so it is timed this
  way and also counts the ticks on which the machine left or was outside
  Monitoring.
* counted: only bumps a thread-safe call counter, for per-snapshot helpers
  inside set-up. Their (small) wrapper cost stays in the enclosing span.

A span's self time is its duration minus the union of its child spans'
intervals and minus the time of timed calls (wrapper included) made
directly inside it. Spans
are kept in memory and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable

from railho import channel, cli, config, csvio, geometry, handover, measurement, simulate

clock = time.perf_counter

_STEP = "handover.step"
CSV_WRITES = ("csvio.write_records_csv", "csvio.write_stats_csv", "csvio.write_histogram_csv")


def _csv_bytes(args, kwargs, result) -> int:
    return Path(args[1] if len(args) > 1 else kwargs["path"]).stat().st_size


def _link_snapshots(args, kwargs, result) -> int:
    return len(args[0] if args else kwargs["normals"])


# (name, [(owner, attribute)], work) for every wrapped call that records spans.
# A function imported by name into another module is patched in both places.
SPAN_TARGETS = [
    ("cli.main", [(cli, "main")], None),
    ("config.apply_overrides", [(config, "apply_overrides"), (cli, "apply_overrides")], None),
    ("simulate.monte_carlo", [(simulate, "monte_carlo"), (cli, "monte_carlo")], None),
    ("simulate.precompute_tables", [(simulate, "precompute_tables")], None),
    ("simulate.simulate_run", [(simulate, "simulate_run"), (cli, "simulate_run")], None),
    ("simulate.aggregate_records", [(simulate, "aggregate_records")], None),
    ("channel.shadowing_series_db", [(channel, "shadowing_series_db")], None),
    ("channel.small_scale_series", [(channel, "small_scale_series")], _link_snapshots),
    ("measurement.measure_cell", [(measurement, "measure_cell"), (simulate, "measure_cell")], None),
    ("csvio.write_records_csv", [(csvio, "write_records_csv")], _csv_bytes),
    ("csvio.write_stats_csv", [(csvio, "write_stats_csv")], _csv_bytes),
    ("csvio.write_histogram_csv", [(csvio, "write_histogram_csv")], _csv_bytes),
]
TIMED_TARGETS = [("csvio.record_row", [(csvio, "record_row")])]
COUNTED_TARGETS = [
    ("geometry.environment_at", [(geometry, "environment_at"), (simulate, "environment_at")]),
    ("channel.los_probability", [(channel.EnvironmentProfile, "los_probability")]),
]


class _Frame:
    """An open span, or the root of one thread (id 0)."""

    __slots__ = ("id", "start", "parent", "hidden", "counters")

    def __init__(self, span_id: int, start: float, parent: int) -> None:
        self.id = span_id
        self.start = start
        self.parent = parent
        self.hidden = 0.0  # seconds in timed wrappers called directly in this span
        self.counters: dict[str, list] = {}  # name -> [seconds, calls, active]


class Tracer:
    def __init__(self) -> None:
        # (id, name, start, end, parent, hidden, counters, work); parent 0 = top level
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[_Frame] = []
        self._main_stack: list[_Frame] | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._call_counts: dict[str, itertools.count] = {}

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            root = _Frame(0, clock(), 0)
            stack = self._local.stack = [root]
            with self._lock:
                self._roots.append(root)
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
            return stack

    def _parent_of_new_span(self, stack: list[_Frame]) -> int:
        parent = stack[-1].id
        main = self._main_stack
        if parent == 0 and main is not None and main is not stack:
            parent = main[-1].id
        return parent

    def _span(self, name: str, fn: Callable, work: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = _Frame(next(tracer._ids), 0.0, tracer._parent_of_new_span(stack))
            stack.append(frame)
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            amount = work(args, kwargs, result) if work else 0
            tracer.spans.append(
                (frame.id, name, frame.start, end, frame.parent, frame.hidden, frame.counters, amount)
            )
            return result

        return wrapper

    def _timed(self, name: str, fn: Callable) -> Callable:
        local_stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            t1 = clock()
            frame = local_stack()[-1]
            acc = frame.counters.get(name)
            if acc is None:
                acc = frame.counters[name] = [0.0, 0, 0]
            acc[0] += t1 - t0
            acc[1] += 1
            frame.hidden += clock() - t0
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        tick = self._call_counts.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _step(self, fn: Callable) -> Callable:
        local_stack = self._stack
        monitoring = handover.Phase.MONITORING

        @functools.wraps(fn)
        def step(fsm, tick, l3_db, ul_snr_db, dl_snr_db):
            t0 = clock()
            idle_before = fsm.phase is monitoring
            out = fn(fsm, tick, l3_db, ul_snr_db, dl_snr_db)
            t1 = clock()
            frame = local_stack()[-1]
            acc = frame.counters.get(_STEP)
            if acc is None:
                acc = frame.counters[_STEP] = [0.0, 0, 0]
            acc[0] += t1 - t0
            acc[1] += 1
            if not (idle_before and fsm.phase is monitoring):
                acc[2] += 1
            frame.hidden += clock() - t0
            return out

        return step

    # -- patching ----------------------------------------------------------
    def _patch(self, targets: list[tuple[object, str]], make: Callable[[Callable], Callable]) -> None:
        owner, attr = targets[0]
        wrapper = make(getattr(owner, attr))
        for owner, attr in targets:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        self._stack()  # the main thread's root frame parents pool-thread spans
        for name, targets, work in SPAN_TARGETS:
            self._patch(targets, lambda fn, n=name, w=work: self._span(n, fn, w))
        for name, targets in TIMED_TARGETS:
            self._patch(targets, lambda fn, n=name: self._timed(n, fn))
        for name, targets in COUNTED_TARGETS:
            self._patch(targets, lambda fn, n=name: self._counted(n, fn))
        self._patch([(handover.HandoverFsm, "step")], self._step)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived figures ---------------------------------------------------
    def call_count(self, name: str) -> int:
        """Calls of a counted function so far (reading does not count as a call)."""
        counter = self._call_counts.get(name)
        return int(repr(counter)[len("count("):-1]) if counter is not None else 0

    def counter_totals(self) -> dict[str, list]:
        totals: dict[str, list] = {}
        counter_sets = [s[6] for s in self.spans] + [root.counters for root in self._roots]
        for counters in counter_sets:
            for name, (seconds, calls, active) in counters.items():
                acc = totals.setdefault(name, [0.0, 0, 0])
                acc[0] += seconds
                acc[1] += calls
                acc[2] += active
        return totals

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus covered child intervals and direct timed calls."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, start, end, parent, *_ in self.spans:
            children.setdefault(parent, []).append((start, end))
        out = {}
        for span_id, _, start, end, _, hidden, *_ in self.spans:
            out[span_id] = end - start - covered(children.get(span_id, []), start, end) - hidden
        return out

    def top_level_covered(self, start: float, end: float) -> float:
        return covered([(s[2], s[3]) for s in self.spans if s[4] == 0], start, end)

    def write(self, path: Path, header: dict) -> None:
        keys = ("id", "name", "start", "end", "parent", "hidden", "counters", "work")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
