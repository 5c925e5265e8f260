"""CSV writers and readers for records, sweep statistics and per-tick traces.

All files are UTF-8 with LF line endings and '.' decimal separators. Rows go
to ``csv.writer`` as they are built; only floats are rendered first, to 6
significant digits. ``csv`` writes ``None`` as an empty field (a missing
value) and every other value with ``str``.
"""

from __future__ import annotations

import csv
import math
import typing
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .config import RunConfig
from .handover import HandoverRecord
from .simulate import RunTrace, SweepStatistics


class RecordRow(NamedTuple):
    """One records-CSV row: a handover record stamped with its configuration.

    The fields, in order, are the records-CSV columns.
    """

    run_id: int
    speed_kmh: float
    environment: str
    offset_db: float
    trigger_tick: int | None
    report_tick: int | None
    command_tick: int | None
    completion_tick: int | None
    start_position_m: float | None
    delay_ms: float | None
    outcome: str


def _field_parser(hint):
    """Parser of one CSV field of type ``hint``; an empty ``T | None`` field is None."""
    if type(None) not in typing.get_args(hint):
        return hint
    base = typing.get_args(hint)[0]
    return lambda text: base(text) if text else None


RECORD_COLUMNS = list(RecordRow._fields)
_record_parsers = [_field_parser(hint) for hint in typing.get_type_hints(RecordRow).values()]

STATS_COLUMNS = [
    "speed_kmh",
    "environment",
    "offset_db",
    "ttt_ms",
    "runs",
    "n_records",
    "n_success",
    "success_rate",
    "weighted_start_point_m",
    "mean_delay_ms",
    "delay_in_samples",
]

HISTOGRAM_COLUMNS = ["speed_kmh", "environment", "offset_db", "start_snapshot", "probability"]


def _fmt(value):
    """A float to 6 significant digits; csv renders the int, str and None cells."""
    return format(value, ".6g") if isinstance(value, float) else value


def _write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``columns`` and then ``rows``, each cell passed through ``_fmt``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def config_columns(cfg: RunConfig) -> tuple[float, str, float]:
    """The speed_kmh, environment and offset_db columns that ``cfg`` stamps on its rows."""
    return cfg.speed_kmh, cfg.environment_label, cfg.handover.hysteresis_db


def record_row(record: HandoverRecord, columns: tuple[float, str, float]) -> RecordRow:
    """Records-CSV row of ``record``; ``columns`` is ``config_columns`` of its configuration."""
    delay_ms = None if record.total_delay_s is None else record.total_delay_s * 1000.0
    return RecordRow(
        record.run_id,
        *columns,
        record.trigger_tick,
        record.report_tick,
        record.command_tick,
        record.completion_tick,
        record.start_position_m,
        delay_ms,
        record.outcome.value,
    )


def write_records_csv(rows: Iterable[RecordRow], path: str | Path) -> None:
    _write_csv(path, RECORD_COLUMNS, rows)


def read_records_csv(path: str | Path) -> list[RecordRow]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != RECORD_COLUMNS:
            raise ValueError(f"{path}: unexpected records header {header}")
        return [
            RecordRow(*(parse(text) for parse, text in zip(_record_parsers, raw, strict=True)))
            for raw in reader
        ]


def stats_csv_row(stats: SweepStatistics, cfg: RunConfig) -> list:
    mean_delay_ms = None if math.isnan(stats.mean_delay_s) else stats.mean_delay_s * 1000.0
    weighted = None if math.isnan(stats.weighted_start_point_m) else stats.weighted_start_point_m
    return [
        *config_columns(cfg),
        cfg.handover.ttt_s * 1000.0,
        stats.runs,
        stats.n_records,
        stats.n_success,
        stats.success_rate,
        weighted,
        mean_delay_ms,
        stats.delay_in_samples,
    ]


def write_stats_csv(rows: Sequence[Sequence], path: str | Path) -> None:
    _write_csv(path, STATS_COLUMNS, rows)


def histogram_csv_rows(stats: SweepStatistics, cfg: RunConfig) -> list[list]:
    columns = config_columns(cfg)
    return [
        [*columns, snapshot, probability]
        for snapshot, probability in sorted(stats.start_point_histogram.items())
    ]


def write_histogram_csv(rows: Sequence[Sequence], path: str | Path) -> None:
    _write_csv(path, HISTOGRAM_COLUMNS, rows)


def write_trace_csv(trace: RunTrace, path: str | Path) -> None:
    n_cells = trace.snr_db.shape[1]
    columns = (
        ["tick", "snapshot", "position_m"]
        + [f"snr_db_cell{c}" for c in range(n_cells)]
        + [f"eff_snr_db_cell{c}" for c in range(n_cells)]
        + ["serving_cell", "interrupted", "throughput_bps"]
    )
    values = (
        [trace.tick_snapshots, trace.positions_m, *trace.snr_db.T, *trace.effective_snr_db.T]
        + [trace.serving_cell, trace.interrupted.astype(int), trace.throughput_bps]  # not True/False
    )
    rows = zip(range(trace.tick_snapshots.size), *(column.tolist() for column in values))
    _write_csv(path, columns, rows)
