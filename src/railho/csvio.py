"""CSV writers and readers for records, sweep statistics and per-tick traces.

All files are UTF-8 with LF line endings and '.' decimal separators. Floats are
written to 6 significant digits (``format(x, ".6g")``), ``None`` as an empty
field, every other value with ``str``, and a str cell is quoted as ``csv``
quotes it. The stats, histogram and trace rows go to ``csv.writer`` with
``_fmt`` on every cell. The records CSV is written as text, one line per
``HandoverRecord``: ``write_records_csv`` renders the speed_kmh, environment and
offset_db cells once per configuration (``_fmt`` on the floats, ``csv`` quoting
for the label), and ``record_row`` writes the rest of each line, with ``.6g``
on the start position and the delay in ms.
"""

from __future__ import annotations

import csv
import io
import math
import typing
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .config import RunConfig
from .handover import HandoverRecord, Outcome
from .simulate import RunTrace, SweepStatistics


class RecordRow(NamedTuple):
    """One records-CSV row as ``read_records_csv`` parses it.

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


def _write_rows(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``columns`` and then ``rows`` as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``columns`` and then ``rows``, each cell passed through ``_fmt``."""
    _write_rows(path, columns, ([_fmt(v) for v in row] for row in rows))


def config_columns(cfg: RunConfig) -> tuple[float, str, float]:
    """The speed_kmh, environment and offset_db columns that ``cfg`` stamps on its rows."""
    return cfg.speed_kmh, cfg.environment_label, cfg.handover.hysteresis_db


_OUTCOME_TEXT = {outcome: outcome.value for outcome in Outcome}


def _config_cells(columns: tuple[float, str, float]) -> str:
    """The speed_kmh, environment and offset_db cells of ``columns``, as ``csv.writer`` writes them."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([_fmt(value) for value in columns])
    return line.getvalue()[:-1]


def record_row(record: HandoverRecord, config_cells: str) -> str:
    """Records-CSV line of ``record``, newline included; ``config_cells`` from ``_config_cells``."""
    trigger, report, command, completion = (
        record.trigger_tick, record.report_tick, record.command_tick, record.completion_tick
    )
    start, delay_s = record.start_position_m, record.total_delay_s
    return (
        f"{record.run_id},{config_cells},"
        f"{'' if trigger is None else trigger},{'' if report is None else report},"
        f"{'' if command is None else command},{'' if completion is None else completion},"
        f"{'' if start is None else format(start, '.6g')},"
        f"{'' if delay_s is None else format(delay_s * 1000.0, '.6g')},"
        f"{_OUTCOME_TEXT[record.outcome]}\n"
    )


def write_records_csv(
    groups: Iterable[tuple[tuple[float, str, float], Iterable[HandoverRecord]]], path: str | Path
) -> None:
    """Write the records CSV from ``(config_columns(cfg), records)`` groups, in order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for columns, records in groups:
            cells = _config_cells(columns)
            fh.writelines([record_row(rec, cells) for rec in records])


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
    n_cells = trace.snr_db.shape[0]
    columns = (
        ["tick", "snapshot", "position_m"]
        + [f"snr_db_cell{c}" for c in range(n_cells)]
        + [f"eff_snr_db_cell{c}" for c in range(n_cells)]
        + ["serving_cell", "interrupted", "throughput_bps"]
    )
    values = (
        [trace.tick_snapshots, trace.positions_m, *trace.snr_db, *trace.effective_snr_db]
        + [trace.serving_cell, trace.interrupted.astype(int), trace.throughput_bps]  # not True/False
    )
    rows = zip(range(trace.tick_snapshots.size), *(column.tolist() for column in values))
    _write_csv(path, columns, rows)
