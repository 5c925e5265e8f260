"""LTE hard-handover procedure as a per-run state machine.

The machine follows the standard step order: the A3 entering condition
(target exceeds serving by a hysteresis margin) must hold for a full
time-to-trigger, then a measurement report goes out gated on the uplink SNR,
preparation and command delays elapse with the command gated on the downlink
SNR, and SIB reading plus the RACH procedure complete the handover gated on
both links toward the target. A failed RACH ends in a fixed-delay
re-establishment to the strongest cell.

Protocol delays accumulate in continuous time from the report and are
quantised up to the measurement sample grid, so the default
50 + 15 + 55 ms pipeline completes exactly 3 samples (120 ms) after the
report.

``HandoverFsm`` has two drives that must agree on every record, event and
final state: ``run`` is the attempt loop, which resolves a whole trace one
attempt per iteration and reads each gate only at the tick on which it is
due, and ``step`` is the per-tick literal form, which consumes one tick at a
time. ``run`` builds no per-tick array: ``tick_trace`` derives the serving
cell and the interruption on each tick from the records and the final state.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class Outcome(str, Enum):
    SUCCESS = "Success"
    FAIL_UPLINK_REPORT = "FailUplinkReport"
    FAIL_DOWNLINK_COMMAND = "FailDownlinkCommand"
    FAIL_RACH = "FailRach"
    NOT_TRIGGERED = "NotTriggered"


class Postponement(Enum):
    """How mobility between the report and command positions affects execution."""

    NO_HANDOVER = "NoHandover"
    HANDOVER_AT_B = "HandoverAtB"
    POSTPONED = "Postponed"


@dataclass(frozen=True)
class HandoverConfig:
    hysteresis_db: float = 2.0
    ttt_s: float = 0.040
    snr_gate_db: float = -10.0
    preparation_delay_s: float = 0.050
    command_delay_s: float = 0.015
    sib_rach_delay_s: float = 0.055
    reestablishment_delay_s: float = 0.200

    def __post_init__(self) -> None:
        if self.ttt_s <= 0.0:
            raise ValueError("ttt_s must be positive")
        for name in (
            "preparation_delay_s",
            "command_delay_s",
            "sib_rach_delay_s",
            "reestablishment_delay_s",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    def ttt_samples(self, sample_period_s: float) -> int:
        """TTT expressed in measurement samples; must sit on the sample grid."""
        ratio = self.ttt_s / sample_period_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"ttt_s {self.ttt_s} is not a positive multiple of the "
                f"{sample_period_s} s sample period"
            )
        return round(ratio)


def a3_condition(l3_target_db, l3_serving_db, hysteresis_db: float):
    """Entering condition: target exceeds serving by at least the hysteresis (scalars or arrays)."""
    return l3_target_db - l3_serving_db >= hysteresis_db


def classify_postponement(
    margin_at_report_db: float,
    margin_at_command_db: float,
    hysteresis_db: float,
) -> Postponement:
    """Classify handover execution from the A3 margins at the two positions.

    ``margin_at_report_db`` is the target-minus-serving margin where the
    measurement report would be sent (position A), ``margin_at_command_db``
    where the command would be received (position B, further along, so the
    margin must be strictly larger). The entering condition is inclusive, so
    a margin equal to the hysteresis counts as triggered.
    """
    h_a, h_b, h0 = margin_at_report_db, margin_at_command_db, hysteresis_db
    if not h_a < h_b:
        raise ValueError(f"margin at the report position must be below the command one ({h_a} >= {h_b})")
    if h_a >= h0:
        return Postponement.HANDOVER_AT_B
    if h_b >= h0:
        return Postponement.POSTPONED
    return Postponement.NO_HANDOVER


@dataclass(slots=True)
class HandoverRecord:
    """Per-attempt outcome record; tick fields are None for phases never reached."""

    run_id: int
    serving_cell: int
    target_cell: int | None
    outcome: Outcome
    trigger_tick: int | None = None
    report_tick: int | None = None
    command_tick: int | None = None
    completion_tick: int | None = None
    reestablish_until_tick: int | None = None
    start_position_m: float | None = None
    total_delay_s: float | None = None


class Phase(Enum):
    MONITORING = "Monitoring"
    TTT_RUNNING = "TttRunning"
    PREPARING = "Preparing"
    RACH_IN_PROGRESS = "RachInProgress"
    REESTABLISHING = "Reestablishing"


def _delay_ticks(delay_s: float, sample_period_s: float) -> int:
    """Ticks until a continuous-time delay has elapsed, rounded up to the grid."""
    return max(0, math.ceil(delay_s / sample_period_s - 1e-9))


def _best_other(l3_db: Sequence[float], serving: int) -> int | None:
    """The strongest cell other than ``serving``; the first maximum, so the lowest cell id wins a tie."""
    best = None
    for cell, value in enumerate(l3_db):
        if cell != serving and (best is None or value > top):
            best, top = cell, value
    return best


def _strongest(l3_db: Sequence[float]) -> int:
    """The strongest cell, by the tie rule of ``_best_other``."""
    return _best_other(l3_db, -1)


def link_ranking(l3_db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(margins, strongest)`` of ``(n_cells, n_ticks)`` L3, which the machines of one link share.

    ``margins[s]`` is serving cell s's A3 margin ``max_{c != s} L3[c] - L3[s]``
    (no row for one cell) and ``strongest`` is ``_strongest`` of every tick,
    from running maxima of the cells below and above s: the strongest is the
    last cell above the maximum below it. ``max`` is exact and keeps the last
    of equal values in both chains, as a literal ``max`` does, so the margins
    equal it bit for bit. A margin of an infinity against itself is NaN,
    which never enters.
    """
    l3 = np.asarray(l3_db, dtype=float)
    if np.isnan(l3).any():
        raise ValueError("l3_db contains NaN")
    n_cells, n_ticks = l3.shape
    strongest = np.zeros(n_ticks, dtype=int)
    if n_cells == 1:
        return np.empty((0, n_ticks)), strongest
    margins = np.empty_like(l3)  # row s >= 1 first holds the maximum of the cells below s
    margins[1] = l3[0]
    for c in range(1, n_cells):
        np.putmask(strongest, l3[c] > margins[c], c)
        if c + 1 < n_cells:
            np.maximum(margins[c], l3[c], out=margins[c + 1])
    above = l3[-1].copy()  # the maximum of the cells above s, from the last cell down
    for s in range(n_cells - 2, 0, -1):
        np.maximum(margins[s], above, out=margins[s])
        np.maximum(l3[s], above, out=above)
    margins[0] = above
    with np.errstate(invalid="ignore"):  # a cell level with its strongest rival at an infinity: inf - inf
        margins -= l3
    return margins, strongest


def _entering_bounds(margin_db: np.ndarray, hysteresis_db: float) -> list[int]:
    """Runs of ticks on which the A3 margin reaches the hysteresis.

    The runs' half-open bounds come flattened, in tick order:
    ``[start_0, end_0, start_1, end_1, ...]``.
    """
    entering = np.zeros(margin_db.size + 2, dtype=bool)  # padded with a non-entering tick each side
    entering[1:-1] = margin_db >= hysteresis_db
    return np.flatnonzero(entering[1:] != entering[:-1]).tolist()


class HandoverFsm:
    """Handover state machine of a single UE on the measurement tick grid.

    ``step`` consumes one tick of per-cell L3 measurements and per-cell
    instantaneous uplink/downlink effective SNRs (the SNR gates apply to the
    serving cell for the report and command, to the target cell for the RACH
    check) and returns the records of any attempt that terminated this tick.
    State transitions are logged in ``events`` as (name, tick) pairs.

    The report goes out ``n_ttt - 1`` ticks after the trigger. The protocol
    timers count from the report tick: the command is due after prep + cmd,
    the RACH check after prep + cmd + SIB/RACH, each rounded up to whole
    ticks; re-establishment ends its own delay after a failed RACH check.

    ``run`` is the attempt loop: it drives a whole trace one attempt per
    iteration, inline, and never calls ``step``. ``step`` is one straight
    method in ``run``'s order (re-establishment, A3/TTT, report gate,
    command gate, RACH check), so a transition that the two drives share
    sits at the same place in both. Every transition is due on a tick known
    in advance: TTT starts on the next A3 entering tick ``e`` (from the
    entering runs of the serving cell, found once per cell from its
    ``link_ranking`` margins) and resets on the first tick after ``e`` that
    is not entering; the report is due on ``e + n_ttt - 1``, the command and
    the RACH check at their offsets from the report, and the reconnection at
    the end of re-establishment. ``run`` reads the gates there and nowhere
    else. ``step`` is the per-tick literal form, and the two must agree on
    every record, every event and the final state. Both pick cells by one
    tie rule, the lowest cell id wins: ``step`` by ``_best_other`` and
    ``_strongest``, ``run`` by ``link_ranking``.
    """

    def __init__(
        self,
        cfg: HandoverConfig,
        sample_period_s: float,
        n_cells: int,
        serving_cell: int,
        run_id: int = 0,
    ) -> None:
        if n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        if not 0 <= serving_cell < n_cells:
            raise ValueError("serving_cell out of range")
        self.cfg = cfg
        self.sample_period_s = sample_period_s
        self.n_cells = n_cells
        self.run_id = run_id
        self.serving_cell: int | None = serving_cell
        self.target_cell: int | None = None
        self.phase = Phase.MONITORING
        self.events: list[tuple[str, int]] = []
        self._n_ttt = cfg.ttt_samples(sample_period_s)
        command_s = cfg.preparation_delay_s + cfg.command_delay_s
        self._command_ticks = _delay_ticks(command_s, sample_period_s)
        self._completion_ticks = _delay_ticks(command_s + cfg.sib_rach_delay_s, sample_period_s)
        # Reconnection is checked from the tick after the failed RACH on.
        self._reestablish_ticks = max(1, _delay_ticks(cfg.reestablishment_delay_s, sample_period_s))
        self._trigger_tick: int | None = None
        self._report_tick: int | None = None
        self._command_tick: int | None = None
        self._reestablish_until: int | None = None
        self._next_tick = 0

    def run(
        self,
        l3_db: np.ndarray,
        ul_snr_db: np.ndarray,
        dl_snr_db: np.ndarray,
        margins: np.ndarray,
        strongest: np.ndarray,
    ) -> list[HandoverRecord]:
        """Drive a fresh machine over ``(n_cells, n_ticks)`` arrays.

        Returns the records of every terminated attempt, in tick order.
        ``margins`` and ``strongest`` are ``link_ranking`` of ``l3_db``. The
        records, events and final state equal ``step``'s.
        """
        l3 = np.asarray(l3_db, dtype=float)
        ul = np.asarray(ul_snr_db, dtype=float)
        dl = np.asarray(dl_snr_db, dtype=float)
        if l3.ndim != 2 or l3.shape[0] != self.n_cells or ul.shape != l3.shape or dl.shape != l3.shape:
            raise ValueError(f"expected three ({self.n_cells}, n_ticks) arrays")
        if self._next_tick != 0:
            raise ValueError("run needs a machine that has not been stepped yet")
        n_ticks = l3.shape[1]
        rows = self.n_cells if self.n_cells > 1 else 0
        if len(strongest) != n_ticks or len(margins) != rows or any(m.shape != (n_ticks,) for m in margins):
            raise ValueError("margins and strongest must be those of l3_db")
        n_ttt, h, gate = self._n_ttt, self.cfg.hysteresis_db, self.cfg.snr_gate_db
        command_ticks, completion_ticks = self._command_ticks, self._completion_ticks
        reestablish_ticks = self._reestablish_ticks
        run_id, period = self.run_id, self.sample_period_s
        columns = l3.T  # a row of it is the L3 of every cell on one tick
        add = self.events.append
        records: list[HandoverRecord] = []
        entering: dict[int, list[int]] = {}
        until = self._reestablish_until
        s = self.serving_cell
        t = 0  # first tick on which an attempt may start
        # the loop ends with state = (phase, target, trigger, report, command) of the last tick
        while True:
            bounds = entering.get(s)
            if bounds is None:
                bounds = entering[s] = _entering_bounds(margins[s], h) if rows else []
            j = bisect_right(bounds, t)
            if j == len(bounds):
                state = Phase.MONITORING, None, None, None, None
                break
            # An odd count of bounds up to t puts t inside an entering run.
            e, end = (t, bounds[j]) if j % 2 else (bounds[j], bounds[j + 1])
            add(("ttt_start", e))
            if end - e < n_ttt:  # the run ends before TTT does
                if end == n_ticks:
                    target = strongest.item(end - 1)
                    if target == s:  # the serving cell is strongest: a tie at 0 dB or a negative hysteresis
                        target = _best_other(columns[end - 1].tolist(), s)
                    state = Phase.TTT_RUNNING, target, e, None, None
                    break
                add(("ttt_reset", end))
                t = end + 1
                continue
            r = e + n_ttt - 1
            target = strongest.item(r)
            if target == s:
                target = _best_other(columns[r].tolist(), s)
            if ul.item(s, r) < gate:
                records.append(HandoverRecord(run_id, s, target, Outcome.FAIL_UPLINK_REPORT, e, r))
                add(("report_blocked", r))
                t = r + 1
                continue
            add(("report", r))
            c = r + command_ticks
            if c >= n_ticks:
                state = Phase.PREPARING, target, e, r, None
                break
            if dl.item(s, c) < gate:
                records.append(HandoverRecord(run_id, s, target, Outcome.FAIL_DOWNLINK_COMMAND, e, r, c))
                add(("command_blocked", c))
                t = c + 1
                continue
            add(("command", c))
            d = r + completion_ticks
            if d >= n_ticks:
                state = Phase.RACH_IN_PROGRESS, target, e, r, c
                break
            delay_s = (d - r) * period
            if ul.item(target, d) >= gate and dl.item(target, d) >= gate:
                records.append(HandoverRecord(run_id, s, target, Outcome.SUCCESS, e, r, c, d, None, None, delay_s))
                add(("connected", d))
                s, t = target, d + 1
                continue
            until = d + reestablish_ticks
            records.append(HandoverRecord(run_id, s, target, Outcome.FAIL_RACH, e, r, c, d, until, None, delay_s))
            add(("rach_failed", d))
            if until >= n_ticks:
                s, state = None, (Phase.REESTABLISHING, target, e, r, c)
                break
            s = strongest.item(until)
            add(("reestablished", until))
            t = until
        self.phase, self.target_cell, self._trigger_tick, self._report_tick, self._command_tick = state
        self.serving_cell, self._reestablish_until, self._next_tick = s, until, n_ticks
        return records

    def tick_trace(self, records: Sequence[HandoverRecord]) -> tuple[np.ndarray, np.ndarray]:
        """Per tick consumed: the serving cell after it (-1 while re-establishing) and whether the link is down.

        ``records`` are every record the machine returned. The serving cell
        changes only where an attempt completes; the link is down from a
        command to the completion of a success, or to the end of the
        re-establishment after a failed RACH. An attempt still in
        ``RachInProgress`` when the ticks end has no record, and its link is
        down from the command to the last tick. Matches reading the serving
        cell and whether the phase is ``RachInProgress`` or ``Reestablishing``
        after every ``step``.
        """
        n_ticks = self._next_tick
        serving = np.empty(n_ticks, dtype=int)
        interrupted = np.zeros(n_ticks, dtype=bool)
        since = 0
        for rec in records:
            if rec.completion_tick is not None:  # a success or a failed RACH
                end = rec.completion_tick if rec.outcome is Outcome.SUCCESS else rec.reestablish_until_tick
                serving[since : rec.completion_tick] = rec.serving_cell
                serving[rec.completion_tick : end] = -1
                interrupted[rec.command_tick : end] = True
                since = end
        serving[since:] = -1 if self.serving_cell is None else self.serving_cell
        if self.phase is Phase.RACH_IN_PROGRESS:
            interrupted[self._command_tick :] = True
        return serving, interrupted

    # The state that ``step`` resets and the records it builds.

    def _reset_monitoring(self) -> None:
        self.phase = Phase.MONITORING
        self.target_cell = None
        self._trigger_tick = None
        self._report_tick = None
        self._command_tick = None

    def _record(
        self, outcome: Outcome, command_tick=None, completion_tick=None, until_tick=None, delay_s=None
    ) -> HandoverRecord:
        return HandoverRecord(
            self.run_id, self.serving_cell, self.target_cell, outcome, self._trigger_tick,
            self._report_tick, command_tick, completion_tick, until_tick, None, delay_s,
        )

    def step(
        self,
        tick: int,
        l3_db: Sequence[float],
        ul_snr_db: Sequence[float],
        dl_snr_db: Sequence[float],
    ) -> list[HandoverRecord]:
        if tick != self._next_tick:
            raise ValueError(f"ticks must advance by exactly 1 (expected {self._next_tick}, got {tick})")
        self._next_tick = tick + 1
        gate, add = self.cfg.snr_gate_db, self.events.append

        if self.phase is Phase.REESTABLISHING:
            if tick < self._reestablish_until:
                return []
            self.serving_cell = _strongest(l3_db)
            add(("reestablished", tick))
            self._reset_monitoring()
        s = self.serving_cell

        if self.phase in (Phase.MONITORING, Phase.TTT_RUNNING):
            target = _best_other(l3_db, s)
            if target is not None and a3_condition(l3_db[target], l3_db[s], self.cfg.hysteresis_db):
                if self.phase is Phase.MONITORING:
                    self.phase, self._trigger_tick = Phase.TTT_RUNNING, tick
                    add(("ttt_start", tick))
                self.target_cell = target
            elif self.phase is Phase.TTT_RUNNING:
                add(("ttt_reset", tick))
                self._reset_monitoring()

            # Ticks advance by exactly 1 and TTT resets on the first tick
            # without entering, so the trigger tick counts the TTT.
            if self.phase is Phase.TTT_RUNNING and tick - self._trigger_tick + 1 >= self._n_ttt:
                self._report_tick = tick
                if ul_snr_db[s] < gate:  # the report, gated on the serving cell's uplink
                    record = self._record(Outcome.FAIL_UPLINK_REPORT)
                    add(("report_blocked", tick))
                    self._reset_monitoring()
                    return [record]
                self.phase = Phase.PREPARING
                add(("report", tick))

        if self.phase is Phase.PREPARING and tick - self._report_tick >= self._command_ticks:
            if dl_snr_db[s] < gate:  # the command, gated on the serving cell's downlink
                record = self._record(Outcome.FAIL_DOWNLINK_COMMAND, tick)
                add(("command_blocked", tick))
                self._reset_monitoring()
                return [record]
            self.phase, self._command_tick = Phase.RACH_IN_PROGRESS, tick
            add(("command", tick))

        if self.phase is Phase.RACH_IN_PROGRESS and tick - self._report_tick >= self._completion_ticks:
            # SIB reading and RACH, gated on both links toward the target: connect, or re-establish
            target = self.target_cell
            delay_s = (tick - self._report_tick) * self.sample_period_s
            if ul_snr_db[target] >= gate and dl_snr_db[target] >= gate:
                record = self._record(Outcome.SUCCESS, self._command_tick, tick, None, delay_s)
                self.serving_cell = target
                add(("connected", tick))
                self._reset_monitoring()
            else:
                self._reestablish_until = tick + self._reestablish_ticks
                record = self._record(Outcome.FAIL_RACH, self._command_tick, tick, self._reestablish_until, delay_s)
                add(("rach_failed", tick))
                self.serving_cell, self.phase = None, Phase.REESTABLISHING
            return [record]
        return []
