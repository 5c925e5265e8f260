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
final state: ``step`` consumes one tick at a time, and ``run`` resolves a
whole trace attempt by attempt, reading each gate only at the tick on which
it is due.
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


def interruption_window(record: HandoverRecord) -> tuple[int, int]:
    """Half-open tick interval [command, reconnect) with zero throughput.

    For a success the connection resumes at the completion tick; a failed
    RACH stays dark through re-establishment. Other outcomes never break the
    connection.
    """
    if record.outcome is Outcome.SUCCESS:
        return record.command_tick, record.completion_tick
    if record.outcome is Outcome.FAIL_RACH:
        return record.command_tick, record.reestablish_until_tick
    raise ValueError(f"no interruption window for outcome {record.outcome.value}")


class Phase(Enum):
    MONITORING = "Monitoring"
    TTT_RUNNING = "TttRunning"
    PREPARING = "Preparing"
    RACH_IN_PROGRESS = "RachInProgress"
    REESTABLISHING = "Reestablishing"


def _delay_ticks(delay_s: float, sample_period_s: float) -> int:
    """Ticks until a continuous-time delay has elapsed, rounded up to the grid."""
    return max(0, math.ceil(delay_s / sample_period_s - 1e-9))


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

    ``run`` drives a whole trace one attempt per iteration and calls
    ``step`` on no tick. Every transition is due on a tick known in
    advance: TTT starts on the next A3 entering tick ``e`` (from the entering
    runs of the serving cell, found once per cell by ``_entering_runs``) and
    resets on the first tick after ``e`` that is not entering; the report is
    due on ``e + n_ttt - 1``, the command and the RACH check at their offsets
    from the report, and the reconnection at the end of re-establishment.
    ``run`` reads the gates there and nowhere else. ``step`` is the per-tick
    form that ``run`` must equal; both apply the same transition methods and
    ``_best_non_serving`` (the lowest cell id wins a tie), so each record and
    each event is built in one place.
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

    def _best_non_serving(self, l3_db: Sequence[float]) -> int | None:
        s = self.serving_cell
        others = [*l3_db[:s], *l3_db[s + 1 :]]
        if not others:
            return None
        best = others.index(max(others))  # the first maximum: the lowest cell id wins a tie
        return best + (best >= s)

    def _strongest(self, l3_db: Sequence[float]) -> int:
        return max(range(self.n_cells), key=l3_db.__getitem__)

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

    # Transitions, shared by ``step`` and ``run``; records are appended to ``out``.

    def _start_ttt(self, tick: int) -> None:
        self.phase = Phase.TTT_RUNNING
        self._trigger_tick = tick
        self.events.append(("ttt_start", tick))

    def _reset_ttt(self, tick: int) -> None:
        self.events.append(("ttt_reset", tick))
        self._reset_monitoring()

    def _report(self, tick: int, ul_serving_db: float, out: list[HandoverRecord]) -> None:
        """Send the measurement report, gated on the serving cell's uplink SNR."""
        self._report_tick = tick
        if ul_serving_db < self.cfg.snr_gate_db:
            out.append(self._record(Outcome.FAIL_UPLINK_REPORT))
            self.events.append(("report_blocked", tick))
            self._reset_monitoring()
        else:
            self.phase = Phase.PREPARING
            self.events.append(("report", tick))

    def _command(self, tick: int, dl_serving_db: float, out: list[HandoverRecord]) -> None:
        """Receive the handover command, gated on the serving cell's downlink SNR."""
        if dl_serving_db < self.cfg.snr_gate_db:
            out.append(self._record(Outcome.FAIL_DOWNLINK_COMMAND, tick))
            self.events.append(("command_blocked", tick))
            self._reset_monitoring()
        else:
            self._command_tick = tick
            self.phase = Phase.RACH_IN_PROGRESS
            self.events.append(("command", tick))

    def _complete(
        self, tick: int, ul_target_db: float, dl_target_db: float, out: list[HandoverRecord]
    ) -> None:
        """Check SIB reading and RACH toward the target: connect, or start re-establishment."""
        target = self.target_cell
        connected = ul_target_db >= self.cfg.snr_gate_db and dl_target_db >= self.cfg.snr_gate_db
        until = None if connected else tick + self._reestablish_ticks
        outcome = Outcome.SUCCESS if connected else Outcome.FAIL_RACH
        delay_s = (tick - self._report_tick) * self.sample_period_s
        out.append(self._record(outcome, self._command_tick, tick, until, delay_s))
        if connected:
            self.serving_cell = target
            self.events.append(("connected", tick))
            self._reset_monitoring()
        else:
            self.events.append(("rach_failed", tick))
            self._reestablish_until = until
            self.serving_cell = None
            self.phase = Phase.REESTABLISHING

    def _reconnect(self, tick: int, l3_db: Sequence[float]) -> None:
        self.serving_cell = self._strongest(l3_db)
        self.events.append(("reestablished", tick))
        self._reset_monitoring()

    def _entering_runs(self, l3_db: np.ndarray, serving: int) -> list[int]:
        """Runs of ticks on which max_{c != serving} L3[c] - L3[serving] >= hysteresis.

        The runs' half-open bounds come flattened, in tick order:
        ``[start_0, end_0, start_1, end_1, ...]``.
        """
        if self.n_cells == 1:
            return []
        best_other = l3_db[[c for c in range(self.n_cells) if c != serving]].max(axis=0)
        entering = np.zeros(l3_db.shape[1] + 2, dtype=bool)  # padded with a non-entering tick each side
        entering[1:-1] = a3_condition(best_other, l3_db[serving], self.cfg.hysteresis_db)
        return np.flatnonzero(entering[1:] != entering[:-1]).tolist()

    def run(
        self,
        l3_db: np.ndarray,
        ul_snr_db: np.ndarray,
        dl_snr_db: np.ndarray,
    ) -> tuple[list[HandoverRecord], np.ndarray]:
        """Drive a fresh machine over ``(n_cells, n_ticks)`` arrays.

        Returns the records of every terminated attempt, in tick order, and
        the serving cell after each tick (-1 while re-establishing). The
        result, the events and the final state equal calling ``step`` on
        every tick.
        """
        l3 = np.asarray(l3_db, dtype=float)
        ul = np.asarray(ul_snr_db, dtype=float)
        dl = np.asarray(dl_snr_db, dtype=float)
        if l3.ndim != 2 or l3.shape[0] != self.n_cells or ul.shape != l3.shape or dl.shape != l3.shape:
            raise ValueError(f"expected three ({self.n_cells}, n_ticks) arrays")
        if np.isnan(l3).any():
            raise ValueError("l3_db contains NaN")
        if self._next_tick != 0:
            raise ValueError("run needs a machine that has not been stepped yet")
        n_ticks = l3.shape[1]
        n_ttt = self._n_ttt
        serving = np.empty(n_ticks, dtype=int)
        records: list[HandoverRecord] = []
        entering: dict[int, list[int]] = {}
        s = self.serving_cell
        since = 0  # first tick served by s
        t = 0  # first tick on which an attempt may start
        while True:
            bounds = entering.get(s)
            if bounds is None:
                bounds = entering[s] = self._entering_runs(l3, s)
            j = bisect_right(bounds, t)
            if j == len(bounds):
                break
            # An odd count of bounds up to t puts t inside an entering run.
            e, end = (t, bounds[j]) if j % 2 else (bounds[j], bounds[j + 1])
            self._start_ttt(e)
            if end - e < n_ttt:  # the run ends before TTT does
                if end == n_ticks:
                    self.target_cell = self._best_non_serving(l3[:, end - 1].tolist())
                    break
                self._reset_ttt(end)
                t = end + 1
                continue
            r = e + n_ttt - 1
            self.target_cell = self._best_non_serving(l3[:, r].tolist())
            self._report(r, ul[s, r], records)
            if self.phase is not Phase.PREPARING:
                t = r + 1
                continue
            c = r + self._command_ticks
            if c >= n_ticks:
                break
            self._command(c, dl[s, c], records)
            if self.phase is not Phase.RACH_IN_PROGRESS:
                t = c + 1
                continue
            d = r + self._completion_ticks
            if d >= n_ticks:
                break
            target = self.target_cell
            self._complete(d, ul[target, d], dl[target, d], records)
            serving[since:d] = s
            if self.phase is Phase.MONITORING:
                s, since, t = target, d, d + 1
                continue
            u = self._reestablish_until
            serving[d:u] = -1
            since = u
            if u >= n_ticks:
                break
            self._reconnect(u, l3[:, u].tolist())
            s, t = self.serving_cell, u
        serving[since:] = s
        self._next_tick = n_ticks
        return records, serving

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
        out: list[HandoverRecord] = []

        if self.phase is Phase.REESTABLISHING:
            if tick < self._reestablish_until:
                return out
            self._reconnect(tick, l3_db)

        if self.phase in (Phase.MONITORING, Phase.TTT_RUNNING):
            target = self._best_non_serving(l3_db)
            entered = target is not None and a3_condition(
                l3_db[target], l3_db[self.serving_cell], self.cfg.hysteresis_db
            )
            if entered:
                if self.phase is Phase.MONITORING:
                    self._start_ttt(tick)
                self.target_cell = target
            elif self.phase is Phase.TTT_RUNNING:
                self._reset_ttt(tick)

            # Ticks advance by exactly 1 and TTT resets on the first tick
            # without entering, so the trigger tick counts the TTT.
            if self.phase is Phase.TTT_RUNNING and tick - self._trigger_tick + 1 >= self._n_ttt:
                self._report(tick, ul_snr_db[self.serving_cell], out)

        if self.phase is Phase.PREPARING and tick - self._report_tick >= self._command_ticks:
            self._command(tick, dl_snr_db[self.serving_cell], out)

        if self.phase is Phase.RACH_IN_PROGRESS and tick - self._report_tick >= self._completion_ticks:
            self._complete(tick, ul_snr_db[self.target_cell], dl_snr_db[self.target_cell], out)
        return out
