import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railho.config import apply_overrides
from railho.handover import (
    HandoverConfig,
    HandoverFsm,
    HandoverRecord,
    Outcome,
    Phase,
    Postponement,
    a3_condition,
    classify_postponement,
    interruption_window,
)
from railho.simulate import RunTrace, simulate_run

HIGH = 30.0
LOW = -50.0
PERIOD = 0.040


def fsm(cfg=None, n_cells=2, serving=0) -> HandoverFsm:
    return HandoverFsm(cfg or HandoverConfig(hysteresis_db=3.0), PERIOD, n_cells, serving)


def drive(machine, l3_rows, ul_rows=None, dl_rows=None):
    records = []
    for t, l3 in enumerate(l3_rows):
        ul = ul_rows[t] if ul_rows else [HIGH] * machine.n_cells
        dl = dl_rows[t] if dl_rows else [HIGH] * machine.n_cells
        records.extend(machine.step(t, l3, ul, dl))
    return records


def cond_rows(cond, margin=5.0):
    """Two-cell l3 rows where the A3 margin is +margin when cond else -margin."""
    return [[0.0, margin if c else -margin] for c in cond]


class TestA3Condition:
    def test_zero_margin_below_hysteresis(self):
        assert not a3_condition(-60.0, -60.0, 3.0)

    def test_clear_margin(self):
        assert a3_condition(-60.0, -66.0, 3.0)

    def test_boundary_is_inclusive(self):
        assert a3_condition(-60.0, -66.0, 6.0)


def postponement_oracle(h_a, h_b, h0):
    """Literal enumeration of the three margin orderings, inclusive trigger."""
    if h_a < h_b < h0:
        return Postponement.NO_HANDOVER
    if h0 < h_a < h_b:
        return Postponement.HANDOVER_AT_B
    if h_a < h0 < h_b:
        return Postponement.POSTPONED
    # boundary cases: trigger condition is inclusive, so equality with the
    # hysteresis counts as triggered at that position
    if h0 == h_a:
        return Postponement.HANDOVER_AT_B
    assert h0 == h_b
    return Postponement.POSTPONED


class TestClassifyPostponement:
    def test_not_triggered_anywhere(self):
        assert classify_postponement(1.0, 2.0, 3.0) is Postponement.NO_HANDOVER

    def test_already_triggered_at_report(self):
        assert classify_postponement(4.0, 5.0, 3.0) is Postponement.HANDOVER_AT_B

    def test_triggered_between_positions(self):
        assert classify_postponement(2.0, 5.0, 3.0) is Postponement.POSTPONED

    def test_boundary_equalities(self):
        assert classify_postponement(3.0, 5.0, 3.0) is Postponement.HANDOVER_AT_B
        assert classify_postponement(1.0, 3.0, 3.0) is Postponement.POSTPONED

    def test_ordering_precondition(self):
        with pytest.raises(ValueError):
            classify_postponement(5.0, 4.0, 3.0)

    @given(
        h_a=st.floats(min_value=-10.0, max_value=10.0),
        h_b=st.floats(min_value=-10.0, max_value=10.0),
        h0=st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_exhaustive_and_matches_oracle(self, h_a, h_b, h0):
        if h_a >= h_b:
            with pytest.raises(ValueError):
                classify_postponement(h_a, h_b, h0)
        else:
            assert classify_postponement(h_a, h_b, h0) is postponement_oracle(h_a, h_b, h0)


class TestHandoverConfig:
    def test_ttt_on_grid(self):
        assert HandoverConfig(ttt_s=0.040).ttt_samples(PERIOD) == 1
        assert HandoverConfig(ttt_s=0.080).ttt_samples(PERIOD) == 2

    def test_ttt_off_grid_rejected(self):
        with pytest.raises(ValueError):
            HandoverConfig(ttt_s=0.050).ttt_samples(PERIOD)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            HandoverConfig(preparation_delay_s=-0.01)


class TestFsmScenarios:
    def test_clean_success_has_three_sample_delay(self):
        machine = fsm()
        records = drive(machine, cond_rows([True] * 10))
        assert [r.outcome for r in records] == [Outcome.SUCCESS]
        rec = records[0]
        assert rec.trigger_tick == 0
        assert rec.report_tick == 0
        assert rec.command_tick == 2      # ceil((50 + 15) / 40) samples after the report
        assert rec.completion_tick == 3   # ceil((50 + 15 + 55) / 40) = 120 ms
        assert rec.total_delay_s == pytest.approx(0.120, abs=1e-12)
        assert machine.serving_cell == 1

    def test_uplink_gate_blocks_report(self):
        machine = fsm()
        ul = [[-12.0, HIGH]] * 4
        records = drive(machine, cond_rows([True] * 4), ul_rows=ul)
        assert all(r.outcome is Outcome.FAIL_UPLINK_REPORT for r in records)
        assert machine.serving_cell == 0
        assert records[0].report_tick == 0
        assert records[0].command_tick is None

    def test_flicker_never_leaves_monitoring_with_two_sample_ttt(self):
        machine = fsm(HandoverConfig(hysteresis_db=3.0, ttt_s=0.080))
        records = drive(machine, cond_rows([True, False] * 8))
        assert records == []
        assert machine.phase is Phase.MONITORING

    def test_two_sample_ttt_reports_on_second_tick(self):
        machine = fsm(HandoverConfig(hysteresis_db=3.0, ttt_s=0.080))
        records = drive(machine, cond_rows([False, True, True, True, True, True, True]))
        assert records[0].trigger_tick == 1
        assert records[0].report_tick == 2

    def test_downlink_gate_blocks_command(self):
        machine = fsm()
        dl = [[HIGH, HIGH]] * 2 + [[-11.0, HIGH]] * 2 + [[HIGH, HIGH]] * 10
        records = drive(machine, cond_rows([True] * 14), dl_rows=dl)
        assert records[0].outcome is Outcome.FAIL_DOWNLINK_COMMAND
        assert records[0].command_tick == 2
        assert records[0].completion_tick is None
        # the machine retries and eventually completes
        assert records[-1].outcome is Outcome.SUCCESS

    def test_rach_failure_reestablishes_to_strongest(self):
        machine = fsm()
        # target uplink too weak at the completion tick
        ul = [[HIGH, LOW]] * 20
        records = drive(machine, cond_rows([True] * 20), ul_rows=ul)
        rec = records[0]
        assert rec.outcome is Outcome.FAIL_RACH
        assert rec.completion_tick == 3
        assert rec.reestablish_until_tick == 3 + 5  # ceil(200 ms / 40 ms)
        assert ("reestablished", 8) in machine.events
        # reconnects to the strongest cell at that tick (the A3 target)
        assert machine.serving_cell == 1

    def test_zero_delays_collapse_to_single_tick(self):
        cfg = HandoverConfig(
            hysteresis_db=3.0,
            preparation_delay_s=0.0,
            command_delay_s=0.0,
            sib_rach_delay_s=0.0,
        )
        machine = fsm(cfg)
        records = drive(machine, cond_rows([True] * 3))
        rec = records[0]
        assert rec.report_tick == rec.command_tick == rec.completion_tick == 0
        assert interruption_window(rec) == (0, 0)

    def test_tick_monotonicity_enforced(self):
        machine = fsm()
        machine.step(0, [0.0, -5.0], [HIGH, HIGH], [HIGH, HIGH])
        with pytest.raises(ValueError):
            machine.step(2, [0.0, -5.0], [HIGH, HIGH], [HIGH, HIGH])

    def test_target_is_strongest_non_serving_with_low_id_tie_break(self):
        machine = fsm(n_cells=3)
        rows = [[0.0, 6.0, 6.0]] * 6
        records = drive(machine, rows)
        assert records[0].target_cell == 1

    def test_ttt_reset_restarts_trigger(self):
        machine = fsm(HandoverConfig(hysteresis_db=3.0, ttt_s=0.120))
        records = drive(machine, cond_rows([True, True, False] + [True] * 7))
        assert records[0].trigger_tick == 3
        assert records[0].report_tick == 5
        assert ("ttt_reset", 2) in machine.events


class TestInterruptionWindow:
    def success_record(self):
        machine = fsm()
        return drive(machine, cond_rows([True] * 6))[0]

    def test_success_window_spans_rach_phase(self):
        rec = self.success_record()
        assert interruption_window(rec) == (2, 3)

    def test_rach_failure_extends_through_reestablishment(self):
        machine = fsm()
        records = drive(machine, cond_rows([True] * 10), ul_rows=[[HIGH, LOW]] * 10)
        assert interruption_window(records[0]) == (2, 8)

    def test_rejects_outcomes_without_interruption(self):
        rec = HandoverRecord(
            run_id=0, serving_cell=0, target_cell=None, outcome=Outcome.NOT_TRIGGERED
        )
        with pytest.raises(ValueError):
            interruption_window(rec)


def first_record_oracle(cond, n_ttt, ul_ok, dl_ok, rach_ok, cfg):
    """Brute-force event timeline: scan for the first sustained trigger, then
    place the command and completion on the tick grid by interval arithmetic."""
    n = len(cond)
    run = 0
    for t in range(n):
        run = run + 1 if cond[t] else 0
        if run < n_ttt:
            continue
        if not ul_ok:
            return (Outcome.FAIL_UPLINK_REPORT, t - n_ttt + 1, t, None, None)
        cmd = t + math.ceil((cfg.preparation_delay_s + cfg.command_delay_s) / PERIOD - 1e-9)
        done = t + math.ceil(
            (cfg.preparation_delay_s + cfg.command_delay_s + cfg.sib_rach_delay_s) / PERIOD - 1e-9
        )
        if cmd >= n:
            return None
        if not dl_ok:
            return (Outcome.FAIL_DOWNLINK_COMMAND, t - n_ttt + 1, t, cmd, None)
        if done >= n:
            return None
        if not rach_ok:
            return (Outcome.FAIL_RACH, t - n_ttt + 1, t, cmd, done)
        return (Outcome.SUCCESS, t - n_ttt + 1, t, cmd, done)
    return None


class TestFsmAgainstTimelineOracle:
    def test_exhaustive_small_traces(self):
        cfg_by_ttt = {1: HandoverConfig(hysteresis_db=3.0), 2: HandoverConfig(hysteresis_db=3.0, ttt_s=0.080)}
        checked = 0
        for n_ttt, pattern, gates in itertools.product(
            (1, 2),
            itertools.product((False, True), repeat=6),
            itertools.product((False, True), repeat=3),
        ):
            ul_ok, dl_ok, rach_ok = gates
            cfg = cfg_by_ttt[n_ttt]
            machine = HandoverFsm(cfg, PERIOD, 2, 0)
            ul = [[HIGH if ul_ok else LOW, HIGH if rach_ok else LOW]] * 6
            dl = [[HIGH if dl_ok else LOW, HIGH if rach_ok else LOW]] * 6
            records = drive(machine, cond_rows(pattern), ul_rows=ul, dl_rows=dl)
            expected = first_record_oracle(pattern, n_ttt, ul_ok, dl_ok, rach_ok, cfg)
            if expected is None:
                assert not records or records[0].completion_tick is None or records[0].outcome is Outcome.FAIL_UPLINK_REPORT
                # no completed attempt can exist when the oracle predicts none
                assert all(r.outcome is not Outcome.SUCCESS for r in records)
            else:
                outcome, trigger, report, cmd, done = expected
                rec = records[0]
                assert rec.outcome is outcome
                assert rec.trigger_tick == trigger
                assert rec.report_tick == report
                assert rec.command_tick == cmd
                assert rec.completion_tick == done
                checked += 1
        assert checked > 200

    def test_event_order_follows_procedure(self):
        machine = fsm()
        drive(machine, cond_rows([False, True] + [True] * 8))
        names = [name for name, _ in machine.events]
        assert names == ["ttt_start", "report", "command", "connected"]


class TestTriggerMonotonicityInHysteresis:
    @given(data=st.data())
    @settings(max_examples=100)
    def test_first_trigger_never_earlier_with_larger_margin(self, data):
        n = 30
        rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=10_000)))
        rows = [[0.0, float(v)] for v in rng.normal(0.0, 4.0, size=n)]
        h_small = data.draw(st.floats(min_value=-2.0, max_value=6.0))
        h_large = h_small + data.draw(st.floats(min_value=0.0, max_value=4.0))

        def first_trigger(h0):
            machine = HandoverFsm(HandoverConfig(hysteresis_db=h0), PERIOD, 2, 0)
            records = drive(machine, rows)
            ticks = [r.trigger_tick for r in records if r.trigger_tick is not None]
            for name, tick in machine.events:
                if name == "ttt_start":
                    return tick
            return math.inf

        assert first_trigger(h_large) >= first_trigger(h_small)


class TestTttReportProperty:
    def test_fuzzed_reports_always_preceded_by_full_ttt(self):
        rng = np.random.default_rng(99)
        for _ in range(300):
            n_cells = int(rng.integers(2, 4))
            n = int(rng.integers(5, 40))
            ttt_ticks = int(rng.integers(1, 4))
            h0 = float(rng.uniform(-2.0, 4.0))
            cfg = HandoverConfig(hysteresis_db=h0, ttt_s=ttt_ticks * PERIOD)
            machine = HandoverFsm(cfg, PERIOD, n_cells, 0)
            l3 = rng.normal(0.0, 5.0, size=(n, n_cells))
            cond = []
            for t in range(n):
                serving = machine.serving_cell
                if serving is None:
                    cond.append(False)
                else:
                    best = max(
                        (c for c in range(n_cells) if c != serving),
                        key=lambda c: l3[t, c],
                    )
                    cond.append(l3[t, best] - l3[t, serving] >= h0)
                machine.step(t, list(l3[t]), [HIGH] * n_cells, [HIGH] * n_cells)
            for name, tick in machine.events:
                if name in ("report", "report_blocked"):
                    assert all(cond[tick - k] for k in range(ttt_ticks)), (
                        name,
                        tick,
                        cond,
                    )


class TestProtocolTimers:
    def test_fuzzed_delays_count_from_the_report(self):
        """Protocol offsets against exact rational ceilings.

        Delays are multiples of 10 ms, so many sums are exact multiples of
        the 40 ms period, which only the quantiser's 1e-9 slack keeps from
        rounding up a tick in floating point.
        """
        def ticks(ms):
            return math.ceil(Fraction(ms, 40))

        rng = np.random.default_rng(1703)
        outcomes = set()
        for _ in range(2000):
            prep_ms, cmd_ms, sib_ms, reest_ms = (10 * int(v) for v in rng.integers(0, 13, size=4))
            n_ttt = int(rng.integers(1, 4))
            cfg = HandoverConfig(
                hysteresis_db=3.0,
                ttt_s=n_ttt * PERIOD,
                preparation_delay_s=prep_ms / 1000.0,
                command_delay_s=cmd_ms / 1000.0,
                sib_rach_delay_s=sib_ms / 1000.0,
                reestablishment_delay_s=reest_ms / 1000.0,
            )
            target_ul = HIGH if rng.random() < 0.5 else LOW
            n = 20
            machine = HandoverFsm(cfg, PERIOD, 2, 0)
            records = drive(machine, cond_rows([True] * n), ul_rows=[[HIGH, target_ul]] * n)
            rec = records[0]
            outcomes.add(rec.outcome)
            assert rec.report_tick - rec.trigger_tick == n_ttt - 1
            assert rec.command_tick - rec.report_tick == ticks(prep_ms + cmd_ms)
            assert rec.completion_tick - rec.report_tick == ticks(prep_ms + cmd_ms + sib_ms)
            if target_ul == HIGH:
                assert rec.outcome is Outcome.SUCCESS
            else:
                assert rec.outcome is Outcome.FAIL_RACH
                # The machine reconnects on the first tick after the RACH check at the earliest.
                assert rec.reestablish_until_tick - rec.completion_tick == max(1, ticks(reest_ms))
                assert ("reestablished", rec.reestablish_until_tick) in machine.events
        assert outcomes == {Outcome.SUCCESS, Outcome.FAIL_RACH}


def literal_run(machine, l3_db, ul_snr_db, dl_snr_db):
    """Reference drive: ``step`` on every tick, serving cell read after each."""
    n_ticks = l3_db.shape[1]
    records = []
    serving = np.empty(n_ticks, dtype=int)
    for t in range(n_ticks):
        records.extend(
            machine.step(t, l3_db[:, t].tolist(), ul_snr_db[:, t].tolist(), dl_snr_db[:, t].tolist())
        )
        serving[t] = -1 if machine.serving_cell is None else machine.serving_cell
    return records, serving


def fuzzed_trace(rng):
    """Criterion 8's trace generator, widened to 1-4 cells and 1-60 ticks.

    L3 values and half of the hysteresis draws sit on an integer grid, so A3
    margins often equal the hysteresis exactly; random SNR dips below the
    -10 dB gate reach every outcome and re-establishment.
    """
    n_cells = int(rng.integers(1, 5))
    n = int(rng.integers(1, 61))
    ttt_ticks = int(rng.integers(1, 4))
    h0 = float(rng.integers(-3, 6)) if rng.random() < 0.5 else float(rng.uniform(-3.0, 5.0))
    cfg = HandoverConfig(hysteresis_db=h0, ttt_s=ttt_ticks * PERIOD)
    l3 = rng.integers(-6, 7, size=(n_cells, n)).astype(float)
    p_low = rng.uniform(0.0, 0.5)
    ul = np.where(rng.random((n_cells, n)) < p_low, -20.0, 30.0)
    dl = np.where(rng.random((n_cells, n)) < p_low, -20.0, 30.0)
    serving = int(rng.integers(0, n_cells))
    return cfg, n_cells, serving, l3, ul, dl


class TestEventDrivenRun:
    def test_run_matches_literal_step_loop_on_fuzzed_traces(self):
        rng = np.random.default_rng(20170328)
        outcomes = set()
        reestablished = 0
        for _ in range(3000):
            cfg, n_cells, serving, l3, ul, dl = fuzzed_trace(rng)
            fast = HandoverFsm(cfg, PERIOD, n_cells, serving, run_id=7)
            slow = HandoverFsm(cfg, PERIOD, n_cells, serving, run_id=7)
            fast_records, fast_serving = fast.run(l3, ul, dl)
            slow_records, slow_serving = literal_run(slow, l3, ul, dl)
            assert fast_records == slow_records
            assert fast.events == slow.events
            np.testing.assert_array_equal(fast_serving, slow_serving)
            assert fast.phase is slow.phase
            assert fast.serving_cell == slow.serving_cell
            assert fast.target_cell == slow.target_cell
            outcomes.update(r.outcome for r in slow_records)
            reestablished += any(name == "reestablished" for name, _ in slow.events)
        assert outcomes == set(Outcome) - {Outcome.NOT_TRIGGERED}
        assert reestablished > 10

    def test_simulate_run_equals_literal_drive(self, tiny_cfg, monkeypatch):
        def run(cfg, index):
            return simulate_run(cfg, index, want_trace=True)

        configs = [apply_overrides(tiny_cfg, speed_kmh=v) for v in (100.0, 500.0)]
        fast = [run(cfg, i) for cfg in configs for i in range(3)]
        monkeypatch.setattr(HandoverFsm, "run", literal_run)
        slow = [run(cfg, i) for cfg in configs for i in range(3)]
        assert sum(len(r.records) for r in slow) > 6
        for a, b in zip(fast, slow):
            assert a.records == b.records
            for f in dataclasses.fields(RunTrace):
                np.testing.assert_array_equal(getattr(a.trace, f.name), getattr(b.trace, f.name))

    def test_one_cell_never_triggers(self):
        machine = fsm(n_cells=1)
        records, serving = machine.run(np.zeros((1, 5)), np.full((1, 5), LOW), np.full((1, 5), LOW))
        assert records == [] and machine.events == []
        np.testing.assert_array_equal(serving, [0] * 5)

    def test_run_rejects_a_stepped_machine(self):
        machine = fsm()
        machine.step(0, [0.0, 0.0], [HIGH, HIGH], [HIGH, HIGH])
        with pytest.raises(ValueError, match="not been stepped"):
            machine.run(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))

    def test_run_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            fsm().run(np.zeros((3, 4)), np.zeros((3, 4)), np.zeros((3, 4)))


FINAL_STATE = (
    "phase",
    "serving_cell",
    "target_cell",
    "_trigger_tick",
    "_report_tick",
    "_command_tick",
    "_reestablish_until",
    "_next_tick",
)


def final_state(machine):
    return {name: getattr(machine, name) for name in FINAL_STATE}


def edge_config(rng):
    """Protocol delays that are zero half of the time, so the command can fall on
    the report tick, completion on the command tick and reconnection on the tick
    after the failed RACH; 1-3 tick TTT."""
    def delay_s():
        return 0.0 if rng.random() < 0.5 else 0.010 * int(rng.integers(1, 21))

    return HandoverConfig(
        hysteresis_db=float(rng.integers(-2, 4)),
        ttt_s=int(rng.integers(1, 4)) * PERIOD,
        preparation_delay_s=delay_s(),
        command_delay_s=delay_s(),
        sib_rach_delay_s=delay_s(),
        reestablishment_delay_s=delay_s(),
    )


def phases_after_each_tick(cfg, n_cells, serving, l3, ul, dl):
    machine = HandoverFsm(cfg, PERIOD, n_cells, serving)
    phases = []
    for t in range(l3.shape[1]):
        machine.step(t, l3[:, t].tolist(), ul[:, t].tolist(), dl[:, t].tolist())
        phases.append(machine.phase)
    return phases


class TestAttemptDriveEdgeCases:
    def test_zero_delays_and_cut_traces_match_literal_drive(self):
        rng = np.random.default_rng(1703_09869)
        cut_in = {phase: 0 for phase in Phase}
        zero = {"command": 0, "completion": 0, "reestablish": 0}
        for trial in range(1500):
            cfg = edge_config(rng)
            n_cells = int(rng.integers(2, 5))
            n = int(rng.integers(2, 50))
            l3 = rng.integers(-4, 5, size=(n_cells, n + 1)).astype(float)
            p_low = rng.uniform(0.0, 0.5)
            ul = np.where(rng.random((n_cells, n + 1)) < p_low, -20.0, 30.0)
            dl = np.where(rng.random((n_cells, n + 1)) < p_low, -20.0, 30.0)
            serving = int(rng.integers(0, n_cells))
            # Cut the trace right after a tick that leaves the machine in the
            # phase this trial aims at, when the literal drive reaches it.
            aim = list(Phase)[trial % len(Phase)]
            phases = phases_after_each_tick(cfg, n_cells, serving, l3[:, :n], ul[:, :n], dl[:, :n])
            ends = [t for t, phase in enumerate(phases) if phase is aim]
            cut = int(rng.choice(ends)) + 1 if ends else n

            fast = HandoverFsm(cfg, PERIOD, n_cells, serving, run_id=3)
            slow = HandoverFsm(cfg, PERIOD, n_cells, serving, run_id=3)
            fast_records, fast_serving = fast.run(l3[:, :cut], ul[:, :cut], dl[:, :cut])
            slow_records, slow_serving = literal_run(slow, l3[:, :cut], ul[:, :cut], dl[:, :cut])
            assert fast_records == slow_records
            assert fast.events == slow.events
            np.testing.assert_array_equal(fast_serving, slow_serving)
            assert final_state(fast) == final_state(slow)
            for rec in fast_records:
                for name in ("trigger_tick", "report_tick", "command_tick", "completion_tick"):
                    value = getattr(rec, name)
                    assert value is None or type(value) is int, (name, value)
            cut_in[slow.phase] += 1

            # The machine that ``run`` left behind steps on like the literal one.
            column = [a[:, cut].tolist() for a in (l3, ul, dl)]
            assert fast.step(cut, *column) == slow.step(cut, *column)
            assert fast.events == slow.events
            assert final_state(fast) == final_state(slow)

            zero["command"] += fast._command_ticks == 0
            zero["completion"] += fast._completion_ticks == fast._command_ticks
            zero["reestablish"] += fast._reestablish_ticks == 1
        assert min(cut_in.values()) > 100, cut_in
        assert min(zero.values()) > 100, zero


def literal_best_non_serving(l3_column, n_cells, serving):
    """The strongest non-serving cell as a keyed ``max``; ties go to the lowest cell id."""
    others = (cell for cell in range(n_cells) if cell != serving)
    return max(others, key=l3_column.__getitem__, default=None)


def literal_entering_runs(l3_db, serving, hysteresis_db):
    """Flattened half-open bounds of the A3 entering runs, through ``np.delete`` and ``np.diff``."""
    if l3_db.shape[0] == 1:
        return []
    best_other = np.delete(l3_db, serving, axis=0).max(axis=0)
    entering = a3_condition(best_other, l3_db[serving], hysteresis_db)
    return np.flatnonzero(np.diff(entering, prepend=False, append=False)).tolist()


class TestFastHelpersMatchLiteralForms:
    """``_best_non_serving`` and ``_entering_runs`` against their literal forms.

    L3 values and hysteresis sit on a 0.5 dB grid, so ties between cells and
    margins equal to the hysteresis are common; some L3 values are -inf (an
    A3 margin of -inf - -inf is NaN, which never enters, so numpy's warning
    about it is silenced).
    """

    @staticmethod
    def traces(rng, trials):
        for trial in range(trials):
            n_cells = (1, 2, 4)[trial % 3]
            serving = (0, n_cells // 2, n_cells - 1)[trial // 3 % 3]  # first, middle and last
            n = int(rng.integers(1, 40))
            l3 = rng.integers(-4, 5, size=(n_cells, n)) * 0.5
            l3[rng.random((n_cells, n)) < 0.1] = -np.inf
            h0 = float(rng.integers(-4, 7)) * 0.5
            yield n_cells, serving, l3, h0

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_target_and_entering_runs_match(self):
        rng = np.random.default_rng(20170328)
        ties = inf_columns = 0
        for n_cells, serving, l3, h0 in self.traces(rng, 900):
            machine = HandoverFsm(HandoverConfig(hysteresis_db=h0), PERIOD, n_cells, serving)
            for column in l3.T.tolist():
                expected = literal_best_non_serving(column, n_cells, serving)
                assert machine._best_non_serving(column) == expected, (column, serving)
                others = column[:serving] + column[serving + 1 :]
                ties += others.count(max(others, default=None)) > 1
                inf_columns += -math.inf in others
            assert machine._entering_runs(l3, serving) == literal_entering_runs(l3, serving, h0)
        assert ties > 500 and inf_columns > 1000, (ties, inf_columns)

    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_run_matches_step_on_tied_traces(self):
        rng = np.random.default_rng(1703)
        for n_cells, serving, l3, h0 in self.traces(rng, 900):
            cfg = HandoverConfig(hysteresis_db=h0, ttt_s=int(rng.integers(1, 3)) * PERIOD)
            ul = np.where(rng.random(l3.shape) < 0.2, -20.0, 30.0)
            dl = np.where(rng.random(l3.shape) < 0.2, -20.0, 30.0)
            fast = HandoverFsm(cfg, PERIOD, n_cells, serving, run_id=3)
            slow = HandoverFsm(cfg, PERIOD, n_cells, serving, run_id=3)
            fast_records, fast_serving = fast.run(l3, ul, dl)
            slow_records, slow_serving = literal_run(slow, l3, ul, dl)
            assert fast_records == slow_records
            assert fast.events == slow.events
            np.testing.assert_array_equal(fast_serving, slow_serving)
            assert final_state(fast) == final_state(slow)
