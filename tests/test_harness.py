import csv
import dataclasses
import json
import math
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from railho import cli, csvio
from railho.channel import shadowing_series_db
from railho.config import RunConfig, apply_overrides
from railho.geometry import Environment, TrainKinematics, environment_at, sample_stride
from railho.handover import Outcome
from railho.ici import IciParams
from railho import simulate
from railho.simulate import (
    _downlink_pr_ticks,
    _draw_streams,
    _link_streams,
    _COMMON_LINK,
    _STREAM_FADING,
    _STREAM_LOS,
    _STREAM_SHADOW,
    aggregate_records,
    monte_carlo,
    SweepStatistics,
    precompute_tables,
    RunTrace,
    simulate_run,
    SweepGrid,
)


class TestDeterminism:
    def test_identical_runs_are_bitwise_equal(self, tiny_cfg):
        a = simulate_run(tiny_cfg, 3, want_trace=True)
        b = simulate_run(tiny_cfg, 3, want_trace=True)
        assert a.records == b.records
        np.testing.assert_array_equal(a.trace.effective_snr_db, b.trace.effective_snr_db)
        np.testing.assert_array_equal(a.trace.throughput_bps, b.trace.throughput_bps)

    def test_runs_differ_across_indices(self, tiny_cfg):
        a = simulate_run(tiny_cfg, 0, want_trace=True)
        b = simulate_run(tiny_cfg, 1, want_trace=True)
        assert not np.array_equal(a.trace.effective_snr_db, b.trace.effective_snr_db)

    def test_monte_carlo_equals_per_run_concat(self, tiny_cfg):
        stats = monte_carlo(tiny_cfg)
        records = []
        for i in range(tiny_cfg.runs):
            records.extend(simulate_run(tiny_cfg, i).records)
        assert list(stats.records) == records

    def test_worker_count_does_not_change_results(self, tiny_cfg):
        assert monte_carlo(tiny_cfg, workers=1) == monte_carlo(tiny_cfg, workers=3)

    def test_thread_pool_is_capped_at_the_cpu_count(self, tiny_cfg, monkeypatch):
        sizes = []

        def recording(max_workers, _pool=simulate.ThreadPoolExecutor):
            sizes.append(max_workers)
            return _pool(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        assert monte_carlo(tiny_cfg, workers=64) == monte_carlo(tiny_cfg)
        assert sizes == [2]


class TestSweepGrid:
    """Configs that differ only in ``handover`` share each run's link; nothing else may change."""

    @staticmethod
    def grid(tiny_cfg):
        base = dataclasses.replace(tiny_cfg, runs=3)
        return [  # offsets outermost, so the members of a group are not adjacent
            apply_overrides(base, offset_db=offset, ttt_ms=ttt, speed_kmh=speed, environment=env)
            for offset in (0.0, 2.0, 2.0)
            for ttt in (40, 80)
            for speed in (100.0, 500.0)
            for env in ("viaduct", "mixed")
        ]

    @staticmethod
    def split_shadowing_grid(tiny_cfg):
        """Viaduct and urban with 8 dB urban shadowing: two stream families, one per environment."""
        base = dataclasses.replace(tiny_cfg, runs=3)
        urban = dataclasses.replace(base.profiles[Environment.URBAN], shadow_sigma_db=8.0)
        base = dataclasses.replace(base, profiles={**base.profiles, Environment.URBAN: urban})
        return [
            apply_overrides(base, offset_db=offset, speed_kmh=speed, environment=env)
            for offset in (0.0, 3.0)
            for speed in (100.0, 500.0)
            for env in ("viaduct", "urban")
        ]

    @staticmethod
    def fine_grid(tiny_cfg):
        """A 0.25 m snapshot grid at 250 and 500 km/h: tick strides 11 and 22, streams kept at 11."""
        kin = dataclasses.replace(tiny_cfg.kinematics, snapshot_interval_m=0.25)
        base = dataclasses.replace(tiny_cfg, runs=3, kinematics=kin)
        cfgs = [
            apply_overrides(base, offset_db=offset, speed_kmh=speed, environment=env)
            for offset in (0.0, 3.0)
            for speed in (250.0, 500.0)
            for env in ("viaduct", "mixed")
        ]
        assert {precompute_tables(cfg).tick_stride for cfg in cfgs} == {11, 22}
        return cfgs

    @staticmethod
    def assert_grid_equals_each_config_alone(cfgs, workers):
        alone = [monte_carlo(cfg, workers=workers) for cfg in cfgs]
        assert len({stats.n_records for stats in alone}) > 4  # the configs differ
        grid = SweepGrid(cfgs)
        assert [monte_carlo(cfg, workers=workers, grid=grid) for cfg in cfgs] == alone

    @pytest.mark.parametrize("workers", [1, 3])
    def test_shared_grid_equals_each_config_alone(self, tiny_cfg, workers):
        self.assert_grid_equals_each_config_alone(self.grid(tiny_cfg), workers)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("grid_of", ["split_shadowing_grid", "fine_grid"])
    def test_stream_families_equal_each_config_alone(self, tiny_cfg, grid_of, workers):
        self.assert_grid_equals_each_config_alone(getattr(self, grid_of)(tiny_cfg), workers)

    def test_one_link_per_run_and_group(self, tiny_cfg, monkeypatch):
        cfgs = self.grid(tiny_cfg)
        calls = {"precompute_tables": 0, "simulate_run": 0, "measure_cell": 0}
        for name in calls:
            def counted(*args, _fn=getattr(simulate, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(simulate, name, counted)
        grid = SweepGrid(cfgs)
        for cfg in cfgs:
            monte_carlo(cfg, grid=grid)
        groups, runs = 4, 3  # two speeds x two environments
        assert calls == {"precompute_tables": groups, "simulate_run": groups * runs, "measure_cell": groups * runs}

    @staticmethod
    def one_config_grid(tiny_cfg):
        return [dataclasses.replace(tiny_cfg, runs=3)]

    @pytest.mark.parametrize(
        "grid_of, families",
        [("grid", 1), ("split_shadowing_grid", 2), ("fine_grid", 1), ("one_config_grid", 1)],
    )
    def test_one_stream_draw_per_run_and_family(self, tiny_cfg, monkeypatch, grid_of, families):
        cfgs = getattr(self, grid_of)(tiny_cfg)
        built = Counter()

        def counted(seed, run_index, cell, purpose):
            built[run_index, purpose] += 1
            return _link_streams(seed, run_index, cell, purpose)

        monkeypatch.setattr(simulate, "_link_streams", counted)
        grid = SweepGrid(cfgs)
        for cfg in cfgs:
            monte_carlo(cfg, grid=grid)
        n_cells = cfgs[0].layout.spans + 1
        for run in range(cfgs[0].runs):
            assert built[run, _STREAM_SHADOW] == families * (n_cells + 1)  # per cell and the common link
            assert built[run, _STREAM_FADING] == families * n_cells

    @pytest.mark.parametrize("field, other", [("master_seed", 7), ("runs", 5)])
    def test_grid_needs_one_seed_and_run_count(self, tiny_cfg, field, other):
        with pytest.raises(ValueError, match="one master_seed and one runs"):
            SweepGrid([tiny_cfg, dataclasses.replace(tiny_cfg, **{field: other})])

    def test_config_outside_the_grid_runs_alone(self, tiny_cfg):
        member = apply_overrides(tiny_cfg, offset_db=4.0)
        grid = SweepGrid([member])
        assert monte_carlo(tiny_cfg, grid=grid) == monte_carlo(tiny_cfg)
        assert monte_carlo(member, grid=grid) == monte_carlo(member)

    def test_per_handover_records_match_single_runs(self, tiny_cfg):
        other = apply_overrides(tiny_cfg, offset_db=0.0, ttt_ms=80)
        result = simulate_run(tiny_cfg, 1, want_trace=True, handovers=[tiny_cfg.handover, other.handover])
        assert result.per_handover == (simulate_run(tiny_cfg, 1).records, simulate_run(other, 1).records)
        alone = simulate_run(tiny_cfg, 1, want_trace=True).trace
        for field in dataclasses.fields(alone):
            np.testing.assert_array_equal(getattr(result.trace, field.name), getattr(alone, field.name))


class TestChannelSeriesOracle:
    def test_vectorised_link_series_matches_literal_loop(self, tiny_cfg):
        cfg = tiny_cfg
        tables = precompute_tables(cfg)
        run, cell = 2, 1
        n = tables.n_snapshots
        step = cfg.kinematics.snapshot_interval_m
        positions = [cfg.kinematics.start_position_m + i * step for i in range(n)]
        profiles = [cfg.profiles[environment_at(cfg.layout, x)] for x in positions]

        streams = _draw_streams(cfg.master_seed, run, tables, tables.tick_stride)
        fast = _downlink_pr_ticks(cfg, tables, run, streams)[cell]

        # literal scalar recomputation from the same streams
        eps_c = _link_streams(cfg.master_seed, run, _COMMON_LINK, _STREAM_SHADOW).standard_normal(n)
        eps_o = _link_streams(cfg.master_seed, run, cell, _STREAM_SHADOW).standard_normal(n)
        eps_l = _link_streams(cfg.master_seed, run, cell, _STREAM_LOS).standard_normal(n)
        normals = _link_streams(cfg.master_seed, run, cell, _STREAM_FADING).standard_normal((n, 2))

        def ar1(eps):
            out = [profiles[0].shadow_sigma_db * eps[0]]
            for i in range(1, n):
                sigma = profiles[i].shadow_sigma_db
                rho = math.exp(-step / profiles[i].shadow_decorrelation_m)
                out.append(rho * out[-1] + math.sqrt(1 - rho * rho) * sigma * eps[i])
            return out

        def unit_ar1(eps):
            out = [eps[0]]
            for i in range(1, n):
                rho = math.exp(-step / profiles[i].los_decorrelation_m)
                out.append(rho * out[-1] + math.sqrt(1 - rho * rho) * eps[i])
            return out

        shadow_c, shadow_o, latent = ar1(eps_c), ar1(eps_o), unit_ar1(eps_l)
        expected = []
        for t, i in enumerate(tables.tick_snapshots):
            corr = profiles[i].shadow_site_correlation
            shadow = math.sqrt(corr) * shadow_c[i] + math.sqrt(1.0 - corr) * shadow_o[i]
            los = latent[i] < tables.tick_los_threshold[cell, t]
            k = profiles[i].rician_k_linear() if los else 0.0
            if math.isinf(k):
                h2 = 1.0
            else:
                scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
                re = math.sqrt(k / (k + 1.0)) + normals[i, 0] * scale
                im = normals[i, 1] * scale
                h2 = re * re + im * im
            base = (tables.tick_rx_los_dbm if los else tables.tick_rx_nlos_dbm)[cell, t]
            rx = base + shadow + 10.0 * math.log10(h2)
            expected.append(10.0 ** ((rx - tables.noise_dbm) / 10.0))
        # the recursions run over every snapshot, the result is read on ticks
        assert tables.tick_snapshots[1] > 1
        np.testing.assert_allclose(fast, expected, rtol=1e-12, atol=0.0)

    def test_los_marginal_probability_preserved(self, tiny_cfg):
        # cutting profile: P(los) must track exp(-d / decay) despite the latent
        cfg = apply_overrides(tiny_cfg, environment="cutting")
        tables = precompute_tables(cfg)
        cell = 0
        n_latent = tables.los_segments[-1][1]
        assert tables.los_ticks == tables.tick_snapshots.size
        hits = np.zeros(tables.tick_snapshots.size)
        n_runs = 400
        for run in range(n_runs):
            latent_eps = _link_streams(cfg.master_seed, run, cell, _STREAM_LOS).standard_normal(n_latent)
            latent = shadowing_series_db(latent_eps, tables.los_segments)
            hits += latent[tables.tick_snapshots] < tables.tick_los_threshold[cell]
        p_expected = ndtr(tables.tick_los_threshold[cell])
        # compare at a few positions with a generous Monte Carlo tolerance
        for idx in (0, 33, 100, 200):
            assert hits[idx] / n_runs == pytest.approx(p_expected[idx], abs=0.08)


def _literal_tables(cfg: RunConfig):
    """Tick-grid link tables from scalar math and a linear segment scan."""
    kin, layout, pen = cfg.kinematics, cfg.layout, cfg.budget.penetration_loss_db
    tx = cfg.budget.rrh_tx_power_dbm
    n = math.floor((layout.track_length_m - kin.start_position_m) / kin.snapshot_interval_m) + 1
    ticks = list(range(0, n, sample_stride(kin, cfg.l1.sample_period_s)))
    positions = [kin.start_position_m + i * kin.snapshot_interval_m for i in ticks]
    envs = []
    for x in positions:
        env = layout.segments[-1][2]
        for start, end, seg_env in layout.segments:
            if start <= x < end:
                env = seg_env
                break
        envs.append(env)
    rx_nlos, rx_los, threshold = [], [], []
    for cell in range(layout.spans + 1):
        rows = ([], [], [])
        for x, env in zip(positions, envs):
            p = cfg.profiles[env]
            d_along = x - cell * layout.rrh_spacing_m
            dist = math.sqrt(d_along * d_along + layout.lateral_offset_m**2 + layout.rrh_height_m**2)
            bearing = math.atan2(layout.lateral_offset_m, d_along)
            theta = min(bearing, math.pi - bearing)
            gain = layout.max_gain_db - min(
                12.0 * (theta / math.radians(layout.beamwidth_3db_deg)) ** 2, layout.pattern_floor_db
            )
            n_los = p.pathloss_exponent if p.pathloss_exponent_los is None else p.pathloss_exponent_los
            for row, exponent in ((rows[0], p.pathloss_exponent), (rows[1], n_los)):
                row.append(tx + (gain - (p.pathloss_intercept_db + 10 * exponent * math.log10(dist)) - pen))
            if p.los_mode == "always":
                rows[2].append(math.inf)
            elif p.los_mode == "never":
                rows[2].append(-math.inf)
            else:
                rows[2].append(NormalDist().inv_cdf(math.exp(-dist / p.los_decay_m)))
        for table, row in zip((rx_nlos, rx_los, threshold), rows):
            table.append(row)
    profiles = [cfg.profiles[env] for env in envs]
    k = [p.rician_k_linear() for p in profiles]
    return {
        "n_snapshots": n,
        "tick_snapshots": np.array(ticks),
        "tick_positions": np.array(positions),
        "tick_rx_nlos_dbm": np.array(rx_nlos),
        "tick_rx_los_dbm": np.array(rx_los),
        "tick_los_threshold": np.array(threshold),
        "tick_site_corr_sqrt": np.array([math.sqrt(p.shadow_site_correlation) for p in profiles]),
        "tick_site_ind_sqrt": np.array([math.sqrt(1.0 - p.shadow_site_correlation) for p in profiles]),
        "rician_mean": np.array([1.0 if math.isinf(x) else math.sqrt(x / (x + 1.0)) for x in k]),
        "rician_scale": np.array([0.0 if math.isinf(x) else math.sqrt(1.0 / (2.0 * (x + 1.0))) for x in k]),
    }


class TestPrecomputeOracle:
    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(),
            RunConfig(
                kinematics=TrainKinematics(speed_kmh=500.0, snapshot_interval_m=0.25)
            ),
            RunConfig(
                kinematics=TrainKinematics(
                    speed_kmh=300.0, snapshot_interval_m=0.5, start_position_m=123.4
                )
            ),
        ],
        ids=["mixed_1m", "grid_0.25m", "start_123.4m"],
    )
    def test_tables_match_literal_per_snapshot_loop(self, cfg):
        tables = precompute_tables(cfg)
        ref = _literal_tables(cfg)
        assert tables.n_snapshots == ref["n_snapshots"]
        tables_rician = dict(zip(("rician_mean", "rician_scale"), tables.tick_rician))
        exact = ("tick_snapshots", "tick_positions", "tick_site_corr_sqrt", "tick_site_ind_sqrt")
        for name in exact:
            np.testing.assert_array_equal(getattr(tables, name), ref[name], err_msg=name)
        for name, got in tables_rician.items():
            np.testing.assert_array_equal(got, ref[name], err_msg=name)
        for name in ("tick_rx_nlos_dbm", "tick_rx_los_dbm"):
            np.testing.assert_allclose(getattr(tables, name), ref[name], rtol=0.0, atol=1e-12)
        got, want = tables.tick_los_threshold, ref["tick_los_threshold"]
        finite = np.isfinite(want)
        assert finite.any() and not finite.all()
        np.testing.assert_array_equal(got[~finite], want[~finite])
        np.testing.assert_allclose(got[finite], want[finite], rtol=0.0, atol=1e-9)

    def test_no_table_on_the_snapshot_grid(self):
        # 500 km/h on a 0.25 m grid reads one snapshot in 22: only the
        # recursions may run on the snapshot grid, through their segments
        cfg = RunConfig(
            kinematics=TrainKinematics(speed_kmh=500.0, snapshot_interval_m=0.25)
        )
        tables = precompute_tables(cfg)
        assert tables.tick_stride == 22
        arrays = []
        for field in dataclasses.fields(tables):
            value = getattr(tables, field.name)
            arrays.extend(value if isinstance(value, tuple) else [value])
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert arrays
        for a in arrays:
            assert tables.n_snapshots not in a.shape

    @pytest.mark.parametrize("env, shared", [("viaduct", True), ("urban", True), ("cutting", False), ("mixed", False)])
    def test_one_path_loss_table_without_a_los_exponent(self, env, shared):
        # only the cutting profile has a LOS path-loss exponent
        tables = precompute_tables(apply_overrides(RunConfig(), environment=env))
        assert (tables.tick_rx_los_dbm is tables.tick_rx_nlos_dbm) == shared


class TestIciEffects:
    def test_effective_sinr_never_exceeds_plain_snr(self, tiny_cfg):
        trace = simulate_run(tiny_cfg, 0, want_trace=True).trace
        assert np.all(trace.effective_snr_db <= trace.snr_db + 1e-12)

    def test_zero_ici_config_leaves_snr_untouched(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, ici=IciParams(alpha1=0.0))
        trace = simulate_run(cfg, 0, want_trace=True).trace
        assert trace.p_ici == 0.0
        np.testing.assert_allclose(trace.effective_snr_db, trace.snr_db, atol=1e-12)

    def test_higher_speed_degrades_matched_positions(self, tiny_cfg):
        slow = simulate_run(apply_overrides(tiny_cfg, speed_kmh=100.0), 0, want_trace=True).trace
        fast = simulate_run(apply_overrides(tiny_cfg, speed_kmh=500.0), 0, want_trace=True).trace
        # stride 1 vs 5: fast ticks sit on every fifth snapshot of the slow trace
        idx = fast.tick_snapshots
        # 4e-12 dB is below a 1e-12 relative error in linear power
        np.testing.assert_allclose(slow.snr_db[idx], fast.snr_db, rtol=0.0, atol=4e-12)
        assert np.all(fast.effective_snr_db < slow.effective_snr_db[idx])


class TestTraceAndThroughput:
    def test_throughput_zero_exactly_on_interruption(self, tiny_cfg):
        trace = simulate_run(tiny_cfg, 0, want_trace=True).trace
        assert trace.interrupted.any()
        assert np.all(trace.throughput_bps[trace.interrupted] == 0.0)
        assert np.all(trace.throughput_bps[~trace.interrupted] > 0.0)

    def test_interruption_windows_match_records(self, tiny_cfg):
        result = simulate_run(tiny_cfg, 0, want_trace=True)
        from railho.handover import interruption_window

        expected = np.zeros(result.trace.interrupted.size, dtype=bool)
        for rec in result.records:
            if rec.outcome in (Outcome.SUCCESS, Outcome.FAIL_RACH):
                lo, hi = interruption_window(rec)
                expected[lo : min(hi, expected.size)] = True
        expected |= result.trace.serving_cell < 0
        np.testing.assert_array_equal(result.trace.interrupted, expected)


class TestAggregation:
    def test_refold_is_pure(self, tiny_cfg):
        stats = monte_carlo(tiny_cfg)
        assert stats.n_success > 0
        assert aggregate_records(stats.records, tiny_cfg) == stats

    def test_single_run_statistics(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, runs=1)
        stats = monte_carlo(cfg)
        run = simulate_run(cfg, 0)
        assert stats.records == run.records
        assert stats.runs == 1

    def test_histogram_sums_to_one(self, tiny_cfg):
        stats = monte_carlo(tiny_cfg)
        assert sum(stats.start_point_histogram.values()) == pytest.approx(1.0, abs=1e-12)
        for snap in stats.start_point_histogram:
            assert 0 <= snap <= round(tiny_cfg.layout.rrh_spacing_m)

    def test_success_rate_and_delay(self, tiny_cfg):
        stats = monte_carlo(tiny_cfg)
        assert 0.0 <= stats.success_rate <= 1.0
        assert stats.delay_in_samples == 3
        assert stats.mean_delay_s == pytest.approx(0.120, abs=1e-12)


def _q(x: float) -> float:
    """Quantise to the 6-significant-digit CSV representation."""
    return float(format(x, ".6g"))


record_rows = st.builds(
    csvio.RecordRow,
    run_id=st.integers(min_value=0, max_value=10_000),
    speed_kmh=st.floats(min_value=1.0, max_value=600.0).map(_q),
    environment=st.sampled_from(["viaduct", "cutting", "urban", "mixed"]),
    offset_db=st.floats(min_value=-5.0, max_value=10.0).map(_q),
    trigger_tick=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    report_tick=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    command_tick=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    completion_tick=st.one_of(st.none(), st.integers(min_value=0, max_value=10_000)),
    start_position_m=st.one_of(st.none(), st.floats(min_value=0.0, max_value=6000.0).map(_q)),
    delay_ms=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1000.0).map(_q)),
    outcome=st.sampled_from([o.value for o in Outcome]),
)


def literal_fmt(value):
    return format(value, ".6g") if isinstance(value, float) else value


def literal_record_row(record, cfg) -> list:
    """A records-CSV row as the literal reference builds it, the outcome text from ``.value``."""
    delay_ms = None if record.total_delay_s is None else record.total_delay_s * 1000.0
    return [
        record.run_id, cfg.speed_kmh, cfg.environment_label, cfg.handover.hysteresis_db,
        record.trigger_tick, record.report_tick, record.command_tick, record.completion_tick,
        record.start_position_m, delay_ms, record.outcome.value,
    ]


def literal_write_records_csv(rows, path) -> None:
    """The records writer as the literal reference: ``literal_fmt`` on every cell of every row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csvio.RECORD_COLUMNS)
        writer.writerows([literal_fmt(v) for v in row] for row in rows)


class TestCsv:
    @given(
        rows=st.lists(record_rows, max_size=25),
        configs=st.lists(record_rows, min_size=1, max_size=3),
        picks=st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=25, max_size=25),
    )
    @settings(max_examples=60)
    def test_records_bytes_match_literal_writer(self, tmp_path_factory, rows, configs, picks):
        # Rows take config column objects of ``configs``, as the rows of one config share them.
        # Each column is picked on its own, so neighbours may share only some of them; a pick
        # beyond ``configs`` keeps the row's own object.
        columns = [c[1:4] for c in configs]
        for i, pick in enumerate(picks[: len(rows)]):
            own = rows[i][1:4]
            speed, env, offset = (columns[k][j] if k < len(columns) else own[j] for j, k in enumerate(pick))
            rows[i] = rows[i]._replace(speed_kmh=speed, environment=env, offset_db=offset)
        folder = tmp_path_factory.mktemp("csv")
        csvio.write_records_csv(rows, folder / "fast.csv")
        literal_write_records_csv(rows, folder / "literal.csv")
        assert (folder / "fast.csv").read_bytes() == (folder / "literal.csv").read_bytes()

    def test_sweep_records_bytes_match_literal_writer(self, tmp_path, monkeypatch):
        config = {
            "layout": {"environment": "viaduct", "spans": 2, "rrh_spacing_m": 400.0},
            "runs": 4,
            "seed": 1234,
        }
        (tmp_path / "tiny.json").write_text(json.dumps(config))
        ran = []
        inner = cli.monte_carlo

        def capture(cfg, **kwargs):
            stats = inner(cfg, **kwargs)
            ran.append((cfg, stats))
            return stats

        monkeypatch.setattr(cli, "monte_carlo", capture)
        argv = ["sweep", "--config", str(tmp_path / "tiny.json"), "--envs", "viaduct,mixed",
                "--speeds", "100,300", "--offsets=-1.5,0,-0,12", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        rows = [literal_record_row(rec, cfg) for cfg, stats in ran for rec in stats.records]
        literal_write_records_csv(rows, tmp_path / "literal.csv")
        assert (tmp_path / "sweep_records.csv").read_bytes() == (tmp_path / "literal.csv").read_bytes()
        outcomes = Counter(row[-1] for row in rows)
        assert outcomes[Outcome.NOT_TRIGGERED.value] > 5 and len(outcomes) == len(Outcome), outcomes
        assert {format(row[3], "g") for row in rows} == {"-1.5", "0", "-0", "12"}

    @given(rows=st.lists(record_rows, max_size=25))
    @settings(max_examples=60)
    def test_records_round_trip(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv") / "records.csv"
        csvio.write_records_csv(rows, path)
        assert csvio.read_records_csv(path) == rows

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "records.csv"
        csvio.write_records_csv([], path)
        assert path.read_text(encoding="utf-8") == ",".join(csvio.RECORD_COLUMNS) + "\n"

    def test_success_row_format(self, tiny_cfg, tmp_path):
        stats = monte_carlo(tiny_cfg)
        rows = [csvio.record_row(r, csvio.config_columns(tiny_cfg)) for r in stats.records]
        path = tmp_path / "records.csv"
        csvio.write_records_csv(rows, path)
        text = path.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == ",".join(csvio.RECORD_COLUMNS)
        success = [l for l in lines[1:] if l.endswith("Success")]
        assert success and ",120," in success[0]

    def test_written_records_parse_back(self, tiny_cfg, tmp_path):
        stats = monte_carlo(tiny_cfg)
        rows = [csvio.record_row(r, csvio.config_columns(tiny_cfg)) for r in stats.records]
        path = tmp_path / "records.csv"
        csvio.write_records_csv(rows, path)
        parsed = csvio.read_records_csv(path)
        assert [p.outcome for p in parsed] == [r.outcome for r in rows]
        assert [p.start_position_m for p in parsed] == [r.start_position_m for r in rows]

    def test_stats_and_histogram_writers(self, tiny_cfg, tmp_path):
        stats = monte_carlo(tiny_cfg)
        csvio.write_stats_csv([csvio.stats_csv_row(stats, tiny_cfg)], tmp_path / "stats.csv")
        csvio.write_histogram_csv(
            csvio.histogram_csv_rows(stats, tiny_cfg), tmp_path / "hist.csv"
        )
        stats_lines = (tmp_path / "stats.csv").read_text().splitlines()
        assert stats_lines[0] == ",".join(csvio.STATS_COLUMNS)
        assert len(stats_lines) == 2
        hist_lines = (tmp_path / "hist.csv").read_text().splitlines()
        assert hist_lines[0] == ",".join(csvio.HISTOGRAM_COLUMNS)
        assert len(hist_lines) == 1 + len(stats.start_point_histogram)

    def test_bytes_match_literal_text(self, tmp_path):
        """Pins column order and number format on both the writer and the reader."""
        rows = [
            csvio.RecordRow(0, 100.0, "viaduct", 2.0, None, None, None, None, None, None, "NotTriggered"),
            csvio.RecordRow(3, 300.0, "cutting", 0.1, 1, 2, 4, 5, 1234.5678901, 120.0, "Success"),
            csvio.RecordRow(12, 500.0, "urban", -1.5, 7, 8, 10, 11, 0.1, -40.0, "FailRach"),
        ]
        records_text = (
            "run_id,speed_kmh,environment,offset_db,trigger_tick,report_tick,command_tick,"
            "completion_tick,start_position_m,delay_ms,outcome\n"
            "0,100,viaduct,2,,,,,,,NotTriggered\n"
            "3,300,cutting,0.1,1,2,4,5,1234.57,120,Success\n"
            "12,500,urban,-1.5,7,8,10,11,0.1,-40,FailRach\n"
        )
        cfg = apply_overrides(RunConfig(), speed_kmh=300.0, environment="urban", offset_db=-1.5)
        stats = SweepStatistics(
            runs=5,
            n_records=7,
            n_success=3,
            success_rate=3 / 7,
            weighted_start_point_m=math.nan,
            mean_delay_s=0.12,
            delay_in_samples=3,
            start_point_histogram={40: 0.25, -12: 0.75},
            records=(),
        )
        stats_text = (
            "speed_kmh,environment,offset_db,ttt_ms,runs,n_records,n_success,success_rate,"
            "weighted_start_point_m,mean_delay_ms,delay_in_samples\n"
            "300,urban,-1.5,40,5,7,3,0.428571,,120,3\n"
        )
        hist_text = (
            "speed_kmh,environment,offset_db,start_snapshot,probability\n"
            "300,urban,-1.5,-12,0.75\n"
            "300,urban,-1.5,40,0.25\n"
        )
        csvio.write_records_csv(rows, tmp_path / "records.csv")
        csvio.write_stats_csv([csvio.stats_csv_row(stats, cfg)], tmp_path / "stats.csv")
        csvio.write_histogram_csv(csvio.histogram_csv_rows(stats, cfg), tmp_path / "hist.csv")
        for name, text in (("records", records_text), ("stats", stats_text), ("hist", hist_text)):
            assert (tmp_path / f"{name}.csv").read_bytes() == text.encode("utf-8")

        literal = tmp_path / "literal.csv"
        literal.write_bytes(records_text.encode("utf-8"))
        assert csvio.read_records_csv(literal) == [
            rows[0],
            rows[1]._replace(start_position_m=1234.57),
            rows[2],
        ]

    def test_trace_bytes_match_literal_text(self, tmp_path):
        """Pins the trace columns and number format, numpy scalars included."""
        trace = RunTrace(
            run_id=0,
            tick_snapshots=np.array([0, 11], dtype=np.int64),
            positions_m=np.array([0.0, 122.25]),
            p_ici=0.01,
            snr_db=np.array([[12.3456789, -3.0], [0.1, 1e7]]),
            effective_snr_db=np.array([[12.0, -3.5], [-0.25, 20.000001]]),
            serving_cell=np.array([0, -1], dtype=np.int64),
            interrupted=np.array([False, True]),
            throughput_bps=np.array([1.5e7, 0.0]),
        )
        text = (
            "tick,snapshot,position_m,snr_db_cell0,snr_db_cell1,eff_snr_db_cell0,eff_snr_db_cell1,"
            "serving_cell,interrupted,throughput_bps\n"
            "0,0,0,12.3457,-3,12,-3.5,0,0,1.5e+07\n"
            "1,11,122.25,0.1,1e+07,-0.25,20,-1,1,0\n"
        )
        csvio.write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == text.encode("utf-8")

    def test_trace_csv(self, tiny_cfg, tmp_path):
        res = simulate_run(tiny_cfg, 0, want_trace=True)
        path = tmp_path / "trace.csv"
        csvio.write_trace_csv(res.trace, path)
        lines = path.read_text().splitlines()
        n_cells = tiny_cfg.layout.spans + 1
        assert lines[0].split(",")[:3] == ["tick", "snapshot", "position_m"]
        assert len(lines) == 1 + res.trace.tick_snapshots.size
        assert len(lines[1].split(",")) == 3 + 2 * n_cells + 3
