import dataclasses
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from railho import csvio
from railho.config import RunConfig, apply_overrides
from railho.constants import kmh_to_mps
from railho.geometry import TrainKinematics, default_layout
from railho.handover import Outcome
from railho.ici import IciParams
from railho.simulate import (
    _downlink_pr_series,
    _common_shadow_series,
    _link_streams,
    _COMMON_LINK,
    _STREAM_FADING,
    _STREAM_LOS,
    _STREAM_SHADOW,
    aggregate_records,
    monte_carlo,
    precompute_tables,
    simulate_run,
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


class TestChannelSeriesOracle:
    def test_vectorised_link_series_matches_literal_loop(self, tiny_cfg):
        cfg = tiny_cfg
        tables = precompute_tables(cfg)
        run, cell = 2, 1
        n = tables.positions.size
        step = cfg.kinematics.snapshot_interval_m

        common = _common_shadow_series(cfg, tables, run)
        fast = _downlink_pr_series(cfg, tables, run, cell, common)

        # literal scalar recomputation from the same streams
        eps_c = _link_streams(cfg.master_seed, run, _COMMON_LINK, _STREAM_SHADOW).standard_normal(n)
        eps_o = _link_streams(cfg.master_seed, run, cell, _STREAM_SHADOW).standard_normal(n)
        eps_l = _link_streams(cfg.master_seed, run, cell, _STREAM_LOS).standard_normal(n)
        normals = _link_streams(cfg.master_seed, run, cell, _STREAM_FADING).standard_normal((n, 2))

        def ar1(eps):
            out = [tables.sigma_db[0] * eps[0]]
            for i in range(1, n):
                rho = math.exp(-step / tables.decorrelation_m[i])
                out.append(
                    rho * out[-1] + math.sqrt(1 - rho * rho) * tables.sigma_db[i] * eps[i]
                )
            return out

        def unit_ar1(eps):
            out = [eps[0]]
            for i in range(1, n):
                rho = math.exp(-step / tables.los_decorrelation_m[i])
                out.append(rho * out[-1] + math.sqrt(1 - rho * rho) * eps[i])
            return out

        shadow_c, shadow_o, latent = ar1(eps_c), ar1(eps_o), unit_ar1(eps_l)
        expected = np.empty(n)
        for i in range(n):
            shadow = (
                tables.site_corr_sqrt[i] * shadow_c[i] + tables.site_ind_sqrt[i] * shadow_o[i]
            )
            los = latent[i] < tables.los_threshold[cell, i]
            k = tables.k_los_linear[i] if los else 0.0
            if math.isinf(k):
                h2 = 1.0
            else:
                scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
                re = math.sqrt(k / (k + 1.0)) + normals[i, 0] * scale
                im = normals[i, 1] * scale
                h2 = re * re + im * im
            base = tables.base_db_los[cell, i] if los else tables.base_db_nlos[cell, i]
            rx = cfg.budget.rrh_tx_power_dbm + base + shadow + 10.0 * math.log10(h2)
            expected[i] = 10.0 ** ((rx - tables.noise_dbm) / 10.0)
        np.testing.assert_allclose(fast, expected, rtol=1e-12, atol=0.0)

    def test_los_marginal_probability_preserved(self, tiny_cfg):
        # cutting profile: P(los) must track exp(-d / decay) despite the latent
        cfg = apply_overrides(tiny_cfg, environment="cutting")
        tables = precompute_tables(cfg)
        cell = 0
        hits = np.zeros(tables.positions.size)
        n_runs = 400
        for run in range(n_runs):
            latent_eps = _link_streams(cfg.master_seed, run, cell, _STREAM_LOS).standard_normal(
                tables.positions.size
            )
            from railho.channel import shadowing_series_db

            latent = shadowing_series_db(
                latent_eps, cfg.kinematics.snapshot_interval_m, 1.0, tables.los_decorrelation_m
            )
            hits += latent < tables.los_threshold[cell]
        from scipy.special import ndtr

        p_expected = ndtr(tables.los_threshold[cell])
        # compare at a few positions with a generous Monte Carlo tolerance
        for idx in (0, 100, 300, 600):
            assert hits[idx] / n_runs == pytest.approx(p_expected[idx], abs=0.08)


def _literal_tables(cfg: RunConfig):
    """Per-snapshot link tables from scalar math and a linear segment scan."""
    kin, layout, pen = cfg.kinematics, cfg.layout, cfg.budget.penetration_loss_db
    n = math.floor((layout.track_length_m - kin.start_position_m) / kin.snapshot_interval_m) + 1
    positions = [kin.start_position_m + i * kin.snapshot_interval_m for i in range(n)]
    envs = []
    for x in positions:
        env = layout.segments[-1][2]
        for start, end, seg_env in layout.segments:
            if start <= x < end:
                env = seg_env
                break
        envs.append(env)
    base_nlos, base_los, threshold = [], [], []
    for site in layout.rrhs:
        rows = ([], [], [])
        for x, env in zip(positions, envs):
            p = cfg.profiles[env]
            d_along = x - site.position_along_track
            dist = math.sqrt(d_along * d_along + site.lateral_offset**2 + site.height**2)
            raw = (math.atan2(site.lateral_offset, d_along) - site.beam_azimuth_rad) % (2 * math.pi)
            bearing = min(raw, 2 * math.pi - raw)
            theta = min(bearing, math.pi - bearing)
            gain = site.max_gain_db - min(
                12.0 * (theta / site.beamwidth_3db_rad) ** 2, site.pattern_floor_db
            )
            n_los = p.pathloss_exponent if p.pathloss_exponent_los is None else p.pathloss_exponent_los
            for row, exponent in ((rows[0], p.pathloss_exponent), (rows[1], n_los)):
                row.append(gain - (p.pathloss_intercept_db + 10 * exponent * math.log10(dist)) - pen)
            if p.los_mode == "always":
                rows[2].append(math.inf)
            elif p.los_mode == "never":
                rows[2].append(-math.inf)
            else:
                rows[2].append(NormalDist().inv_cdf(math.exp(-dist / p.los_decay_m)))
        for table, row in zip((base_nlos, base_los, threshold), rows):
            table.append(row)
    profiles = [cfg.profiles[env] for env in envs]
    return {
        "positions": np.array(positions),
        "base_db_nlos": np.array(base_nlos),
        "base_db_los": np.array(base_los),
        "los_threshold": np.array(threshold),
        "sigma_db": np.array([p.shadow_sigma_db for p in profiles]),
        "decorrelation_m": np.array([p.shadow_decorrelation_m for p in profiles]),
        "site_corr_sqrt": np.array([math.sqrt(p.shadow_site_correlation) for p in profiles]),
        "los_decorrelation_m": np.array([p.los_decorrelation_m for p in profiles]),
        "k_los_linear": np.array([p.rician_k_linear() for p in profiles]),
    }


def _azimuth_cfg() -> RunConfig:
    layout = default_layout(spans=3)
    rrhs = tuple(dataclasses.replace(s, beam_azimuth_rad=0.2) for s in layout.rrhs)
    return RunConfig(layout=dataclasses.replace(layout, rrhs=rrhs))


class TestPrecomputeOracle:
    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(),
            RunConfig(
                kinematics=TrainKinematics(speed_mps=kmh_to_mps(500.0), snapshot_interval_m=0.25)
            ),
            RunConfig(
                kinematics=TrainKinematics(
                    speed_mps=kmh_to_mps(300.0), snapshot_interval_m=0.5, start_position_m=123.4
                )
            ),
            _azimuth_cfg(),
        ],
        ids=["mixed_1m", "grid_0.25m", "start_123.4m", "azimuth_0.2"],
    )
    def test_tables_match_literal_per_snapshot_loop(self, cfg):
        tables = precompute_tables(cfg)
        ref = _literal_tables(cfg)
        np.testing.assert_array_equal(tables.positions, ref["positions"])
        exact = ("sigma_db", "decorrelation_m", "site_corr_sqrt", "los_decorrelation_m", "k_los_linear")
        for name in exact:
            np.testing.assert_array_equal(getattr(tables, name), ref[name], err_msg=name)
        for name in ("base_db_nlos", "base_db_los"):
            np.testing.assert_allclose(getattr(tables, name), ref[name], rtol=0.0, atol=1e-12)
        got, want = tables.los_threshold, ref["los_threshold"]
        finite = np.isfinite(want)
        assert finite.any() and not finite.all()
        np.testing.assert_array_equal(got[~finite], want[~finite])
        np.testing.assert_allclose(got[finite], want[finite], rtol=0.0, atol=1e-9)


class TestIciEffects:
    def test_effective_sinr_never_exceeds_plain_snr(self, tiny_cfg):
        trace = simulate_run(tiny_cfg, 0, want_trace=True).trace
        assert np.all(trace.effective_snr_db <= trace.snr_db + 1e-12)

    def test_zero_ici_config_leaves_snr_untouched(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, ici=IciParams(alpha1=0.0, alpha2=0.0))
        trace = simulate_run(cfg, 0, want_trace=True).trace
        assert trace.p_ici == 0.0
        np.testing.assert_allclose(trace.effective_snr_db, trace.snr_db, atol=1e-12)

    def test_higher_speed_degrades_matched_positions(self, tiny_cfg):
        slow = simulate_run(apply_overrides(tiny_cfg, speed_kmh=100.0), 0, want_trace=True).trace
        fast = simulate_run(apply_overrides(tiny_cfg, speed_kmh=500.0), 0, want_trace=True).trace
        # stride 1 vs 5: fast ticks sit on every fifth snapshot of the slow trace
        idx = fast.tick_snapshots
        np.testing.assert_allclose(
            slow.pr_linear[idx], fast.pr_linear, rtol=1e-12, atol=0.0
        )
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


class TestCsv:
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
        rows = [csvio.record_row(r, tiny_cfg) for r in stats.records]
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
        rows = [csvio.record_row(r, tiny_cfg) for r in stats.records]
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

    def test_trace_csv(self, tiny_cfg, tmp_path):
        res = simulate_run(tiny_cfg, 0, want_trace=True)
        path = tmp_path / "trace.csv"
        csvio.write_trace_csv(res.trace, path)
        lines = path.read_text().splitlines()
        n_cells = len(tiny_cfg.layout.rrhs)
        assert lines[0].split(",")[:3] == ["tick", "snapshot", "position_m"]
        assert len(lines) == 1 + res.trace.tick_snapshots.size
        assert len(lines[1].split(",")) == 3 + 2 * n_cells + 3
