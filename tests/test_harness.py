import csv
import dataclasses
import json
import math
import sys
import threading
import time
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from railho import cli, csvio
from railho.channel import shadowing_series_db
from railho.config import ConfigError, RunConfig, apply_overrides
from railho.geometry import Environment, TrainKinematics, default_layout, environment_at, sample_stride
from railho.handover import HandoverRecord, Outcome
from railho.ici import IciParams
from railho import simulate
from railho.simulate import (
    _downlink_pr_ticks,
    _draw_plan,
    _COMMON_LINK,
    _STREAM_FADING,
    _STREAM_LOS,
    _STREAM_MEASUREMENT,
    _STREAM_BLOCK,
    _STREAM_SHADOW,
    _stream_keys,
    _stream_states,
    _views,
    aggregate_records,
    monte_carlo,
    SweepStatistics,
    precompute_tables,
    RunTrace,
    run_batch,
    simulate_run,
)
from test_engine_oracle import link_streams


def run_views(seed, run, plan):
    """One run's views under ``plan``, its streams seeded as a block of one."""
    (states,) = _stream_states(seed, [run], _stream_keys(plan))
    return _views(states, plan)


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

    def test_runs_across_a_seed_block_edge(self, tiny_cfg):
        cfg = dataclasses.replace(tiny_cfg, runs=_STREAM_BLOCK + 1)
        stats = monte_carlo(cfg)
        assert list(stats.records) == [rec for i in range(cfg.runs) for rec in simulate_run(cfg, i).records]
        assert monte_carlo(cfg, workers=2) == stats

    def test_thread_pool_is_capped_at_the_cpu_count(self, tiny_cfg, monkeypatch):
        """A batch draws on ``min(workers, CPUs, runs)`` threads, ``workers`` None on every CPU.

        The CPUs are those of the process's affinity mask where the OS keeps
        one, else the machine's count. One thread opens no pool.
        """
        serial = monte_carlo(tiny_cfg, workers=1)
        sizes = []

        def recording(max_workers, _pool=simulate.ThreadPoolExecutor):
            sizes.append(max_workers)
            return _pool(max_workers=max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", recording)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)  # more than the mask allows: never read
        # the CPUs bind, then the 4 runs, then the workers, and one thread opens no pool
        for workers, cpus in [(64, 2), (None, 2), (64, 8), (None, 8), (3, 8), (1, 8), (None, 1)]:
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            sizes.clear()
            assert monte_carlo(tiny_cfg, workers=workers) == serial
            size = min(cpus if workers is None else workers, cpus, tiny_cfg.runs)
            assert sizes == ([size] if size > 1 else [])
        monkeypatch.delattr(simulate.os, "sched_getaffinity")  # no mask: the machine's count
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        sizes.clear()
        assert monte_carlo(tiny_cfg) == serial
        assert sizes == [2]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_draws_run_a_bounded_window_ahead_of_the_links(self, tiny_cfg, monkeypatch, threads):
        """The pool draws at most ``workers + 1`` runs beyond the one taken, across two seed-block edges.

        A run counts from the start of its draws to the start of its link
        part, which runs on the calling thread, so the run taken counts too.
        """
        cfg = dataclasses.replace(tiny_cfg, runs=2 * _STREAM_BLOCK + 3)
        serial = monte_carlo(cfg, workers=1)
        views, link = simulate._views, simulate._link
        lock = threading.Lock()
        ahead, most = 0, 0  # runs drawn or being drawn, not yet linked

        def drawing(*args):
            nonlocal ahead, most
            with lock:
                ahead += 1
                most = max(most, ahead)
            return views(*args)

        def linking(*args):
            nonlocal ahead
            assert threading.current_thread() is threading.main_thread()
            time.sleep(0.001)  # so that the pool gets as far ahead as it may
            with lock:
                ahead -= 1
            return link(*args)

        monkeypatch.setattr(simulate, "_views", drawing)
        monkeypatch.setattr(simulate, "_link", linking)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(threads)), raising=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the threads trade the interpreter lock often
        try:
            assert monte_carlo(cfg) == serial
        finally:
            sys.setswitchinterval(interval)
        assert 1 < most <= threads + 2

    def test_a_link_error_stops_the_batch_and_its_threads(self, monkeypatch):
        """A ``ConfigError`` of a run's link part reaches the caller, and no pool thread outlives the batch."""
        cfg = RunConfig(layout=default_layout(environment="urban", spans=2, rrh_spacing_m=400.0), runs=6)
        urban = dataclasses.replace(cfg.profiles[Environment.URBAN], pathloss_intercept_db=-4000.0)
        cfg = dataclasses.replace(cfg, profiles={**cfg.profiles, Environment.URBAN: urban})
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        before = threading.active_count()
        with pytest.raises(ConfigError, match="run 0: a link's SNR leaves the float range"):
            monte_carlo(cfg, workers=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_is_a_value_error(self, tiny_cfg, workers, monkeypatch):
        built = []
        monkeypatch.setattr(simulate, "precompute_tables", built.append)
        with pytest.raises(ValueError, match="at least one worker"):
            monte_carlo(tiny_cfg, workers=workers)
        assert built == []  # checked before any table is built


class TestSweepGrid:
    """Configs that differ only in ``handover`` share each run's link in a ``run_batch``; nothing else may change."""

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
    def cutting_grid(tiny_cfg):
        """Cutting at three speeds on 2 and 3 spans, one member noiseless and one with its own LOS recursion.

        Every group reads the leading rows and ticks of one measurement-noise
        draw, made for the most cells and ticks. All but one read the leading
        rows and snapshots of one LOS latent draw; the member whose cutting
        profile has a longer LOS decorrelation distance draws its own.
        """
        base = dataclasses.replace(tiny_cfg, runs=3)
        layouts = [default_layout(environment="cutting", spans=spans, rrh_spacing_m=400.0) for spans in (2, 3)]
        cfgs = [
            apply_overrides(dataclasses.replace(base, layout=layout), offset_db=offset, speed_kmh=speed)
            for layout in layouts
            for offset in (0.0, 3.0)
            for speed in (100.0, 300.0, 500.0)
        ]
        noiseless = dataclasses.replace(cfgs[0], l1=dataclasses.replace(cfgs[0].l1, noise_sigma_db=0.0))
        cutting = cfgs[0].profiles[Environment.CUTTING]
        cutting = dataclasses.replace(cutting, los_decorrelation_m=2.0 * cutting.los_decorrelation_m)
        own_los = dataclasses.replace(cfgs[0], profiles={**cfgs[0].profiles, Environment.CUTTING: cutting})
        return [*cfgs, noiseless, own_los]

    @staticmethod
    def noiseless_grid(tiny_cfg):
        noiseless = dataclasses.replace(tiny_cfg.l1, noise_sigma_db=0.0)
        return [dataclasses.replace(cfg, l1=noiseless) for cfg in TestSweepGrid.grid(tiny_cfg)]

    @staticmethod
    def assert_grid_equals_each_config_alone(cfgs, workers):
        alone = [monte_carlo(cfg, workers=workers) for cfg in cfgs]
        assert len({stats.n_records for stats in alone}) > 4  # the configs differ
        batch = run_batch(cfgs, workers)
        assert [batch[cfg] for cfg in cfgs] == alone

    @pytest.mark.parametrize("workers", [1, 3])
    def test_shared_grid_equals_each_config_alone(self, tiny_cfg, workers):
        self.assert_grid_equals_each_config_alone(self.grid(tiny_cfg), workers)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("grid_of", ["split_shadowing_grid", "fine_grid", "cutting_grid"])
    def test_stream_families_equal_each_config_alone(self, tiny_cfg, grid_of, workers):
        self.assert_grid_equals_each_config_alone(getattr(self, grid_of)(tiny_cfg), workers)

    def test_one_link_per_run_and_group(self, tiny_cfg, monkeypatch):
        cfgs = self.grid(tiny_cfg)
        calls = {"precompute_tables": 0, "_link": 0, "measure_cell": 0}
        for name in calls:
            def counted(*args, _fn=getattr(simulate, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(simulate, name, counted)
        run_batch(cfgs)
        groups, runs = 4, 3  # two speeds x two environments
        assert calls == {"precompute_tables": groups, "_link": groups * runs, "measure_cell": groups * runs}

    def test_one_strongest_cell_list_per_run_and_group(self, tiny_cfg, monkeypatch):
        """Every machine of a link group reads the margins and strongest cells of its run's one ``link_ranking``."""
        cfgs = self.grid(tiny_cfg)
        built, read = [], []
        link_ranking, run = simulate.link_ranking, simulate.HandoverFsm.run

        def counted(l3):
            built.append(link_ranking(l3))
            return built[-1]

        def reading(fsm, *args):
            read.append(args[-2:])
            return run(fsm, *args)

        monkeypatch.setattr(simulate, "link_ranking", counted)
        monkeypatch.setattr(simulate.HandoverFsm, "run", reading)
        run_batch(cfgs)  # the link parts and the machines run on the calling thread, in run order
        groups, runs, machines = 4, 3, 4  # two speeds x two environments; two offsets x two TTTs
        assert len(built) == groups * runs and len(read) == groups * runs * machines
        assert [tuple(map(id, r)) for r in read] == [tuple(map(id, b)) for b in built for _ in range(machines)]

    @staticmethod
    def one_config_grid(tiny_cfg):
        return [dataclasses.replace(tiny_cfg, runs=3)]

    @staticmethod
    def streams_built(cfgs, monkeypatch) -> Counter:
        """The streams a ``run_batch`` of ``cfgs`` seeds, by (run, purpose)."""
        built = Counter()

        def counted(seed, runs, keys):
            built.update((run, purpose) for run in runs for _, purpose in keys)
            return _stream_states(seed, runs, keys)

        monkeypatch.setattr(simulate, "_stream_states", counted)
        run_batch(cfgs)
        return built

    # distinct LOS recursions: viaduct and urban tracks read no LOS latent, and
    # the mixed track's speeds share one
    LOS_RECURSIONS = {"grid": 1, "split_shadowing_grid": 0, "fine_grid": 1, "one_config_grid": 0, "noiseless_grid": 1}

    @pytest.mark.parametrize(
        "grid_of, shadowing",  # distinct shadowing recursions; every grid shares one fading draw
        [("grid", 1), ("split_shadowing_grid", 2), ("fine_grid", 1), ("one_config_grid", 1), ("noiseless_grid", 1)],
    )
    def test_one_stream_draw_per_run_and_family(self, tiny_cfg, monkeypatch, grid_of, shadowing):
        cfgs = getattr(self, grid_of)(tiny_cfg)
        built = self.streams_built(cfgs, monkeypatch)
        n_cells = cfgs[0].layout.spans + 1
        noisy = cfgs[0].l1.noise_sigma_db > 0.0
        for run in range(cfgs[0].runs):
            assert built[run, _STREAM_SHADOW] == shadowing * (n_cells + 1)  # per cell and the common link
            assert built[run, _STREAM_FADING] == n_cells
            assert built[run, _STREAM_LOS] == self.LOS_RECURSIONS[grid_of] * n_cells
            assert built[run, _STREAM_MEASUREMENT] == (n_cells if noisy else 0)

    def test_los_and_noise_drawn_once_for_every_track_length(self, tiny_cfg, monkeypatch):
        cfgs = self.cutting_grid(tiny_cfg)
        built = self.streams_built(cfgs, monkeypatch)
        for run in range(cfgs[0].runs):  # 4 cells on 3 spans; 3 on 2 spans read the leading rows
            assert built[run, _STREAM_MEASUREMENT] == 4
            assert built[run, _STREAM_LOS] == 4 + 3  # the shared recursion, and the 2-span member's own
            # the 2-span track's shadowing segments are the 3-span track's, clipped to its length
            assert built[run, _STREAM_SHADOW] == 4 + 1
            assert built[run, _STREAM_FADING] == 4

    @pytest.mark.parametrize("field, other", [("master_seed", 7), ("runs", 5)])
    def test_grid_needs_one_seed_and_run_count(self, tiny_cfg, field, other, monkeypatch):
        built = []
        monkeypatch.setattr(simulate, "precompute_tables", built.append)
        with pytest.raises(ValueError, match="one master_seed and one runs"):
            run_batch([tiny_cfg, dataclasses.replace(tiny_cfg, **{field: other})])
        assert built == []  # checked before any table is built

    def test_empty_batch_has_no_seed(self):
        with pytest.raises(ValueError, match="one master_seed and one runs"):
            run_batch([])

    def test_config_outside_the_grid_is_a_key_error(self, tiny_cfg):
        member = apply_overrides(tiny_cfg, offset_db=4.0)
        batch = run_batch([member])
        assert monte_carlo(member, grid=batch) == monte_carlo(member)
        with pytest.raises(KeyError):
            monte_carlo(tiny_cfg, grid=batch)

    @staticmethod
    def with_urban_sigma(cfg, sigma):
        urban = dataclasses.replace(cfg.profiles[Environment.URBAN], shadow_sigma_db=sigma)
        return dataclasses.replace(cfg, profiles={**cfg.profiles, Environment.URBAN: urban})

    def test_equal_configs_hash_equally(self, tiny_cfg):
        a = apply_overrides(tiny_cfg, offset_db=2.0, environment="urban")
        b = self.with_urban_sigma(apply_overrides(tiny_cfg, environment="urban", offset_db=2.0), 6.0)
        assert a == b and a is not b and a.profiles is not b.profiles
        assert hash(a) == hash(b)
        assert {a: 1, b: 2} == {a: 2}

    def test_configs_that_differ_only_in_profiles_are_separate_keys_and_groups(self, tiny_cfg, monkeypatch):
        cfg = apply_overrides(dataclasses.replace(tiny_cfg, runs=3), environment="urban")
        other = self.with_urban_sigma(cfg, 8.0)
        assert cfg != other and hash(cfg) == hash(other)  # the profiles are compared, not hashed
        assert len({cfg: 1, other: 2}) == 2
        alone = [monte_carlo(c) for c in (cfg, other)]
        assert alone[0] != alone[1]
        built = []

        def counted(c, _fn=simulate.precompute_tables):
            built.append(c)
            return _fn(c)

        monkeypatch.setattr(simulate, "precompute_tables", counted)
        batch = run_batch([cfg, other])
        assert [batch[c] for c in (cfg, other)] == alone
        assert [c.profiles for c in built] == [cfg.profiles, other.profiles]  # one link group each


_BATCH_SEEDS = st.sampled_from([0, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@st.composite
def random_batch(draw):
    """Configs of one seed and run count over the dimensions the sharing rule reads.

    Speeds and grids give tick strides 1 to 11 and different tick counts,
    spans and spacings different cell counts and track lengths, and the
    urban shadowing sigma profiles that are compared but not hashed.
    Some configs come twice.
    """
    seed, runs = draw(_BATCH_SEEDS), draw(st.integers(2, 3))
    cfgs = []
    for _ in range(draw(st.integers(1, 4))):
        layout = default_layout(
            environment=draw(st.sampled_from(["viaduct", "cutting", "urban", "mixed"])),
            spans=draw(st.integers(1, 3)),
            rrh_spacing_m=float(draw(st.integers(300, 400))),
        )
        kin = TrainKinematics(
            speed_kmh=draw(st.sampled_from([100.0, 250.0, 300.0, 500.0])),
            snapshot_interval_m=draw(st.sampled_from([1.0, 0.5])),
        )
        cfg = RunConfig(layout=layout, kinematics=kin, runs=runs, master_seed=seed)
        cfg = apply_overrides(cfg, offset_db=draw(st.sampled_from([-1.5, 0.0, 2.0])))
        cfgs.append(TestSweepGrid.with_urban_sigma(cfg, draw(st.sampled_from([6.0, 8.0]))))
    duplicates = draw(st.lists(st.sampled_from(cfgs), max_size=2))
    # a twin differs only in the urban sigma: an equal hash, and a config of its own
    twins = [
        TestSweepGrid.with_urban_sigma(c, 14.0 - c.profiles[Environment.URBAN].shadow_sigma_db)
        for c in draw(st.lists(st.sampled_from(cfgs), max_size=1))
    ]
    return draw(st.permutations(cfgs + duplicates + twins))


@settings(max_examples=100, deadline=None)
@given(cfgs=random_batch())
def test_random_batch_equals_each_config_alone(cfgs):
    """Every config of a random batch gets the statistics it gets alone (every CPU), at 1 and 2 workers.

    Statistics compare by ``repr``, so that every float compares bit for bit
    and a config without a usable success (a NaN start point) compares too.
    """
    alone = [repr(monte_carlo(cfg)) for cfg in cfgs]
    for workers in (1, 2):
        batch = run_batch(cfgs, workers)
        assert [repr(batch[cfg]) for cfg in cfgs] == alone


class TestChannelSeriesOracle:
    @staticmethod
    def literal_downlink(cfg, tables, run, cell):
        """A link's noise-normalised downlink power at the ticks, from scalar loops over every snapshot."""
        n = tables.n_snapshots
        step = cfg.kinematics.snapshot_interval_m
        positions = [cfg.kinematics.start_position_m + i * step for i in range(n)]
        profiles = [cfg.profiles[environment_at(cfg.layout, x)] for x in positions]
        eps_c = link_streams(cfg.master_seed, run, _COMMON_LINK, _STREAM_SHADOW).standard_normal(n)
        eps_o = link_streams(cfg.master_seed, run, cell, _STREAM_SHADOW).standard_normal(n)
        eps_l = link_streams(cfg.master_seed, run, cell, _STREAM_LOS).standard_normal(n)
        normals = link_streams(cfg.master_seed, run, cell, _STREAM_FADING).standard_normal((n, 2))

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
        return expected

    def test_vectorised_link_series_matches_literal_loop(self, tiny_cfg):
        """A link's views of a run's draws, alone and shared with a longer, faster 3-span track."""
        run, cell = 2, 1
        for env in ("viaduct", "cutting"):  # cutting reads the LOS latent
            cfg = apply_overrides(tiny_cfg, environment=env)
            longer = apply_overrides(
                dataclasses.replace(cfg, layout=default_layout(environment=env, spans=3, rrh_spacing_m=400.0)),
                speed_kmh=500.0,
            )
            tables, longer_tables = precompute_tables(cfg), precompute_tables(longer)
            expected = self.literal_downlink(cfg, tables, run, cell)
            alone = run_views(cfg.master_seed, run, _draw_plan([cfg], [tables]))[0]
            longer_alone = run_views(cfg.master_seed, run, _draw_plan([longer], [longer_tables]))[0]
            plan = _draw_plan([longer, cfg], [longer_tables, tables])
            shared = run_views(cfg.master_seed, run, plan)
            assert len(plan[0]) == (4 if tables.los_ticks else 3)  # one draw per read
            assert longer_tables.tick_stride % tables.tick_stride != 0  # so the shared draws keep their gcd
            for views in (alone, shared[1]):
                fast = _downlink_pr_ticks(tables, *views[:3])[cell]
                np.testing.assert_allclose(fast, expected, rtol=1e-12, atol=0.0)
            # the 2-span track has more ticks than the faster 3-span one, so the noise draw
            # starts with its 3 cells and grows to 4
            for views, own in ((shared[1], alone), (shared[0], longer_alone)):
                np.testing.assert_array_equal(views[3], own[3])
            # the recursions run over every snapshot, the result is read on ticks
            assert tables.tick_snapshots[1] > 1

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
            latent_eps = link_streams(cfg.master_seed, run, cell, _STREAM_LOS).standard_normal(n_latent)
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
        np.testing.assert_allclose(slow.snr_db[:, idx], fast.snr_db, rtol=0.0, atol=4e-12)
        assert np.all(fast.effective_snr_db < slow.effective_snr_db[:, idx])


class TestTraceAndThroughput:
    def test_throughput_zero_exactly_on_interruption(self, tiny_cfg):
        trace = simulate_run(tiny_cfg, 0, want_trace=True).trace
        assert trace.interrupted.any()
        assert np.all(trace.throughput_bps[trace.interrupted] == 0.0)
        assert np.all(trace.throughput_bps[~trace.interrupted] > 0.0)

    def test_interruption_windows_match_records(self, tiny_cfg):
        """Down from the command to completion, or to the end of re-establishment; an attempt cut in RACH to the end."""
        for run in range(4):
            result = simulate_run(tiny_cfg, run, want_trace=True)
            interrupted = result.trace.interrupted
            expected = np.zeros(interrupted.size, dtype=bool)
            for rec in result.records:
                if rec.outcome is Outcome.SUCCESS:
                    expected[rec.command_tick : rec.completion_tick] = True
                elif rec.outcome is Outcome.FAIL_RACH:
                    expected[rec.command_tick : rec.reestablish_until_tick] = True
            assert not (expected & ~interrupted).any()
            assert interrupted[result.trace.serving_cell < 0].all()
            # any other tick down belongs to an attempt after every record, cut during its RACH
            phases = ("trigger", "report", "command", "completion")
            ticks = [getattr(rec, f"{phase}_tick") for rec in result.records for phase in phases]
            extra = np.flatnonzero(interrupted & ~expected).tolist()
            assert extra == [] or extra == list(range(extra[0], interrupted.size))
            assert extra == [] or extra[0] > max((t for t in ticks if t is not None), default=-1)


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


def _or_none(values):
    return st.one_of(st.none(), values)


# Floats that the CSV writes with ``.6g``: signed zeros, -1.5, values that 6 digits round
# (1234.5678901 -> 1234.57, 999999.5 -> 1e+06) and whatever hypothesis draws.
_six_g_floats = st.one_of(
    st.sampled_from([0.0, -0.0, -1.5, 0.1, 2.5, 1234.5678901, 999999.5, 1.23456789e-05]),
    st.floats(min_value=-10.0, max_value=6000.0),
)
_ticks = _or_none(st.integers(min_value=0, max_value=10_000))
handover_records = st.builds(
    HandoverRecord,
    run_id=st.integers(min_value=0, max_value=10_000),
    serving_cell=st.integers(min_value=0, max_value=8),
    target_cell=_or_none(st.integers(min_value=0, max_value=8)),
    outcome=st.sampled_from(list(Outcome)),
    trigger_tick=_ticks,
    report_tick=_ticks,
    command_tick=_ticks,
    completion_tick=_ticks,
    reestablish_until_tick=_ticks,
    start_position_m=_or_none(_six_g_floats),
    total_delay_s=_or_none(st.one_of(st.sampled_from([0.12, -0.04, 0.1234567]), _six_g_floats)),
)
# config_columns values; the labels beyond the environments need csv quoting
config_column_values = st.tuples(
    st.one_of(st.sampled_from([100.0, 300.0, 500.0, 123.4567891]), st.floats(min_value=1.0, max_value=600.0)),
    st.sampled_from(["viaduct", "cutting", "urban", "mixed", "a,b", 'say "hi"']),
    _six_g_floats,
)


@st.composite
def record_groups(draw) -> list:
    """``(columns, records)`` groups as ``write_records_csv`` takes them.

    Groups take their columns from a pool of at most three, so neighbours often have equal
    columns, and a group may hold no record.
    """
    pool = draw(st.lists(config_column_values, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(min_value=0, max_value=len(pool) - 1), max_size=5))
    return [(pool[k], draw(st.lists(handover_records, max_size=6))) for k in picks]


def literal_fmt(value):
    return format(value, ".6g") if isinstance(value, float) else value


def literal_record_row(record, speed_kmh, environment, offset_db) -> list:
    """A records-CSV row as the literal reference builds it, the outcome text from ``.value``."""
    delay_ms = None if record.total_delay_s is None else record.total_delay_s * 1000.0
    return [
        record.run_id, speed_kmh, environment, offset_db,
        record.trigger_tick, record.report_tick, record.command_tick, record.completion_tick,
        record.start_position_m, delay_ms, record.outcome.value,
    ]


def literal_write_records_csv(rows, path) -> None:
    """The records writer as the literal reference: ``literal_fmt`` on every cell of every row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(csvio.RECORD_COLUMNS)
        writer.writerows([literal_fmt(v) for v in row] for row in rows)


def parsed_record_row(record, speed_kmh, environment, offset_db) -> csvio.RecordRow:
    """The row ``read_records_csv`` should give back for ``record``: each float at 6 digits."""
    row = literal_record_row(record, speed_kmh, environment, offset_db)
    return csvio.RecordRow(*(None if v is None else _q(v) if isinstance(v, float) else v for v in row))


class TestCsv:
    @given(groups=record_groups())
    @settings(max_examples=100)
    def test_records_bytes_match_literal_writer(self, tmp_path_factory, groups):
        folder = tmp_path_factory.mktemp("csv")
        csvio.write_records_csv(groups, folder / "fast.csv")
        rows = [literal_record_row(rec, *columns) for columns, records in groups for rec in records]
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
        rows = [
            literal_record_row(rec, cfg.speed_kmh, cfg.environment_label, cfg.handover.hysteresis_db)
            for cfg, stats in ran
            for rec in stats.records
        ]
        literal_write_records_csv(rows, tmp_path / "literal.csv")
        assert (tmp_path / "sweep_records.csv").read_bytes() == (tmp_path / "literal.csv").read_bytes()
        outcomes = Counter(row[-1] for row in rows)
        assert outcomes[Outcome.NOT_TRIGGERED.value] > 5 and len(outcomes) == len(Outcome), outcomes
        assert {format(row[3], "g") for row in rows} == {"-1.5", "0", "-0", "12"}

    @given(groups=record_groups())
    @settings(max_examples=60)
    def test_records_round_trip(self, tmp_path_factory, groups):
        path = tmp_path_factory.mktemp("csv") / "records.csv"
        csvio.write_records_csv(groups, path)
        assert csvio.read_records_csv(path) == [
            parsed_record_row(rec, *columns) for columns, records in groups for rec in records
        ]

    def test_empty_records_give_header_only(self, tmp_path):
        path = tmp_path / "records.csv"
        csvio.write_records_csv([], path)
        assert path.read_text(encoding="utf-8") == ",".join(csvio.RECORD_COLUMNS) + "\n"

    def test_success_row_format(self, tiny_cfg, tmp_path):
        stats = monte_carlo(tiny_cfg)
        path = tmp_path / "records.csv"
        csvio.write_records_csv([(csvio.config_columns(tiny_cfg), stats.records)], path)
        text = path.read_text(encoding="utf-8")
        assert "\r" not in text
        lines = text.splitlines()
        assert lines[0] == ",".join(csvio.RECORD_COLUMNS)
        success = [l for l in lines[1:] if l.endswith("Success")]
        assert success and ",120," in success[0]

    def test_written_records_parse_back(self, tiny_cfg, tmp_path):
        stats = monte_carlo(tiny_cfg)
        path = tmp_path / "records.csv"
        csvio.write_records_csv([(csvio.config_columns(tiny_cfg), stats.records)], path)
        parsed = csvio.read_records_csv(path)
        assert [p.outcome for p in parsed] == [r.outcome.value for r in stats.records]
        assert [p.start_position_m for p in parsed] == [
            None if r.start_position_m is None else _q(r.start_position_m) for r in stats.records
        ]

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
        not_triggered = HandoverRecord(0, 1, None, Outcome.NOT_TRIGGERED)
        success = HandoverRecord(3, 0, 1, Outcome.SUCCESS, 1, 2, 4, 5, None, 1234.5678901, 0.12)
        fail_rach = HandoverRecord(12, 1, 2, Outcome.FAIL_RACH, 7, 8, 10, 11, 30, 0.1, -0.04)
        groups = [
            ((100.0, "viaduct", 2.0), [not_triggered]),
            ((300.0, "cutting", 0.1), [success]),
            ((300.0, "cutting", 0.1), []),
            ((500.0, "urban", -1.5), [fail_rach]),
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
        csvio.write_records_csv(groups, tmp_path / "records.csv")
        csvio.write_stats_csv([csvio.stats_csv_row(stats, cfg)], tmp_path / "stats.csv")
        csvio.write_histogram_csv(csvio.histogram_csv_rows(stats, cfg), tmp_path / "hist.csv")
        for name, text in (("records", records_text), ("stats", stats_text), ("hist", hist_text)):
            assert (tmp_path / f"{name}.csv").read_bytes() == text.encode("utf-8")

        literal = tmp_path / "literal.csv"
        literal.write_bytes(records_text.encode("utf-8"))
        assert csvio.read_records_csv(literal) == [
            csvio.RecordRow(0, 100.0, "viaduct", 2.0, None, None, None, None, None, None, "NotTriggered"),
            csvio.RecordRow(3, 300.0, "cutting", 0.1, 1, 2, 4, 5, 1234.57, 120.0, "Success"),
            csvio.RecordRow(12, 500.0, "urban", -1.5, 7, 8, 10, 11, 0.1, -40.0, "FailRach"),
        ]

    def test_trace_bytes_match_literal_text(self, tmp_path):
        """Pins the trace columns and number format, numpy scalars included."""
        trace = RunTrace(
            tick_snapshots=np.array([0, 11], dtype=np.int64),
            positions_m=np.array([0.0, 122.25]),
            p_ici=0.01,
            snr_db=np.array([[12.3456789, 0.1], [-3.0, 1e7]]),            # (n_cells, n_ticks)
            effective_snr_db=np.array([[12.0, -0.25], [-3.5, 20.000001]]),
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
