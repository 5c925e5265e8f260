"""Differential oracle of the tick-grid run engine.

``_reference_run`` is the per-link engine the tick-grid pass replaced, kept
literally: it builds its own link tables on every snapshot, runs the
recursions with a per-snapshot parameter split, and per cell draws every
stream and reads every table at the tick snapshots by fancy indexing; the
fading power comes from the Rician K factor directly, L1/L3 run one cell at
a time, and both SINRs come from ``rss_with_ici``; the handover state
machine is driven with ``step`` on every tick, and the serving cell and the
phase are read after each: the link is down while the phase is
``RachInProgress`` or ``Reestablishing``. ``simulate_run``, whose tables exist only on the ticks, whose
recursions read segment tables and whose state machine resolves one attempt
per iteration, must reproduce its records and every ``RunTrace`` array bit
for bit. ``link_streams`` builds each stream literally, from its own
``SeedSequence``; the block hash ``_stream_states`` must give the same seed
state, and ``_draw`` the same normals.
"""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter
from scipy.special import ndtri

from railho import channel, ici
from railho.config import RunConfig, apply_overrides, config_from_dict
from railho.geometry import Environment, environment_at, link_geometry, sample_stride
from railho.handover import HandoverFsm, HandoverRecord, Outcome, Phase
from railho.measurement import measure_cell
from railho.simulate import (
    _COMMON_LINK,
    _STREAM_FADING,
    _STREAM_LOS,
    _STREAM_MEASUREMENT,
    _STREAM_SHADOW,
    _STREAM_BLOCK,
    RunTrace,
    _Draw,
    _draw,
    _SeedState,
    _stream_states,
    precompute_tables,
    simulate_run,
)


def link_streams(master_seed, run_index, cell, purpose):
    """The literal stream of (master_seed, run_index, cell, purpose), the oracle of the engine's seeding."""
    seq = np.random.SeedSequence((master_seed, run_index, cell, purpose))
    return np.random.Generator(np.random.PCG64(seq))


def _snapshot_tables(cfg):
    """Link tables on every snapshot, from the physics functions called on the whole grid."""
    kin, layout = cfg.kinematics, cfg.layout
    n_snap = math.floor((layout.track_length_m - kin.start_position_m) / kin.snapshot_interval_m) + 1
    positions = kin.start_position_m + np.arange(n_snap) * kin.snapshot_interval_m
    envs = environment_at(layout, positions)
    profiles = [cfg.profiles[env] for env in envs]

    def per_snapshot(value_of):
        return np.array([value_of(p) for p in profiles], dtype=float)

    site_corr = per_snapshot(lambda p: p.shadow_site_correlation)
    pen = cfg.budget.penetration_loss_db
    shape = (layout.spans + 1, n_snap)
    base_nlos, base_los, threshold = np.empty(shape), np.empty(shape), np.empty(shape)
    for c in range(layout.spans + 1):
        dist, bearing = link_geometry(layout, c, positions)
        gain = channel.antenna_gain_db(layout, bearing)
        for env in set(envs):
            at = np.array([e is env for e in envs])
            profile = cfg.profiles[env]
            base_nlos[c, at] = gain[at] - channel.path_loss_db(profile, dist[at]) - pen
            base_los[c, at] = gain[at] - channel.path_loss_db(profile, dist[at], los=True) - pen
            with np.errstate(divide="ignore"):
                threshold[c, at] = ndtri(profile.los_probability(dist[at]))
    return SimpleNamespace(
        positions=positions,
        base_db_nlos=base_nlos,
        base_db_los=base_los,
        los_threshold=threshold,
        k_los_linear=per_snapshot(lambda p: p.rician_k_linear()),
        sigma_db=per_snapshot(lambda p: p.shadow_sigma_db),
        decorrelation_m=per_snapshot(lambda p: p.shadow_decorrelation_m),
        site_corr_sqrt=np.sqrt(site_corr),
        site_ind_sqrt=np.sqrt(1.0 - site_corr),
        los_decorrelation_m=per_snapshot(lambda p: p.los_decorrelation_m),
        tick_snapshots=np.arange(0, n_snap, sample_stride(kin, cfg.l1.sample_period_s)),
    )


def _series_per_snapshot(eps, step_m, sigma_db, decorrelation_m):
    """Gauss-Markov series with per-snapshot parameters, split where they change."""
    n = eps.size
    sigma = np.broadcast_to(np.asarray(sigma_db, dtype=float), (n,))
    decorr = np.broadcast_to(np.asarray(decorrelation_m, dtype=float), (n,))
    out = np.empty(n)
    prev = float(sigma[0] * eps[0])
    out[0] = prev
    changes = 1 + np.flatnonzero((sigma[2:] != sigma[1:-1]) | (decorr[2:] != decorr[1:-1]))
    bounds = np.concatenate(([1], changes + 1, [n]))
    for i, j in zip(bounds[:-1], bounds[1:]):
        rho = math.exp(-step_m / decorr[i])
        drive = math.sqrt(1.0 - rho * rho) * sigma[i] * eps[i:j]
        seg, _ = lfilter([1.0], [1.0, -rho], drive, zi=np.array([rho * prev]))
        out[i:j] = seg
        prev = float(seg[-1])
    return out


def _small_scale_series_k(normals, k_linear):
    k = np.broadcast_to(np.asarray(k_linear, dtype=float), (normals.shape[0],))
    finite = np.isfinite(k)
    kf = np.where(finite, k, 0.0)
    scale = np.sqrt(1.0 / (2.0 * (kf + 1.0)))
    re = np.sqrt(kf / (kf + 1.0)) + normals[:, 0] * scale
    im = normals[:, 1] * scale
    h2 = re * re + im * im
    return np.where(finite, h2, 1.0)


def _common_shadow_series(cfg, snap, run_index):
    eps = link_streams(cfg.master_seed, run_index, _COMMON_LINK, _STREAM_SHADOW).standard_normal(
        snap.positions.size
    )
    return _series_per_snapshot(
        eps, cfg.kinematics.snapshot_interval_m, snap.sigma_db, snap.decorrelation_m
    )


def _downlink_pr_series(cfg, snap, noise_dbm, run_index, cell, common_shadow):
    n_snap = snap.positions.size
    step = cfg.kinematics.snapshot_interval_m
    idx = snap.tick_snapshots

    eps = link_streams(cfg.master_seed, run_index, cell, _STREAM_SHADOW).standard_normal(n_snap)
    own = _series_per_snapshot(eps, step, snap.sigma_db, snap.decorrelation_m)
    shadow = snap.site_corr_sqrt[idx] * common_shadow[idx] + snap.site_ind_sqrt[idx] * own[idx]

    latent_eps = link_streams(cfg.master_seed, run_index, cell, _STREAM_LOS).standard_normal(n_snap)
    latent = _series_per_snapshot(latent_eps, step, 1.0, snap.los_decorrelation_m)
    los = latent[idx] < snap.los_threshold[cell, idx]

    normals = link_streams(cfg.master_seed, run_index, cell, _STREAM_FADING).standard_normal(
        (n_snap, 2)
    )
    k = np.where(los, snap.k_los_linear[idx], 0.0)
    h2 = _small_scale_series_k(normals[idx], k)

    base = np.where(los, snap.base_db_los[cell, idx], snap.base_db_nlos[cell, idx])
    rx_dbm = cfg.budget.rrh_tx_power_dbm + base + shadow + 10.0 * np.log10(h2)
    return ici.snr_linear_from_dbm(rx_dbm, noise_dbm)


def _reference_run(cfg, run_index, tables):
    snap = _snapshot_tables(cfg)
    n_cells = cfg.layout.spans + 1
    n_ticks = snap.tick_snapshots.size
    p = ici.ici_power_upper(ici.doppler_spread_hz(cfg.kinematics.speed_mps, cfg.ici.carrier_frequency_hz), cfg.ici)
    ul_shift = 10.0 ** ((cfg.budget.ue_tx_power_dbm - cfg.budget.rrh_tx_power_dbm) / 10.0)

    common_shadow = _common_shadow_series(cfg, snap, run_index)
    pr_dl = np.empty((n_cells, n_ticks))
    for cell in range(n_cells):
        pr_dl[cell] = _downlink_pr_series(cfg, snap, tables.noise_dbm, run_index, cell, common_shadow)

    eff_lin_dl = pr_dl / (pr_dl * p + 1.0)
    l3 = np.empty((n_cells, n_ticks))
    for cell in range(n_cells):
        meas_rng = link_streams(cfg.master_seed, run_index, cell, _STREAM_MEASUREMENT)
        l3[cell] = measure_cell(eff_lin_dl[cell], cfg.l1, cfg.l3, meas_rng.standard_normal(n_ticks))

    dl_snr = ici.rss_with_ici(pr_dl, p)
    ul_snr = ici.rss_with_ici(pr_dl * ul_shift, p)

    fsm = HandoverFsm(
        cfg.handover, cfg.l1.sample_period_s, n_cells,
        serving_cell=tables.initial_serving, run_id=run_index,
    )
    records = []
    serving_trace = np.empty(n_ticks, dtype=int)
    interrupted = np.empty(n_ticks, dtype=bool)
    for t in range(n_ticks):
        records.extend(fsm.step(t, l3[:, t].tolist(), ul_snr[:, t].tolist(), dl_snr[:, t].tolist()))
        serving_trace[t] = -1 if fsm.serving_cell is None else fsm.serving_cell
        interrupted[t] = fsm.phase in (Phase.RACH_IN_PROGRESS, Phase.REESTABLISHING)
    for rec in records:
        if rec.command_tick is not None:
            rec.start_position_m = float(snap.positions[snap.tick_snapshots[rec.command_tick]])
    if not records:
        records.append(
            HandoverRecord(
                run_id=run_index,
                serving_cell=fsm.serving_cell if fsm.serving_cell is not None else tables.initial_serving,
                target_cell=None,
                outcome=Outcome.NOT_TRIGGERED,
            )
        )

    eff_db_serving = np.where(
        serving_trace >= 0, dl_snr[np.maximum(serving_trace, 0), np.arange(n_ticks)], -np.inf
    )
    throughput = np.where(
        interrupted, 0.0, ici.throughput_bps(eff_db_serving, cfg.budget.bandwidth_hz)
    )
    trace = RunTrace(
        tick_snapshots=snap.tick_snapshots.copy(),
        positions_m=snap.positions[snap.tick_snapshots],
        p_ici=p,
        snr_db=10.0 * np.log10(pr_dl),
        effective_snr_db=dl_snr,
        serving_cell=serving_trace,
        interrupted=interrupted,
        throughput_bps=throughput,
    )
    return records, trace


_BASE = RunConfig(runs=2, master_seed=20170328)
_SPAN = 1732.0


def _segments(*envs):
    return config_from_dict(
        {
            "layout": {"segments": [[i * _SPAN, (i + 1) * _SPAN, env] for i, env in enumerate(envs)]},
            "runs": 2,
            "seed": 20170328,
        }
    )


def _with(cfg, **sections):
    return dataclasses.replace(
        cfg,
        **{
            name: dataclasses.replace(getattr(cfg, name), **fields)
            for name, fields in sections.items()
        },
    )


def _k_infinite_viaduct():
    cfg = apply_overrides(_BASE, environment="viaduct")
    profiles = dict(cfg.profiles)
    profiles[Environment.VIADUCT] = dataclasses.replace(
        profiles[Environment.VIADUCT], rician_k_db=math.inf
    )
    return dataclasses.replace(cfg, profiles=profiles)


# (id, config, LOS extent: ticks whose latent is drawn, as "none", "part" or "all")
CASES = [
    *[(f"mixed_{v}kmh", apply_overrides(_BASE, speed_kmh=v), "part") for v in (50, 100, 300, 500)],
    *[(env, apply_overrides(_BASE, environment=env), extent)
      for env, extent in (("viaduct", "none"), ("cutting", "all"), ("urban", "none"))],
    ("grid_0.25m_300kmh",
     _with(apply_overrides(_BASE, speed_kmh=300), kinematics={"snapshot_interval_m": 0.25}), "part"),
    ("start_123.4m", _with(_BASE, kinematics={"start_position_m": 123.4}), "part"),
    ("viaduct_k_inf", _k_infinite_viaduct(), "none"),
    ("l1_noiseless", _with(_BASE, l1={"noise_sigma_db": 0.0}), "part"),
    ("ici_off", _with(_BASE, ici={"alpha1": 0.0}), "part"),
    ("cutting_first", _segments("cutting", "viaduct", "urban"), "part"),
    ("cutting_middle", _segments("urban", "cutting", "viaduct"), "part"),
    ("cutting_last", _segments("viaduct", "urban", "cutting"), "all"),
]


@pytest.mark.parametrize("cfg, extent", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_simulate_run_matches_per_link_reference(cfg, extent):
    tables = precompute_tables(cfg)
    m, n_ticks = tables.los_ticks, tables.tick_snapshots.size
    assert {"none": m == 0, "part": 0 < m < n_ticks, "all": m == n_ticks}[extent]
    for run in (0, 3):
        records, trace = _reference_run(cfg, run, tables)
        result = simulate_run(cfg, run, want_trace=True)
        assert list(result.records) == records
        for field in dataclasses.fields(RunTrace):
            got, want = getattr(result.trace, field.name), getattr(trace, field.name)
            assert np.array_equal(got, want), field.name
            assert np.asarray(got).dtype == np.asarray(want).dtype, field.name


_PURPOSES = (_STREAM_SHADOW, _STREAM_LOS, _STREAM_FADING, _STREAM_MEASUREMENT)
# one- and two-word seeds, with the edges of each
_SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**32 - 1) | st.integers(2**32, 2**64 - 1)
_KEYS = st.lists(
    st.tuples(st.sampled_from([0, 1, 2, 3, _COMMON_LINK]) | st.integers(0, 2**32 - 1), st.sampled_from(_PURPOSES)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=_SEEDS,
    first_run=st.integers(0, 3 * _STREAM_BLOCK) | st.integers(0, 2**32 - 4),
    n_runs=st.integers(1, 4),
    keys=_KEYS,
)
@example(seed=2**64 - 1, first_run=_STREAM_BLOCK - 2, n_runs=4, keys=[(_COMMON_LINK, p) for p in _PURPOSES])
@example(seed=0, first_run=0, n_runs=1, keys=[(0, _STREAM_SHADOW)])
def test_stream_states_are_the_seed_sequence_states(seed, first_run, n_runs, keys):
    runs = range(first_run, first_run + n_runs)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the uint32 words wrap silently, as in C
        states = _stream_states(seed, runs, keys)
    assert states.shape == (n_runs, len(keys), 4) and states.dtype == np.uint64
    for run, row in zip(runs, states):
        for (cell, purpose), state in zip(keys, row):
            expected = np.random.SeedSequence((seed, run, cell, purpose)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(state, expected)
            (drawn,) = _draw(state[None], _Draw(purpose, (cell,), 1000, None, False, 1))
            np.testing.assert_array_equal(drawn, link_streams(seed, run, cell, purpose).standard_normal(1000))


def test_seed_state_serves_only_pcg64():
    (state,) = _stream_states(1, [0], [(0, _STREAM_SHADOW)])[0]
    with pytest.raises(ValueError, match="PCG64"):
        np.random.MT19937(_SeedState(state))
