"""End-to-end run orchestration and Monte Carlo aggregation.

One run walks the train over the configured snapshot grid, draws the per-cell
downlink power (path loss + antenna pattern + correlated shadowing + fast
fading), degrades it with the worst-case ICI power for the configured speed,
feeds the L1/L3 measurement pipeline on the 40 ms tick grid, and drives the
handover state machine event by event (``HandoverFsm.run``). The shadowing
and LOS recursions and the fading draws run over every snapshot; everything
after them is evaluated on the tick snapshots only. Runs are reproducible:
every random stream is derived from (master_seed, run_index, cell, purpose),
so results are independent of execution order and worker count.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from . import channel, ici
from .config import RunConfig
from .geometry import environment_at, link_geometry, sample_stride
from .handover import HandoverFsm, HandoverRecord, Outcome, interruption_window
from .measurement import measure_cell

_STREAM_SHADOW = 0
_STREAM_LOS = 1
_STREAM_FADING = 2
_STREAM_MEASUREMENT = 3
_COMMON_LINK = 0x636F6D  # pseudo cell id of the UE-local common shadowing stream


@dataclass(frozen=True)
class _StaticTables:
    """Run-invariant per-snapshot link tables, precomputed once per config."""

    positions: np.ndarray          # (n_snap,)
    base_db_nlos: np.ndarray       # (n_cells, n_snap): gain - path loss - penetration
    base_db_los: np.ndarray
    los_threshold: np.ndarray      # (n_cells, n_snap): latent threshold ndtri(p_los)
    k_los_linear: np.ndarray       # (n_snap,)
    sigma_db: np.ndarray           # (n_snap,)
    decorrelation_m: np.ndarray    # (n_snap,)
    site_corr_sqrt: np.ndarray     # (n_snap,) sqrt of the common shadowing share
    site_ind_sqrt: np.ndarray      # (n_snap,) sqrt of the per-link shadowing share
    los_decorrelation_m: np.ndarray  # (n_snap,)
    tick_snapshots: np.ndarray     # (n_ticks,) snapshot index of each tick
    p_ici: float
    noise_dbm: float
    initial_serving: int


@dataclass
class RunTrace:
    """Per-tick signal quality of one run, for trace CSV output and analysis."""

    run_id: int
    tick_snapshots: np.ndarray
    positions_m: np.ndarray
    p_ici: float
    snr_db: np.ndarray             # (n_ticks, n_cells), no ICI
    effective_snr_db: np.ndarray   # (n_ticks, n_cells), with ICI
    serving_cell: np.ndarray       # (n_ticks,), -1 while re-establishing
    interrupted: np.ndarray        # (n_ticks,) bool
    throughput_bps: np.ndarray     # (n_ticks,)


@dataclass(frozen=True)
class RunResult:
    run_id: int
    records: tuple[HandoverRecord, ...]
    trace: RunTrace | None = None


@dataclass(frozen=True)
class SweepStatistics:
    """Aggregate handover statistics of one configuration."""

    runs: int
    n_records: int
    n_success: int
    success_rate: float
    weighted_start_point_m: float          # nan when no usable success
    mean_delay_s: float                    # nan when no success
    delay_in_samples: int | None
    start_point_histogram: dict[int, float]  # start snapshot -> probability
    records: tuple[HandoverRecord, ...]


def _link_streams(master_seed: int, run_index: int, cell: int, purpose: int) -> np.random.Generator:
    seq = np.random.SeedSequence((master_seed, run_index, cell, purpose))
    return np.random.Generator(np.random.PCG64(seq))


def precompute_tables(cfg: RunConfig) -> _StaticTables:
    kin = cfg.kinematics
    layout = cfg.layout
    n_snap = math.floor((layout.track_length_m - kin.start_position_m) / kin.snapshot_interval_m) + 1
    positions = kin.start_position_m + np.arange(n_snap) * kin.snapshot_interval_m

    env_per_snap = environment_at(layout, positions)
    envs = dict.fromkeys(env for _, _, env in layout.segments)
    # A 0-d object array keeps numpy from casting the str-valued enum to text.
    masks = {env: env_per_snap == np.array(env, dtype=object) for env in envs}

    def per_snapshot(value_of) -> np.ndarray:
        out = np.empty(n_snap)
        for env, mask in masks.items():
            out[mask] = value_of(cfg.profiles[env])
        return out

    sigma = per_snapshot(lambda p: p.shadow_sigma_db)
    decorr = per_snapshot(lambda p: p.shadow_decorrelation_m)
    site_corr = per_snapshot(lambda p: p.shadow_site_correlation)
    los_decorr = per_snapshot(lambda p: p.los_decorrelation_m)
    k_los = per_snapshot(lambda p: p.rician_k_linear())

    n_cells = len(layout.rrhs)
    penetration = cfg.budget.penetration_loss_db
    base_nlos = np.empty((n_cells, n_snap))
    base_los = np.empty((n_cells, n_snap))
    los_threshold = np.empty((n_cells, n_snap))
    for c, site in enumerate(layout.rrhs):
        dist, bearing = link_geometry(site, positions)
        gain = channel.antenna_gain_db(site, bearing)
        for env, mask in masks.items():
            profile = cfg.profiles[env]
            d = dist[mask]
            base_nlos[c, mask] = gain[mask] - channel.path_loss_db(profile, d) - penetration
            base_los[c, mask] = gain[mask] - channel.path_loss_db(profile, d, los=True) - penetration
            with np.errstate(divide="ignore"):
                los_threshold[c, mask] = ndtri(profile.los_probability(d))

    tick_snapshots = np.arange(0, n_snap, sample_stride(kin, cfg.l1.sample_period_s))
    fd = ici.doppler_spread_hz(kin.speed_mps, cfg.ici.carrier_frequency_hz)
    p_ici = ici.ici_power_upper(fd, cfg.ici)

    start = float(positions[0])
    initial_serving = min(
        range(n_cells),
        key=lambda c: abs(layout.rrhs[c].position_along_track - start),
    )
    return _StaticTables(
        positions=positions,
        base_db_nlos=base_nlos,
        base_db_los=base_los,
        los_threshold=los_threshold,
        k_los_linear=k_los,
        sigma_db=sigma,
        decorrelation_m=decorr,
        site_corr_sqrt=np.sqrt(site_corr),
        site_ind_sqrt=np.sqrt(1.0 - site_corr),
        los_decorrelation_m=los_decorr,
        tick_snapshots=tick_snapshots,
        p_ici=p_ici,
        noise_dbm=cfg.budget.noise_dbm(),
        initial_serving=initial_serving,
    )


def _common_shadow_series(cfg: RunConfig, tables: _StaticTables, run_index: int) -> np.ndarray:
    """UE-local shadowing component shared by every link of one run."""
    eps = _link_streams(cfg.master_seed, run_index, _COMMON_LINK, _STREAM_SHADOW).standard_normal(
        tables.positions.size
    )
    return channel.shadowing_series_db(
        eps, cfg.kinematics.snapshot_interval_m, tables.sigma_db, tables.decorrelation_m
    )


def _downlink_pr_series(
    cfg: RunConfig,
    tables: _StaticTables,
    run_index: int,
    cell: int,
    common_shadow: np.ndarray,
) -> np.ndarray:
    """Noise-normalised downlink power of one link at the tick snapshots.

    The recursions and random streams cover every snapshot, so a value does
    not depend on the tick stride; the elementwise tail runs on ticks only.
    """
    n_snap = tables.positions.size
    step = cfg.kinematics.snapshot_interval_m
    idx = tables.tick_snapshots

    eps = _link_streams(cfg.master_seed, run_index, cell, _STREAM_SHADOW).standard_normal(n_snap)
    own = channel.shadowing_series_db(eps, step, tables.sigma_db, tables.decorrelation_m)
    shadow = tables.site_corr_sqrt[idx] * common_shadow[idx] + tables.site_ind_sqrt[idx] * own[idx]

    # LOS persistence: threshold a unit-variance correlated latent so the
    # marginal LOS probability stays exactly distance-dependent.
    latent_eps = _link_streams(cfg.master_seed, run_index, cell, _STREAM_LOS).standard_normal(n_snap)
    latent = channel.shadowing_series_db(latent_eps, step, 1.0, tables.los_decorrelation_m)
    los = latent[idx] < tables.los_threshold[cell, idx]

    normals = _link_streams(cfg.master_seed, run_index, cell, _STREAM_FADING).standard_normal(
        (n_snap, 2)
    )
    k = np.where(los, tables.k_los_linear[idx], 0.0)
    h2 = channel.small_scale_series(normals[idx], k)

    base = np.where(los, tables.base_db_los[cell, idx], tables.base_db_nlos[cell, idx])
    rx_dbm = cfg.budget.rrh_tx_power_dbm + base + shadow + 10.0 * np.log10(h2)
    return ici.snr_linear_from_dbm(rx_dbm, tables.noise_dbm)


def simulate_run(
    cfg: RunConfig,
    run_index: int,
    *,
    tables: _StaticTables | None = None,
    want_trace: bool = False,
) -> RunResult:
    """Simulate one seeded run; deterministic given (config, master_seed, run_index)."""
    if tables is None:
        tables = precompute_tables(cfg)
    n_cells = len(cfg.layout.rrhs)
    n_ticks = tables.tick_snapshots.size
    p = tables.p_ici
    ul_shift = 10.0 ** ((cfg.budget.ue_tx_power_dbm - cfg.budget.rrh_tx_power_dbm) / 10.0)

    common_shadow = _common_shadow_series(cfg, tables, run_index)
    pr_dl = np.empty((n_cells, n_ticks))
    for cell in range(n_cells):
        pr_dl[cell] = _downlink_pr_series(cfg, tables, run_index, cell, common_shadow)

    eff_lin_dl = pr_dl / (pr_dl * p + 1.0)
    l3 = np.empty((n_cells, n_ticks))
    for cell in range(n_cells):
        meas_rng = _link_streams(cfg.master_seed, run_index, cell, _STREAM_MEASUREMENT)
        l3[cell] = measure_cell(eff_lin_dl[cell], cfg.l1, cfg.l3, meas_rng)

    dl_snr = ici.rss_with_ici(pr_dl, p)
    ul_snr = ici.rss_with_ici(pr_dl * ul_shift, p)

    fsm = HandoverFsm(
        cfg.handover,
        cfg.l1.sample_period_s,
        n_cells,
        serving_cell=tables.initial_serving,
        run_id=run_index,
    )
    records, serving_trace = fsm.run(l3, ul_snr, dl_snr)

    for rec in records:
        if rec.command_tick is not None:
            rec.start_position_m = float(
                tables.positions[tables.tick_snapshots[rec.command_tick]]
            )
    if not records:
        records.append(
            HandoverRecord(
                run_id=run_index,
                serving_cell=fsm.serving_cell if fsm.serving_cell is not None else tables.initial_serving,
                target_cell=None,
                outcome=Outcome.NOT_TRIGGERED,
            )
        )

    trace = None
    if want_trace:
        interrupted = np.zeros(n_ticks, dtype=bool)
        for rec in records:
            if rec.outcome in (Outcome.SUCCESS, Outcome.FAIL_RACH):
                lo, hi = interruption_window(rec)
                interrupted[lo : min(hi, n_ticks)] = True
        interrupted |= serving_trace < 0
        eff_db_serving = np.where(
            serving_trace >= 0,
            dl_snr[np.maximum(serving_trace, 0), np.arange(n_ticks)],
            -np.inf,
        )
        throughput = np.where(
            interrupted,
            0.0,
            ici.throughput_bps(eff_db_serving, cfg.budget.bandwidth_hz),
        )
        trace = RunTrace(
            run_id=run_index,
            tick_snapshots=tables.tick_snapshots.copy(),
            positions_m=tables.positions[tables.tick_snapshots],
            p_ici=p,
            snr_db=(10.0 * np.log10(pr_dl)).T,
            effective_snr_db=dl_snr.T.copy(),
            serving_cell=serving_trace,
            interrupted=interrupted,
            throughput_bps=throughput,
        )
    return RunResult(run_id=run_index, records=tuple(records), trace=trace)


def aggregate_records(records: Sequence[HandoverRecord], cfg: RunConfig) -> SweepStatistics:
    """Pure fold of handover records into sweep statistics.

    The starting point of a success is the distance from the train position
    at the command tick back to the serving RRH, snapped to the snapshot
    grid. The histogram counts one handover per RRH span: the first forward
    success (offset within one span) of each (run, serving cell) pair, so
    later re-crossings of the same boundary do not dilute the statistic.
    Delay and success counts cover every record.
    """
    layout = cfg.layout
    interval = cfg.kinematics.snapshot_interval_m
    max_snap = round(layout.rrh_spacing_m / interval)
    successes = [r for r in records if r.outcome is Outcome.SUCCESS]
    snaps = []
    seen: set[tuple[int, int]] = set()
    for rec in successes:
        offset = rec.start_position_m - layout.rrhs[rec.serving_cell].position_along_track
        snap = round(offset / interval)
        key = (rec.run_id, rec.serving_cell)
        if 0 <= snap <= max_snap and key not in seen:
            seen.add(key)
            snaps.append(snap)
    counts = Counter(snaps)
    total = len(snaps)
    histogram = {s: counts[s] / total for s in sorted(counts)} if total else {}
    weighted = float(np.mean(snaps)) * interval if snaps else math.nan
    mean_delay = (
        float(np.mean([r.total_delay_s for r in successes])) if successes else math.nan
    )
    delay_samples = (
        round(mean_delay / cfg.l1.sample_period_s) if successes else None
    )
    n_records = len(records)
    return SweepStatistics(
        runs=len({r.run_id for r in records}),
        n_records=n_records,
        n_success=len(successes),
        success_rate=len(successes) / n_records if n_records else 0.0,
        weighted_start_point_m=weighted,
        mean_delay_s=mean_delay,
        delay_in_samples=delay_samples,
        start_point_histogram=histogram,
        records=tuple(records),
    )


def monte_carlo(cfg: RunConfig, *, workers: int = 1) -> SweepStatistics:
    """Run ``cfg.runs`` independent seeded runs and aggregate their records.

    Aggregation is ordered by run index, so the result is identical for any
    worker count.
    """
    tables = precompute_tables(cfg)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda i: simulate_run(cfg, i, tables=tables), range(cfg.runs))
            )
    else:
        results = [simulate_run(cfg, i, tables=tables) for i in range(cfg.runs)]
    records: list[HandoverRecord] = []
    for res in sorted(results, key=lambda r: r.run_id):
        records.extend(res.records)
    return aggregate_records(records, cfg)
