"""End-to-end run orchestration and Monte Carlo aggregation.

One run has a link part and a handover part. The link part walks the train
over the configured snapshot grid, draws the per-cell downlink power (path
loss + antenna pattern + correlated shadowing + fast fading), degrades it with
the worst-case ICI power for the configured speed and feeds the L1/L3
measurement pipeline on the 40 ms tick grid. The handover part drives the
handover state machine over it attempt by attempt (``HandoverFsm.run``).

What runs on snapshots and what on ticks:

* Snapshots: per cell, the draws of every stream and the shadowing and
  LOS-latent recursions, nothing else. The recursions read segment tables
  that ``precompute_tables`` splits once per config. Only their values at
  the ticks are kept (in a sweep, the shadowing and fading at every k-th
  snapshot, see ``_run_batch``), so no per-snapshot stack of cells is ever
  built.
* Ticks: every link table is evaluated only at the tick positions, once per
  config: geometry, antenna gain, both path losses, the LOS thresholds,
  the shadowing shares and the Rician terms. Everything after the
  recursions runs once per run on the tick arrays: the LOS decision, fading
  power, received power, the ICI-degraded DL SINR (computed once; the L1
  input is its linear form and the FSM's DL gate its dB form), the UL SINR,
  L1/L3 for all cells in one call, and the FSM.

Streams drawn only as far as they are read: the LOS latent of a cell stops
at the last tick whose LOS threshold is finite in some cell, and is not
drawn at all when none is (single-environment viaduct and urban tracks, the
urban tail of the mixed track); a threshold of +inf or -inf settles the
comparison without it. The measurement noise is drawn once per tick.

Runs are reproducible: every random stream is derived from (master_seed,
run_index, cell, purpose), so results are independent of execution order
and worker count. What the configs of a sweep share, and why that leaves
every record unchanged, is stated once, in ``_run_batch``.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import ndtri

from . import channel, ici
from .config import ConfigError, RunConfig
from .geometry import DeploymentLayout, Environment, environment_at, link_geometry, sample_stride, snapshot_count
from .handover import HandoverConfig, HandoverFsm, HandoverRecord, Outcome, interruption_window
from .measurement import measure_cell

_STREAM_SHADOW = 0
_STREAM_LOS = 1
_STREAM_FADING = 2
_STREAM_MEASUREMENT = 3
_COMMON_LINK = 0x636F6D  # pseudo cell id of the UE-local common shadowing stream


@dataclass(frozen=True)
class _StaticTables:
    """Run-invariant link tables, precomputed once per config.

    Only the recursions run on the snapshot grid, and they read it through
    their segment tables; every other table holds what the per-run tail
    reads at the ``tick_snapshots`` and is evaluated only there.
    """

    n_snapshots: int
    shadow_segments: tuple[channel.RecursionSegment, ...]  # the shadowing, over every snapshot
    los_segments: tuple[channel.RecursionSegment, ...]     # the LOS latent, up to the last decisive tick
    tick_snapshots: np.ndarray     # (n_ticks,) snapshot index of each tick
    tick_stride: int               # snapshots per tick: tick_snapshots is [0, n_snapshots) by it
    tick_positions: np.ndarray     # (n_ticks,) train position at each tick
    tick_rx_nlos_dbm: np.ndarray   # (n_cells, n_ticks): tx power + gain - path loss - penetration
    tick_rx_los_dbm: np.ndarray    # (n_cells, n_ticks): the same with the LOS path loss; the
                                   # same array when no profile on the track has a LOS exponent
    tick_los_threshold: np.ndarray  # (n_cells, n_ticks): latent threshold ndtri(p_los)
    tick_site_corr_sqrt: np.ndarray  # (n_ticks,) sqrt of the common shadowing share
    tick_site_ind_sqrt: np.ndarray   # (n_ticks,) sqrt of the per-link shadowing share
    tick_rician: tuple[np.ndarray, np.ndarray]  # (mean, scale), each (n_ticks,), on LOS ticks
    los_ticks: int                 # ticks up to the last finite LOS threshold of any cell
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
    per_handover: tuple[tuple[HandoverRecord, ...], ...]  # each handover setting's records
    trace: RunTrace | None = None

    @property
    def records(self) -> tuple[HandoverRecord, ...]:
        return self.per_handover[0]


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


def _environment_runs(
    layout: DeploymentLayout, positions: np.ndarray
) -> list[tuple[int, int, Environment]]:
    """Maximal ``(lo, hi, environment)`` snapshot slices of one environment.

    Segments are contiguous, so one ``searchsorted`` of the segment starts
    gives the first snapshot of each; ``environment_at`` names the
    environment of each non-empty slice.
    """
    starts = np.array([start for start, _, _ in layout.segments[1:]])
    edges = [0, *np.searchsorted(positions, starts).tolist(), positions.size]
    slices = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    envs = environment_at(layout, positions[[lo for lo, _ in slices]])
    runs: list[tuple[int, int, Environment]] = []
    for (lo, hi), env in zip(slices, envs):
        if runs and runs[-1][2] is env:
            runs[-1] = (runs[-1][0], hi, env)
        else:
            runs.append((lo, hi, env))
    return runs


def precompute_tables(cfg: RunConfig) -> _StaticTables:
    kin = cfg.kinematics
    layout = cfg.layout
    step = kin.snapshot_interval_m
    n_snap = snapshot_count(layout, kin)
    try:
        grid = np.arange(n_snap)
    except MemoryError as exc:
        raise ConfigError(f"the grid of {n_snap} snapshots does not fit in memory") from exc
    runs = _environment_runs(layout, kin.start_position_m + grid * step)
    stride = sample_stride(kin, cfg.l1.sample_period_s)
    tick_snapshots = np.arange(0, n_snap, stride)
    tick_positions = kin.start_position_m + tick_snapshots * step
    n_ticks = tick_snapshots.size
    # the ticks of snapshot slice [lo, hi) are [ceil(lo / stride), ceil(hi / stride))
    tick_runs = [(-(-lo // stride), -(-hi // stride), env) for lo, hi, env in runs]

    def per_tick(value_of) -> np.ndarray:
        out = np.empty(n_ticks)
        for lo, hi, env in tick_runs:
            out[lo:hi] = value_of(cfg.profiles[env])
        return out

    site_corr = per_tick(lambda p: p.shadow_site_correlation)
    n_cells = layout.spans + 1
    penetration = cfg.budget.penetration_loss_db
    # without a LOS exponent on the track both path losses are one table
    los_exponent = any(cfg.profiles[env].pathloss_exponent_los is not None for _, _, env in runs)
    base_nlos = np.empty((n_cells, n_ticks))
    base_los = np.empty((n_cells, n_ticks)) if los_exponent else base_nlos
    los_threshold = np.empty((n_cells, n_ticks))
    for c in range(n_cells):
        dist, bearing = link_geometry(layout, c, tick_positions)
        gain = channel.antenna_gain_db(layout, bearing)
        for lo, hi, env in tick_runs:
            profile = cfg.profiles[env]
            d = dist[lo:hi]
            base_nlos[c, lo:hi] = gain[lo:hi] - channel.path_loss_db(profile, d) - penetration
            if los_exponent:
                base_los[c, lo:hi] = gain[lo:hi] - channel.path_loss_db(profile, d, los=True) - penetration
            with np.errstate(divide="ignore"):
                los_threshold[c, lo:hi] = ndtri(profile.los_probability(d))

    decisive = np.flatnonzero(np.isfinite(los_threshold).any(axis=0))
    los_ticks = int(decisive[-1]) + 1 if decisive.size else 0
    n_latent = (los_ticks - 1) * stride + 1 if los_ticks else 0
    profile_runs = [(lo, hi, cfg.profiles[env]) for lo, hi, env in runs]
    fd = ici.doppler_spread_hz(kin.speed_mps, cfg.ici.carrier_frequency_hz)
    p_ici = ici.ici_power_upper(fd, cfg.ici)
    if not math.isfinite(p_ici):
        raise ConfigError(f"the ICI power overflows at {cfg.speed_kmh:g} km/h with {cfg.ici}")
    tx = cfg.budget.rrh_tx_power_dbm
    rx_nlos = tx + base_nlos
    start = float(tick_positions[0])
    initial_serving = min(range(n_cells), key=lambda c: abs(layout.rrh_position_m(c) - start))
    return _StaticTables(
        n_snapshots=n_snap,
        shadow_segments=channel.shadowing_segments(
            step,
            [(lo, hi, p.shadow_sigma_db, p.shadow_decorrelation_m) for lo, hi, p in profile_runs],
            n_snap,
        ),
        los_segments=channel.shadowing_segments(
            step, [(lo, hi, 1.0, p.los_decorrelation_m) for lo, hi, p in profile_runs], n_latent
        ),
        tick_snapshots=tick_snapshots,
        tick_stride=stride,
        tick_positions=tick_positions,
        tick_rx_nlos_dbm=rx_nlos,
        tick_rx_los_dbm=tx + base_los if los_exponent else rx_nlos,
        tick_los_threshold=los_threshold,
        tick_site_corr_sqrt=np.sqrt(site_corr),
        tick_site_ind_sqrt=np.sqrt(1.0 - site_corr),
        tick_rician=channel.rician_coefficients(per_tick(lambda p: p.rician_k_linear())),
        los_ticks=los_ticks,
        p_ici=p_ici,
        noise_dbm=cfg.budget.noise_dbm(),
        initial_serving=initial_serving,
    )


_RAYLEIGH = channel.rician_coefficients(0.0)


@dataclass(frozen=True)
class _Streams:
    """One run's shadowing and fading draws, kept at every ``stride``-th snapshot.

    A stream family shares them (see ``_run_batch``). Readers take views and
    never write to them.
    """

    stride: int
    own: np.ndarray      # (n_cells, n_kept) per-link shadowing, dB
    common: np.ndarray   # (n_kept,) UE-local common shadowing, dB
    normals: np.ndarray  # (n_cells, n_kept, 2) fading normals


def _stream_family(tables: _StaticTables) -> tuple:
    """What a run's shadowing and fading draws depend on besides the seed and run index."""
    return tables.tick_rx_nlos_dbm.shape[0], tables.n_snapshots, tables.shadow_segments


def _draw_streams(seed: int, run_index: int, tables: _StaticTables, stride: int) -> _Streams:
    """Draw the shadowing and fading streams of one run over the snapshot grid.

    Per cell, the streams are drawn and the recursions run over every
    snapshot; only every ``stride``-th value is kept.
    """
    n_cells, n_snap, segments = _stream_family(tables)
    kept = slice(None, None, stride)
    n_kept = -(-n_snap // stride)
    own = np.empty((n_cells, n_kept))
    normals = np.empty((n_cells, n_kept, 2))
    for cell in range(n_cells):
        eps = _link_streams(seed, run_index, cell, _STREAM_SHADOW).standard_normal(n_snap)
        own[cell] = channel.shadowing_series_db(eps, segments)[kept]
        fading = _link_streams(seed, run_index, cell, _STREAM_FADING)
        normals[cell] = fading.standard_normal((n_snap, 2))[kept]
    eps = _link_streams(seed, run_index, _COMMON_LINK, _STREAM_SHADOW).standard_normal(n_snap)
    common = channel.shadowing_series_db(eps, segments)[kept]
    return _Streams(stride, own, common, normals)


def _downlink_pr_ticks(cfg: RunConfig, tables: _StaticTables, run_index: int, streams: _Streams) -> np.ndarray:
    """Noise-normalised downlink power of every link at the tick snapshots, ``(n_cells, n_ticks)``.

    The shadowing and fading come from ``streams``, whose stride divides the
    tick stride; the LOS latent is drawn here, per cell over the snapshot
    grid up to ``los_ticks``. The rest runs once on the stack.
    """
    seed = cfg.master_seed
    ticks = slice(None, None, tables.tick_stride // streams.stride)
    n_cells, n_ticks = tables.tick_rx_nlos_dbm.shape
    m = tables.los_ticks
    n_latent = tables.los_segments[-1][1] if tables.los_segments else 0

    latent = np.empty((n_cells, n_ticks))
    latent[:, m:] = 0.0  # only an infinite threshold is read there
    if n_latent:
        # LOS persistence: threshold a unit-variance correlated latent so the
        # marginal LOS probability stays exactly distance-dependent.
        for cell in range(n_cells):
            eps = _link_streams(seed, run_index, cell, _STREAM_LOS).standard_normal(n_latent)
            latent[cell, :m] = channel.shadowing_series_db(eps, tables.los_segments)[:: tables.tick_stride]

    los = latent < tables.tick_los_threshold
    mean, scale = tables.tick_rician
    h2 = channel.small_scale_series(
        streams.normals[:, ticks], np.where(los, mean, _RAYLEIGH[0]), np.where(los, scale, _RAYLEIGH[1])
    )
    # rx = (tx + base) + shadow + 10 log10(h2), summed in place; the shadow
    # mixes the per-link and common terms in the latent's buffer, which the
    # LOS decision has read (the streams may be shared, so not in theirs)
    shadow = np.multiply(streams.own[:, ticks], tables.tick_site_ind_sqrt, out=latent)
    shadow += tables.tick_site_corr_sqrt * streams.common[ticks]
    rx_dbm = np.where(los, tables.tick_rx_los_dbm, tables.tick_rx_nlos_dbm)
    rx_dbm += shadow
    fading_db = np.log10(h2)
    fading_db *= 10.0
    rx_dbm += fading_db
    return ici.snr_linear_from_dbm(rx_dbm, tables.noise_dbm)


def _link(cfg: RunConfig, tables: _StaticTables, run_index: int, streams: _Streams) -> tuple[np.ndarray, ...]:
    """The link part of a run: ``(pr_dl, l3, ul_snr, dl_snr)``, each ``(n_cells, n_ticks)``."""
    p = tables.p_ici
    with np.errstate(over="ignore", invalid="ignore"):  # a power out of the float range is rejected below
        pr_dl = _downlink_pr_ticks(cfg, tables, run_index, streams)
        pr_ul = pr_dl * cfg.budget.ul_shift()
    # the UL shift is a positive float, so this bounds pr_dl too; NaN fails it
    if not 0.0 < pr_ul.min() <= pr_ul.max() < math.inf:
        raise ConfigError(f"run {run_index}: a link's SNR leaves the float range; check budget, gains, profiles")
    eff_lin_dl = pr_dl / (pr_dl * p + 1.0)
    meas_rngs = [_link_streams(cfg.master_seed, run_index, c, _STREAM_MEASUREMENT) for c in range(len(pr_dl))]
    l3 = measure_cell(eff_lin_dl, cfg.l1, cfg.l3, meas_rngs)
    dl_snr = 10.0 * np.log10(eff_lin_dl)  # ici.rss_with_ici(pr_dl, p), from the L1 input
    ul_snr = ici.rss_with_ici(pr_ul, p)
    return pr_dl, l3, ul_snr, dl_snr


def _handover(
    cfg: RunConfig, handover: HandoverConfig, tables: _StaticTables, run_index: int, link: tuple
) -> tuple[list[HandoverRecord], np.ndarray]:
    """The handover part of a run: one state machine over the link, its records and serving trace."""
    _, l3, ul_snr, dl_snr = link
    n_cells, period = l3.shape[0], cfg.l1.sample_period_s
    fsm = HandoverFsm(handover, period, n_cells, serving_cell=tables.initial_serving, run_id=run_index)
    records, serving_trace = fsm.run(l3, ul_snr, dl_snr)
    placed = [rec for rec in records if rec.command_tick is not None]
    for rec, x in zip(placed, tables.tick_positions[[rec.command_tick for rec in placed]].tolist()):
        rec.start_position_m = x
    if not records:
        records.append(HandoverRecord(run_index, fsm.serving_cell, None, Outcome.NOT_TRIGGERED))
    return records, serving_trace


def simulate_run(
    cfg: RunConfig,
    run_index: int,
    *,
    tables: _StaticTables | None = None,
    want_trace: bool = False,
    handovers: Sequence[HandoverConfig] | None = None,
    streams: _Streams | None = None,
) -> RunResult:
    """Simulate one seeded run; deterministic given (config, master_seed, run_index).

    The link part runs once, the handover part once per entry of ``handovers``
    (default ``(cfg.handover,)``); ``records`` and the trace are the first's.
    ``streams`` are this run's shadowing and fading draws, shared with the
    other link groups of its stream family; without them the run draws its
    own at ``tables.tick_stride``, as ``_run_batch`` does for a family of one.
    """
    if tables is None:
        tables = precompute_tables(cfg)
    if streams is None:
        streams = _draw_streams(cfg.master_seed, run_index, tables, tables.tick_stride)
    link = _link(cfg, tables, run_index, streams)
    drives = [_handover(cfg, ho, tables, run_index, link) for ho in handovers or (cfg.handover,)]
    records, serving_trace = drives[0]

    trace = None
    if want_trace:
        pr_dl, _, _, dl_snr = link
        n_ticks = tables.tick_snapshots.size
        interrupted = np.zeros(n_ticks, dtype=bool)
        for rec in records:
            if rec.outcome in (Outcome.SUCCESS, Outcome.FAIL_RACH):
                lo, hi = interruption_window(rec)
                interrupted[lo : min(hi, n_ticks)] = True
        eff_db_serving = np.where(
            serving_trace >= 0,
            dl_snr[np.maximum(serving_trace, 0), np.arange(n_ticks)],
            -np.inf,
        )
        throughput = np.where(interrupted, 0.0, ici.throughput_bps(eff_db_serving, cfg.budget.bandwidth_hz))
        trace = RunTrace(
            run_id=run_index,
            tick_snapshots=tables.tick_snapshots.copy(),
            positions_m=tables.tick_positions.copy(),
            p_ici=tables.p_ici,
            snr_db=(10.0 * np.log10(pr_dl)).T,
            effective_snr_db=dl_snr.T.copy(),
            serving_cell=serving_trace,
            interrupted=interrupted,
            throughput_bps=throughput,
        )
    return RunResult(tuple(tuple(r) for r, _ in drives), trace)


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
        offset = rec.start_position_m - layout.rrh_position_m(rec.serving_cell)
        snap = round(offset / interval)
        key = (rec.run_id, rec.serving_cell)
        if 0 <= snap <= max_snap and key not in seen:
            seen.add(key)
            snaps.append(snap)
    counts = Counter(snaps)
    total = len(snaps)
    histogram = {s: counts[s] / total for s in sorted(counts)} if total else {}
    weighted = float(np.mean(snaps)) * interval if snaps else math.nan
    mean_delay = float(np.mean([r.total_delay_s for r in successes])) if successes else math.nan
    delay_samples = round(mean_delay / cfg.l1.sample_period_s) if successes else None
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


class SweepGrid:
    """The configs of a sweep, which need one ``master_seed`` and one ``runs``, for ``monte_carlo``.

    The first request runs them all in one ``_run_batch``; each request takes
    its config's statistics, and a config outside the grid runs alone.
    """

    def __init__(self, cfgs: Sequence[RunConfig]) -> None:
        self._cfgs = list(cfgs)  # emptied when the batch runs
        if len({(c.master_seed, c.runs) for c in self._cfgs}) > 1:
            raise ValueError("the configs of a SweepGrid need one master_seed and one runs")
        self._ready: list[tuple[RunConfig, SweepStatistics]] = []

    def statistics(self, cfg: RunConfig, workers: int) -> SweepStatistics:
        if self._cfgs:
            self._ready = list(zip(self._cfgs, _run_batch(self._cfgs, workers)))
            self._cfgs = []
        i = next((i for i, (c, _) in enumerate(self._ready) if c == cfg), None)
        return _run_batch([cfg], workers)[0] if i is None else self._ready.pop(i)[1]


def _run_batch(cfgs: Sequence[RunConfig], workers: int) -> list[SweepStatistics]:
    """Statistics of configs with one ``master_seed`` and ``runs``, in the order of ``cfgs``.

    This is where the configs of a sweep share work, and the sharing is
    exact: every record is the one the config would get alone.

    * The configs that differ only in ``handover`` form a link group, which
      shares one set of tables and, per run, one link part (the LOS latent,
      the L1/L3 measurements) that drives one state machine per distinct
      ``handover``. Only the state machine reads ``handover``.
    * The link groups whose tables have equal cell counts, snapshot counts
      and shadowing segments (``_stream_family``) form a stream family, which
      shares, per run, one draw of the shadowing and fading streams. Every
      random stream is keyed by (master_seed, run_index, cell, purpose) and
      indexed by snapshot, not by tick, and the shadowing recursion reads
      only the shadowing segments, so these draws depend neither on the
      speed nor on the LOS profile. They are kept at every k-th snapshot, k
      the gcd of the family's tick strides, and each group slices its ticks
      out of them. The speeds and environments of a sweep with the default
      profiles form one family.

    Each run goes through every link group, so all their table sets are
    alive while the runs go, on up to ``workers`` threads and never more
    than the CPU count. Runs keep only their records, never the link arrays.
    """
    groups: list[tuple[RunConfig, dict[HandoverConfig, list[int]]]] = []  # link groups, by config index
    for i, c in enumerate(cfgs):
        group = next((g for g in groups if replace(c, handover=g[0].handover) == g[0]), None)
        if group is None:
            groups.append((c, {c.handover: [i]}))
        else:
            group[1].setdefault(c.handover, []).append(i)  # equal grid points drive one machine
    tables = [precompute_tables(rep) for rep, _ in groups]
    by_family: dict[tuple, list[int]] = {}
    for g, t in enumerate(tables):
        by_family.setdefault(_stream_family(t), []).append(g)
    families = [(math.gcd(*(tables[g].tick_stride for g in family)), family) for family in by_family.values()]
    seed = cfgs[0].master_seed

    def run(run_index: int) -> list[tuple[tuple[HandoverRecord, ...], ...]]:
        per_group = [()] * len(groups)
        for stride, family in families:
            streams = _draw_streams(seed, run_index, tables[family[0]], stride)
            for g in family:
                rep, members = groups[g]
                result = simulate_run(rep, run_index, tables=tables[g], handovers=list(members), streams=streams)
                per_group[g] = result.per_handover
        return per_group

    workers = min(workers, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(cfgs[0].runs)))
    else:
        results = [run(i) for i in range(cfgs[0].runs)]
    stats: dict[int, SweepStatistics] = {}
    for g, (_, members) in enumerate(groups):
        for k, same in enumerate(members.values()):
            records = [rec for result in results for rec in result[g][k]]
            stats |= dict.fromkeys(same, aggregate_records(records, cfgs[same[0]]))
    return [stats[i] for i in range(len(cfgs))]


def monte_carlo(cfg: RunConfig, *, workers: int = 1, grid: SweepGrid | None = None) -> SweepStatistics:
    """Run ``cfg.runs`` independent seeded runs and aggregate their records.

    With a grid, ``cfg`` runs in the grid's batch, which shares work among
    the grid's configs without changing a record (see ``_run_batch``).
    Without a grid, ``cfg`` is a batch of one, whose runs draw and hold only
    their own streams at its tick stride.

    Aggregation is ordered by run index, so the result is identical for any
    worker count.
    """
    return _run_batch([cfg], workers)[0] if grid is None else grid.statistics(cfg, workers)
