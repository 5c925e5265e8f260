"""End-to-end run orchestration and Monte Carlo aggregation.

One run has a link part and a handover part. The link part walks the train
over the configured snapshot grid, draws the per-cell downlink power (path
loss + antenna pattern + correlated shadowing + fast fading), degrades it with
the worst-case ICI power for the configured speed and feeds the L1/L3
measurement pipeline on the 40 ms tick grid. The handover part drives the
handover state machine over it attempt by attempt (``HandoverFsm.run``),
from the link part's ``link_ranking``, which every handover setting of the
link shares.

What runs on snapshots and what on ticks:

* Snapshots: per cell, the draws of every stream and the shadowing and
  LOS-latent recursions, nothing else. The recursions read segment tables
  that ``precompute_tables`` splits once per config. Only every k-th value
  is kept (see ``run_batch``), so no per-snapshot stack of cells is built.
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
comparison without it. The measurement noise is drawn once per tick, and
not at all when ``l1.noise_sigma_db`` is 0.

Runs are reproducible: every random stream is derived from (master_seed,
run_index, cell, purpose), so results are independent of execution order
and of the worker count. Only the draws go on threads, ahead of the runs;
the link and handover parts run on the calling thread (``run_batch``). Each
stream is a ``PCG64`` seeded with numpy's ``SeedSequence`` of that 4-tuple,
computed for a block of runs in one vectorised hash (``_stream_states``),
not one ``SeedSequence`` per stream; ``simulate_run`` is a block of one.
Every run draws through one path, ``_views`` under the ``_Draw``s of
``_draw_plan``; a single config is a batch of one, and a sweep runs its
configs as one ``run_batch``, which returns their statistics by config.
What the configs of a sweep share, and why that leaves every record
unchanged, is stated once, in ``run_batch``.
"""

from __future__ import annotations

import math
import os
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import islice
from typing import Mapping, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from . import channel, ici
from .config import RUN_INDEX_BITS, ConfigError, RunConfig
from .geometry import DeploymentLayout, Environment, environment_at, link_geometry, sample_stride, snapshot_count
from .handover import HandoverConfig, HandoverFsm, HandoverRecord, Outcome, link_ranking
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
    noise_dbm: float
    initial_serving: int


@dataclass
class RunTrace:
    """Per-tick signal quality of one ``simulate_run``, for trace CSV output and analysis.

    The arrays are the run's own: ``simulate_run`` keeps no other reference to them.
    """

    tick_snapshots: np.ndarray
    positions_m: np.ndarray
    p_ici: float
    snr_db: np.ndarray             # (n_cells, n_ticks), no ICI
    effective_snr_db: np.ndarray   # (n_cells, n_ticks), with ICI
    serving_cell: np.ndarray       # (n_ticks,), -1 while re-establishing
    interrupted: np.ndarray        # (n_ticks,) bool
    throughput_bps: np.ndarray     # (n_ticks,)


@dataclass(frozen=True)
class RunResult:
    """One ``simulate_run``: its records and, when asked for, its trace."""

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


_STREAM_BLOCK = 64  # runs whose streams ``run_batch`` seeds in one ``_stream_states`` pass
_MASK32 = 2**RUN_INDEX_BITS - 1  # one word of a stream's seed key, as SeedSequence hashes it (uint32)
# the constants of numpy's SeedSequence: the pool hash (A), the state hash (B) and the mix
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_words(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) words of ``n`` successive ``SeedSequence`` hash steps, as ``(n, 1)`` columns."""
    words = [init]
    for _ in range(n):
        words.append(words[-1] * mult & _MASK32)
    return np.array(words[:-1], np.uint32)[:, None], np.array(words[1:], np.uint32)[:, None]


def _hashmix(value: np.ndarray, words: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``SeedSequence``'s ``hashmix`` of ``value`` by the hash steps ``words`` (``_hash_words``), broadcast."""
    xor, mult = words
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of the pool words ``x`` with ``y``."""
    x = x * np.uint32(_MIX_MULT_L)
    x -= y * np.uint32(_MIX_MULT_R)
    x ^= x >> 16
    return x


def _stream_states(seed: int, runs: Sequence[int], keys: Sequence[tuple[int, int]]) -> np.ndarray:
    """``SeedSequence((seed, run, cell, purpose)).generate_state(4, np.uint64)`` of every run and
    ``(cell, purpose)`` key, ``(len(runs), len(keys), 4)``.

    This is numpy's ``SeedSequence`` hash (``numpy/random/bit_generator.pyx``)
    on ``uint32`` arrays, one column per stream, which wrap as its C words do.
    The entropy words are the seed's (one for a seed below 2**32, else two),
    then the run, the cell and the purpose, each one word. The first four
    hash into the four pool words, every pool word mixes into the others, the
    words after the fourth mix into each, and eight more hash steps give the
    state, read as four little-endian ``uint64``. Each hash step's constant
    depends only on its place in that order, not on the data.
    """
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), RUN_INDEX_BITS)]
    cells, purposes = np.array(keys, np.uint32).T
    entropy = np.empty((len(seed_words) + 3, len(runs), len(keys)), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None, None]
    entropy[-3] = np.array(runs, np.uint32)[:, None]
    entropy[-2] = cells
    entropy[-1] = purposes
    entropy = entropy.reshape(len(entropy), -1)
    xor, mult = _hash_words(_INIT_A, _MULT_A, 4 * 4 + 4 * (len(entropy) - 4))
    pool = _hashmix(entropy[:4], (xor[:4], mult[:4]))
    k = 4
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], (xor[k : k + 3], mult[k : k + 3])))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, (xor[k : k + 4], mult[k : k + 4])))
        k += 4
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _hash_words(_INIT_B, _MULT_B, 8)).astype(np.uint64)
    # C order, so that each stream's row is the contiguous buffer PCG64 reads
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T).reshape(len(runs), len(keys), 4)


class _SeedState(ISeedSequence):
    """A stream's ``SeedSequence`` state, precomputed by ``_stream_states``, for ``PCG64`` to seed from."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a precomputed stream state holds the four uint64 words PCG64 reads")
        return self.state


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
    if not math.isfinite(ici.ici_power(kin.speed_mps, cfg.ici)):
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
        noise_dbm=cfg.budget.noise_dbm(),
        initial_serving=initial_serving,
    )


_RAYLEIGH = channel.rician_coefficients(0.0)


@dataclass(frozen=True)
class _Draw:
    """Standard normals of one purpose, per cell: ``n`` samples (pairs with ``pairs``).

    With ``segments`` they run through that recursion. Every ``keep``-th
    sample is kept. A link group's read of a draw is a ``_Draw`` too, whose
    ``keep`` is its tick stride (1 for the measurement noise, drawn on ticks).
    """

    purpose: int
    cells: tuple[int, ...]
    n: int
    segments: tuple | None
    pairs: bool
    keep: int


def _draw(states: np.ndarray, d: _Draw) -> np.ndarray:
    """One run's draw ``d``, ``(len(d.cells), n_kept)``, or ``(..., 2)`` with ``pairs``; readers never write to it.

    ``states`` are the ``_stream_states`` rows of the draw's cells.
    """
    shape = (d.n, 2) if d.pairs else (d.n,)
    out = np.empty((len(d.cells), -(-d.n // d.keep), *shape[1:]))
    for row, state in zip(out, states):
        stream = np.random.Generator(np.random.PCG64(_SeedState(state)))
        if d.segments is None and d.keep == 1:
            stream.standard_normal(out=row)
        else:
            eps = stream.standard_normal(shape)
            row[...] = (eps if d.segments is None else channel.shadowing_series_db(eps, d.segments))[:: d.keep]
    return out


def _downlink_pr_ticks(
    tables: _StaticTables, shadowing: np.ndarray, fading: np.ndarray, latent: np.ndarray | None
) -> np.ndarray:
    """Noise-normalised downlink power of every link at the tick snapshots, ``(n_cells, n_ticks)``.

    The draws are the link group's views (see ``_views``), read at its
    ticks: the shadowing (row 0 the train's common term, then one row per
    link), the fading pairs and, up to ``los_ticks``, the LOS latent
    (``None`` when ``los_ticks`` is 0). The rest runs once on the stack.
    """
    m = tables.los_ticks
    buf = np.empty(tables.tick_rx_nlos_dbm.shape)
    buf[:, m:] = 0.0  # only an infinite threshold is read there
    if m:
        # LOS persistence: threshold a unit-variance correlated latent so the
        # marginal LOS probability stays exactly distance-dependent.
        buf[:, :m] = latent
    los = buf < tables.tick_los_threshold
    mean, scale = tables.tick_rician
    h2 = channel.small_scale_series(fading, np.where(los, mean, _RAYLEIGH[0]), np.where(los, scale, _RAYLEIGH[1]))
    # rx = (tx + base) + shadow + 10 log10(h2), summed in place; the shadow
    # mixes the per-link and common terms in the latent's buffer, which the
    # LOS decision has read (the draws may be shared, so not in theirs)
    shadow = np.multiply(shadowing[1:], tables.tick_site_ind_sqrt, out=buf)
    shadow += tables.tick_site_corr_sqrt * shadowing[0]
    rx_dbm = np.where(los, tables.tick_rx_los_dbm, tables.tick_rx_nlos_dbm)
    rx_dbm += shadow
    fading_db = np.log10(h2, out=h2)
    fading_db *= 10.0
    rx_dbm += fading_db
    return ici.snr_linear_from_dbm(rx_dbm, tables.noise_dbm, out=rx_dbm)


def _link(cfg: RunConfig, tables: _StaticTables, run_index: int, views: Sequence) -> tuple[np.ndarray, ...]:
    """The link part of a run: ``(pr_dl, l3, ul_snr, dl_snr, margins, strongest)``.

    The first four are ``(n_cells, n_ticks)``; the last two, ``link_ranking``
    of ``l3``, depend on no handover setting.
    ``views`` are the group's four reads of the run's draws (``_views``):
    ``(shadowing, fading, latent, noise)``; ``noise``, the measurement
    noise's standard normals, is ``None`` when ``cfg.l1`` adds none.
    """
    p = ici.ici_power(cfg.kinematics.speed_mps, cfg.ici)
    with np.errstate(over="ignore", invalid="ignore"):  # a value out of the float range is rejected below
        pr_dl = _downlink_pr_ticks(tables, *views[:3])
        eff_lin_dl = ici.effective_sinr_linear(pr_dl, p)
        eff_lin_ul = ici.effective_sinr_linear(pr_dl * cfg.budget.ul_shift(), p)
        # an overflow of a power or of pr * p_ici leaves an effective SINR 0, inf or NaN (which fails
        # every comparison), and L1, which needs them positive, may still overflow its whole-run sums
        in_range = all(0.0 < x.min() <= x.max() < math.inf for x in (eff_lin_dl, eff_lin_ul))
        l3 = measure_cell(eff_lin_dl, cfg.l1, cfg.l3, views[3]) if in_range else None
    if l3 is None or not np.isfinite(l3).all():
        raise ConfigError(f"run {run_index}: a link's SNR leaves the float range; check budget, gains, profiles, ici")
    # ici.rss_with_ici of both links, in place: the DL in the L1 input, which L1 has read
    dl_snr = np.log10(eff_lin_dl, out=eff_lin_dl)
    dl_snr *= 10.0
    ul_snr = np.log10(eff_lin_ul, out=eff_lin_ul)
    ul_snr *= 10.0
    return pr_dl, l3, ul_snr, dl_snr, *link_ranking(l3)


def _clip_segments(segments: tuple | None, n: int) -> tuple | None:
    """The recursion segments of the first ``n`` samples of ``segments``; ``None`` stays ``None``."""
    return segments and tuple((i, min(j, n), rho, scale) for i, j, rho, scale in segments if i < n)


def _draw_plan(reps: Sequence[RunConfig], tables: Sequence[_StaticTables]) -> tuple:
    """``(draws, views)``: the draws of a run, and each link group's ``(draw, rows, step, count)`` per read.

    A group reads the shadowing (the common link's, then its cells'), the
    fading pairs, the LOS latent and the L1 noise; a read it does not make
    is ``None``. The sharing rule is stated in ``run_batch``.
    """
    reads = []
    for rep, t in zip(reps, tables):
        cells, n, stride = tuple(range(t.tick_rx_nlos_dbm.shape[0])), t.n_snapshots, t.tick_stride
        noisy = rep.l1.noise_sigma_db > 0.0
        reads.append((
            _Draw(_STREAM_SHADOW, (_COMMON_LINK, *cells), n, t.shadow_segments, False, stride),
            _Draw(_STREAM_FADING, cells, n, None, True, stride),
            _Draw(_STREAM_LOS, cells, t.los_segments[-1][1], t.los_segments, False, stride) if t.los_ticks else None,
            _Draw(_STREAM_MEASUREMENT, cells, t.tick_snapshots.size, None, False, 1) if noisy else None,
        ))
    draws: list[_Draw] = []
    slot: dict[_Draw, int] = {}
    for r in sorted(dict.fromkeys(r for group in reads for r in group if r), key=lambda r: -r.n):
        k = next((k for k, d in enumerate(draws) if d.purpose == r.purpose
                  and _clip_segments(d.segments, r.n) == r.segments), len(draws))
        if k == len(draws):
            draws.append(r)
        d = draws[k]
        draws[k] = replace(d, cells=max(d.cells, r.cells, key=len), keep=math.gcd(d.keep, r.keep))
        slot[r] = k
    views = [
        [r and (slot[r], len(r.cells), r.keep // draws[slot[r]].keep, -(-r.n // r.keep)) for r in group]
        for group in reads
    ]
    return tuple(draws), views


def _stream_keys(plan: tuple) -> list[tuple[int, int]]:
    """The ``(cell, purpose)`` of every stream a run draws under ``plan`` (``_draw_plan``), in draw order."""
    return [(cell, d.purpose) for d in plan[0] for cell in d.cells]


def _views(states: np.ndarray, plan: tuple) -> list[list]:
    """One run's draws under ``plan`` (``_draw_plan``), as each link group's four reads of them.

    ``states`` are the run's rows of ``_stream_states`` for ``_stream_keys(plan)``.
    """
    draws, views = plan
    ends = np.cumsum([len(d.cells) for d in draws]).tolist()
    kept = [_draw(states[end - len(d.cells) : end], d) for d, end in zip(draws, ends)]
    return [[v and kept[v[0]][: v[1], : v[2] * v[3] : v[2]] for v in group] for group in views]


def _handover(
    cfg: RunConfig, handover: HandoverConfig, tables: _StaticTables, run_index: int, link: tuple
) -> tuple[list[HandoverRecord], HandoverFsm]:
    """The handover part of a run: one state machine over the link, its records and the machine."""
    _, l3, ul_snr, dl_snr, margins, strongest = link
    n_cells, period = l3.shape[0], cfg.l1.sample_period_s
    fsm = HandoverFsm(handover, period, n_cells, serving_cell=tables.initial_serving, run_id=run_index)
    records = fsm.run(l3, ul_snr, dl_snr, margins, strongest)
    placed = [rec for rec in records if rec.command_tick is not None]
    for rec, x in zip(placed, tables.tick_positions[[rec.command_tick for rec in placed]].tolist()):
        rec.start_position_m = x
    if not records:
        records.append(HandoverRecord(run_index, fsm.serving_cell, None, Outcome.NOT_TRIGGERED))
    return records, fsm


def _run_trace(
    cfg: RunConfig, tables: _StaticTables, link: tuple, records: Sequence[HandoverRecord], fsm: HandoverFsm
) -> RunTrace:
    """The per-tick trace of a run, from its link part and its handover part's records and machine."""
    pr_dl, _, _, dl_snr, *_ = link
    serving, interrupted = fsm.tick_trace(records)
    # serving cell -1 only while re-establishing, where the link is down and the throughput 0
    eff_db_serving = dl_snr[serving, np.arange(serving.size)]
    throughput = np.where(interrupted, 0.0, ici.throughput_bps(eff_db_serving, cfg.budget.bandwidth_hz))
    return RunTrace(
        tick_snapshots=tables.tick_snapshots,
        positions_m=tables.tick_positions,
        p_ici=ici.ici_power(cfg.kinematics.speed_mps, cfg.ici),
        snr_db=10.0 * np.log10(pr_dl),
        effective_snr_db=dl_snr,
        serving_cell=serving,
        interrupted=interrupted,
        throughput_bps=throughput,
    )


def simulate_run(cfg: RunConfig, run_index: int, *, want_trace: bool = False) -> RunResult:
    """Simulate one seeded run; deterministic given (config, master_seed, run_index).

    The run is a batch of one: it draws its own streams through ``_views``,
    as ``run_batch`` does, runs the link part (``_link``) and drives
    ``cfg.handover`` over it once (``_handover``); with ``want_trace``,
    ``_run_trace`` builds its trace. The runs of ``monte_carlo`` do not come
    here: ``run_batch`` calls the link and handover parts.
    """
    tables = precompute_tables(cfg)
    plan = _draw_plan([cfg], [tables])
    (states,) = _stream_states(cfg.master_seed, [run_index], _stream_keys(plan))
    (views,) = _views(states, plan)
    link = _link(cfg, tables, run_index, views)
    records, fsm = _handover(cfg, cfg.handover, tables, run_index, link)
    trace = _run_trace(cfg, tables, link, records, fsm) if want_trace else None
    return RunResult(tuple(records), trace)


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


def run_batch(cfgs: Sequence[RunConfig], workers: int | None = None) -> dict[RunConfig, SweepStatistics]:
    """The statistics of ``cfgs``, run as one batch, by config (equal configs are one key).

    The configs need one ``master_seed`` and one ``runs``, and ``workers``
    must be None or at least 1; otherwise this is a ``ValueError``, raised
    before any table is built.

    This is where the configs of a sweep share work, and the sharing is
    exact: every record is the one the config would get alone.

    * The configs that differ only in ``handover`` form a link group, which
      shares one set of tables and, per run, one link part (``_link``: the
      LOS latent, the L1/L3 measurements, the A3 margins and the strongest
      cells), which drives one state machine per distinct ``handover``
      (``_handover``). Only the state machine reads ``handover``. The runs
      call these directly, not ``simulate_run``.
    * Every random stream is keyed by (master_seed, run_index, cell, purpose)
      and indexed by sample (snapshot, or tick for the L1 noise), not by
      speed or LOS profile. One rule shares the draws: a group's four reads
      (the shadowing of the common link and of its cells, the fading pairs,
      the LOS latent and the L1 noise), longest first, each join a draw of
      their purpose whose recursion segments, clipped to the read's length
      (``_clip_segments``), are the read's own (``None`` matches ``None``).
      A draw takes the most cells any of its readers needs and is kept at
      the gcd of their strides, and each group reads its leading rows and
      ticks. A shorter draw is a prefix of a longer one bit for bit, because
      ``standard_normal`` fills its output in stream order, and scaling and
      the first-order ``lfilter`` of the recursion run sample by sample; a
      segment clipped to one sample is ``rho * prev + scale * eps``, the
      first ``lfilter`` output.
      ``_draw_plan`` applies the rule once per batch. With the default
      profiles, a sweep's speeds and environments share one draw per
      purpose.

    Each run goes through every link group, so all their table sets are
    alive while the runs go. The runs' link parts and state machines run on
    the calling thread, in run order. Their draws (``_views``) run on
    ``min(workers, CPUs, runs)`` threads, where CPUs are those the process
    may run on and ``workers`` None, the default, is all of them. The
    threads draw at most ``workers + 1`` runs ahead of the run taken, so
    that few runs' draws are alive at once; one thread opens no pool and
    draws each run as it is taken. Runs keep only their records, never the
    link arrays. One ``_stream_states`` pass seeds every stream of
    ``_STREAM_BLOCK`` runs, so the hash's arrays do not grow with ``runs``.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"a batch needs at least one worker, got {workers}")
    if len({(c.master_seed, c.runs) for c in cfgs}) != 1:
        raise ValueError("the configs of a batch need one master_seed and one runs")
    # link groups, keyed by their config with a one-tick TTT, a handover no link part reads; each
    # maps its handovers to their configs, one state machine each (equal configs drive one)
    groups: dict[RunConfig, dict[HandoverConfig, RunConfig]] = {}
    for c in cfgs:
        groups.setdefault(replace(c, handover=HandoverConfig(ttt_s=c.l1.sample_period_s)), {})[c.handover] = c
    tables = [precompute_tables(rep) for rep in groups]
    plan = _draw_plan(list(groups), tables)
    keys = _stream_keys(plan)
    seed, n_runs = cfgs[0].master_seed, cfgs[0].runs
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus if workers is None else workers, cpus, n_runs)
    states = (s for lo in range(0, n_runs, _STREAM_BLOCK)
              for s in _stream_states(seed, range(lo, min(lo + _STREAM_BLOCK, n_runs)), keys))

    def drawn(pool: ThreadPoolExecutor | None):
        """Each run's views in run order, drawn on ``pool`` up to ``workers + 1`` runs ahead of the one taken."""
        if pool is None:
            yield from (_views(s, plan) for s in states)
            return
        ahead = deque(pool.submit(_views, s, plan) for s in islice(states, workers + 1))
        while ahead:
            taken = ahead.popleft()
            ahead.extend(pool.submit(_views, s, plan) for s in islice(states, 1))
            yield taken.result()

    records = {c: [] for machines in groups.values() for c in machines.values()}  # by config, in run order
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for run_index, views in enumerate(drawn(pool)):
            for (rep, machines), t, v in zip(groups.items(), tables, views):
                link = _link(rep, t, run_index, v)
                for ho, c in machines.items():
                    records[c] += _handover(rep, ho, t, run_index, link)[0]
    return {c: aggregate_records(recs, c) for c, recs in records.items()}


def monte_carlo(cfg: RunConfig, *, workers: int | None = None,
                grid: Mapping[RunConfig, SweepStatistics] | None = None) -> SweepStatistics:
    """Run ``cfg.runs`` independent seeded runs and aggregate their records.

    With a grid, the statistics that ``run_batch`` gave a sweep's configs,
    this is ``grid[cfg]`` and ``workers`` is not read; a config outside the
    grid is a ``KeyError``. Without a grid, ``cfg`` is a batch of one whose
    runs draw and hold only their own streams at its tick stride, on
    ``workers`` threads (by default every usable CPU) that draw ahead of the
    calling thread, which runs each run's link part and state machine
    (``run_batch``).

    Aggregation is ordered by run index, so the result is identical for any
    worker count.
    """
    return run_batch([cfg], workers)[cfg] if grid is None else grid[cfg]
