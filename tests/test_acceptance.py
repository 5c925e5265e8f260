"""Acceptance suite.

Each test exercises one gate criterion end to end at its stated tolerance
and prints a PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
The Monte Carlo criteria use the default deployment, 500 runs per
configuration and the default master seed.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from railho.cli import main
from railho.config import RunConfig, apply_overrides
from railho.channel import FadingState, rician_coefficients, shadowing_db, small_scale_series, default_profiles
from railho.geometry import Environment
from railho.handover import (
    HandoverConfig,
    HandoverFsm,
    Outcome,
    Postponement,
    classify_postponement,
)
from railho.ici import IciParams, ici_power_lower, ici_power_upper
from railho.measurement import L1Config, L3Config, l1_filter, l3_filter
from railho.simulate import monte_carlo, simulate_run

ENVS = ("viaduct", "cutting", "urban")
RUNS = 500
SAMPLE_PERIOD = 0.040


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_delay_reproduction():
    """Total handover delay is exactly 3 samples (120 ms) at every speed."""
    start = time.monotonic()
    delays_ok = True
    details = []
    for speed in (100.0, 300.0, 500.0):
        cfg = apply_overrides(RunConfig(), speed_kmh=speed, runs=RUNS)
        stats = monte_carlo(cfg)
        successes = [r for r in stats.records if r.outcome is Outcome.SUCCESS]
        assert successes, f"no successful handover at {speed} km/h"
        ticks_ok = all(r.completion_tick - r.report_tick == 3 for r in successes)
        secs_ok = all(abs(r.total_delay_s - 0.120) < 1e-12 for r in successes)
        delays_ok &= ticks_ok and secs_ok and stats.delay_in_samples == 3
        details.append(f"{speed:g} km/h: {len(successes)} successes, delay 3 samples")
    elapsed = time.monotonic() - start
    runtime_ok = elapsed < 60.0
    _report(
        "criterion 1 delay reproduction",
        delays_ok and runtime_ok,
        "; ".join(details) + f"; elapsed {elapsed:.1f} s (< 60 s)",
    )


def test_criterion_2_offset_monotonicity():
    """Weighted starting point is non-decreasing in the hysteresis offset."""
    ok = True
    details = []
    for env in ENVS:
        points = []
        for h0 in (0.0, 2.0, 4.0, 6.0):
            cfg = apply_overrides(
                RunConfig(), speed_kmh=300.0, environment=env, offset_db=h0, runs=RUNS
            )
            points.append(monte_carlo(cfg).weighted_start_point_m)
        env_ok = all(a <= b for a, b in zip(points, points[1:]))
        ok &= env_ok
        details.append(f"{env}: " + " <= ".join(f"{p:.0f}" for p in points))
    _report("criterion 2 offset monotonicity", ok, "; ".join(details))


def test_criterion_3_speed_postponement():
    """Starting point at 500 km/h is no earlier than at 100 km/h minus one snapshot."""
    ok = True
    details = []
    snapshot = RunConfig().kinematics.snapshot_interval_m
    for env in ENVS:
        points = {}
        for speed in (100.0, 500.0):
            cfg = apply_overrides(RunConfig(), speed_kmh=speed, environment=env, runs=RUNS)
            points[speed] = monte_carlo(cfg).weighted_start_point_m
        env_ok = points[500.0] >= points[100.0] - snapshot
        ok &= env_ok
        details.append(f"{env}: 100km/h {points[100.0]:.0f} m, 500km/h {points[500.0]:.0f} m")
    _report("criterion 3 speed postponement", ok, "; ".join(details))


def test_criterion_4_ici_degradation():
    """ICI only ever degrades the effective SINR, with the exact gap at pr=10."""
    trace_ok = True
    for run in range(3):
        trace = simulate_run(RunConfig(), run, want_trace=True).trace
        trace_ok &= bool(np.all(trace.effective_snr_db <= trace.snr_db + 1e-12))

    # independent arithmetic for the 500 km/h worst-case ICI gap at pr = 10
    fd = (500.0 / 3.6) * 3.5e9 / 3.0e8
    p = (0.5 / 12.0) * (2.0 * math.pi * fd * 1e-3) ** 2
    expected_gap = 10.0 * math.log10(10.0 / (10.0 * p + 1.0)) - 10.0

    from railho.ici import doppler_spread_hz, rss_with_ici

    cfg = apply_overrides(RunConfig(), speed_kmh=500.0)
    p_sim = ici_power_upper(
        doppler_spread_hz(cfg.kinematics.speed_mps, cfg.ici.carrier_frequency_hz), cfg.ici
    )
    gap = rss_with_ici(10.0, p_sim) - 10.0 * math.log10(10.0)
    gap_ok = abs(gap - expected_gap) < 1e-6
    _report(
        "criterion 4 ici degradation",
        trace_ok and gap_ok,
        f"eff <= raw on 3 traces; gap {gap:.6f} dB vs {expected_gap:.6f} dB",
    )


def test_criterion_5_ici_bound_ordering():
    """Lower ICI bound never exceeds the upper bound on a dense Doppler grid."""
    params = IciParams()
    grid = np.linspace(0.0, 2000.0, 10_000)
    violations = sum(
        1 for fd in grid if ici_power_lower(float(fd), params) > ici_power_upper(float(fd), params)
    )
    _report(
        "criterion 5 ici bound ordering",
        violations == 0,
        f"0 violations on {grid.size}-point grid",
    )


def test_criterion_6_postponement_classifier():
    """Classifier matches brute-force enumeration on a 20^3 rational grid."""

    def oracle(h_a, h_b, h0):
        if h_a < h_b < h0:
            return Postponement.NO_HANDOVER
        if h0 < h_a < h_b:
            return Postponement.HANDOVER_AT_B
        if h_a < h0 < h_b:
            return Postponement.POSTPONED
        if h0 == h_a:  # inclusive trigger at the report position
            return Postponement.HANDOVER_AT_B
        assert h0 == h_b
        return Postponement.POSTPONED

    grid = [Fraction(k, 4) for k in range(20)]
    checked = mismatches = 0
    for h_a, h_b, h0 in itertools.product(grid, repeat=3):
        if not h_a < h_b:
            continue
        checked += 1
        got = classify_postponement(float(h_a), float(h_b), float(h0))
        if got is not oracle(h_a, h_b, h0):
            mismatches += 1
    _report(
        "criterion 6 postponement classifier",
        mismatches == 0 and checked > 0,
        f"{checked} grid points, {mismatches} mismatches",
    )


def test_criterion_7_filter_oracles():
    """L1/L3 filters match direct reimplementations within 1e-12 dB."""
    rng = np.random.default_rng(2024)
    l1_cfg = L1Config(noise_sigma_db=0.0)
    worst = 0.0
    bounds_ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 80))
        stride = int(rng.integers(1, 6))
        a = float(rng.uniform(0.05, 1.0))
        raw = rng.lognormal(mean=1.0, sigma=1.5, size=n)

        got_l1 = l1_filter(raw, l1_cfg, stride)
        sampled = raw[::stride]
        ref_l1 = []
        for i in range(len(sampled)):
            chunk = sampled[max(0, i - 4) : i + 1]
            ref_l1.append(10.0 * math.log10(sum(chunk) / len(chunk)))
        worst = max(worst, float(np.max(np.abs(got_l1 - np.array(ref_l1)))))

        got_l3 = l3_filter(got_l1, L3Config(filter_coefficient_a=a))
        ref_l3 = [ref_l1[0]]
        for m in ref_l1[1:]:
            ref_l3.append((1.0 - a) * ref_l3[-1] + a * m)
        worst = max(worst, float(np.max(np.abs(got_l3 - np.array(ref_l3)))))

        running_min = np.minimum.accumulate(got_l1)
        running_max = np.maximum.accumulate(got_l1)
        bounds_ok &= bool(
            np.all(got_l3 >= running_min - 1e-12) and np.all(got_l3 <= running_max + 1e-12)
        )
    _report(
        "criterion 7 filter oracles",
        worst < 1e-12 and bounds_ok,
        f"1000 streams, worst deviation {worst:.2e} dB, L3 bounded by running extremes",
    )


def test_criterion_8_ttt_report_property():
    """Every report follows exactly ceil(TTT/40 ms) consecutive trigger ticks."""
    rng = np.random.default_rng(31337)
    violations = 0
    reports = 0
    for _ in range(10_000):
        n_cells = int(rng.integers(2, 4))
        n = int(rng.integers(3, 25))
        ttt_ticks = int(rng.integers(1, 4))
        h0 = float(rng.uniform(-3.0, 5.0))
        cfg = HandoverConfig(hysteresis_db=h0, ttt_s=ttt_ticks * SAMPLE_PERIOD)
        machine = HandoverFsm(cfg, SAMPLE_PERIOD, n_cells, 0)
        l3 = rng.normal(0.0, 5.0, size=(n, n_cells))
        high = [60.0] * n_cells
        cond = []
        for t in range(n):
            serving = machine.serving_cell
            if serving is None:
                cond.append(False)
            else:
                best = max(
                    (c for c in range(n_cells) if c != serving), key=lambda c: l3[t, c]
                )
                cond.append(bool(l3[t, best] - l3[t, serving] >= h0))
            machine.step(t, list(l3[t]), high, high)
        for name, tick in machine.events:
            if name in ("report", "report_blocked"):
                reports += 1
                if not all(cond[tick - k] for k in range(ttt_ticks)):
                    violations += 1
    _report(
        "criterion 8 ttt report property",
        violations == 0 and reports > 1000,
        f"{reports} reports across 10000 fuzzed traces, {violations} violations",
    )


def test_criterion_9_determinism_across_workers(tmp_path):
    """`sweep` output is byte-identical regardless of worker count."""
    import json

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"runs": 40, "seed": 7}))
    outs = []
    for workers in ("1", "4"):
        out = tmp_path / f"w{workers}"
        code = main(
            [
                "sweep",
                "--config", str(config),
                "--speeds", "300,500",
                "--offsets", "0,2",
                "--workers", workers,
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    identical = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("sweep_stats.csv", "sweep_records.csv", "sweep_hist.csv")
    )
    _report(
        "criterion 9 determinism",
        identical,
        "byte-identical sweep CSVs for 1 vs 4 workers",
    )


def test_criterion_10_channel_statistics():
    """Shadowing marginal std 6 +/- 0.1 dB; E[|h|^2] = 1 +/- 0.01 per environment."""
    profiles = default_profiles()
    viaduct = profiles[Environment.VIADUCT]
    state = FadingState(rng=np.random.default_rng(5))
    step = viaduct.shadow_decorrelation_m * 1e6  # fully decorrelated draws
    draws = np.array([shadowing_db(state, viaduct, i * step) for i in range(100_000)])
    shadow_std = float(np.std(draws))
    shadow_ok = abs(shadow_std - 6.0) < 0.1

    fading_ok = True
    details = [f"shadow std {shadow_std:.3f} dB"]
    rng = np.random.default_rng(6)
    n = 1_000_000
    for env, profile in profiles.items():
        distance = 500.0
        u = rng.random(n)
        los = u < profile.los_probability(distance)
        k = np.where(los, profile.rician_k_linear(), 0.0)
        h2 = small_scale_series(rng.standard_normal((n, 2)), *rician_coefficients(k))
        mean = float(np.mean(h2))
        fading_ok &= abs(mean - 1.0) < 0.01
        details.append(f"{env.value} E|h|^2 {mean:.4f}")
    _report("criterion 10 channel statistics", shadow_ok and fading_ok, "; ".join(details))
