"""Layer-1 and Layer-3 measurement filtering.

Layer 1 samples the per-snapshot linear SINR stream every measurement
period, averages a sliding window in the linear domain, converts to dB and
adds truncated Gaussian measurement noise. Layer 3 smooths the Layer-1
series with the standard recursive filter F[n] = (1-a) F[n-1] + a M[n].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter


@dataclass(frozen=True)
class L1Config:
    sample_period_s: float = 0.040
    window_s: float = 0.200
    noise_sigma_db: float = 1.0
    noise_cutoff_sigmas: float = 3.0

    def __post_init__(self) -> None:
        if self.sample_period_s <= 0.0:
            raise ValueError("sample_period_s must be positive")
        ratio = self.window_s / self.sample_period_s
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError(
                f"window_s {self.window_s} is not a positive multiple of "
                f"sample_period_s {self.sample_period_s}"
            )
        if self.noise_sigma_db < 0.0:
            raise ValueError("noise_sigma_db must be non-negative")
        if self.noise_cutoff_sigmas <= 0.0:
            raise ValueError("noise_cutoff_sigmas must be positive")

    @property
    def window_samples(self) -> int:
        return round(self.window_s / self.sample_period_s)


@dataclass(frozen=True)
class L3Config:
    filter_coefficient_a: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.filter_coefficient_a <= 1.0:
            raise ValueError("filter_coefficient_a must be in (0, 1]")


def l1_filter(
    raw_linear: np.ndarray,
    cfg: L1Config,
    stride: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Layer-1 series in dB from a per-snapshot linear SINR stream.

    Takes every ``stride``-th snapshot, averages the last ``window_samples``
    taken values in the linear domain (the window shrinks at the stream
    start), converts to dB, then adds N(0, sigma^2) noise clipped to
    +/- cutoff * sigma.
    """
    raw = np.asarray(raw_linear, dtype=float)
    if raw.size == 0:
        raise ValueError("raw stream is empty")
    if np.any(raw <= 0.0):
        raise ValueError("raw stream values must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    sampled = raw[::stride]
    n = sampled.size
    w = cfg.window_samples
    csum = np.concatenate(([0.0], np.cumsum(sampled)))
    ends = np.arange(1, n + 1)
    starts = np.maximum(0, ends - w)
    means = (csum[ends] - csum[starts]) / (ends - starts)
    out = 10.0 * np.log10(means)
    if cfg.noise_sigma_db > 0.0:
        if rng is None:
            raise ValueError("rng required when noise_sigma_db > 0")
        bound = cfg.noise_cutoff_sigmas * cfg.noise_sigma_db
        noise = np.clip(rng.standard_normal(n) * cfg.noise_sigma_db, -bound, bound)
        out = out + noise
    return out


def l3_filter(l1_db: np.ndarray, cfg: L3Config) -> np.ndarray:
    """Layer-3 series F[0] = M[0], F[n] = (1-a) F[n-1] + a M[n], in dB."""
    m = np.asarray(l1_db, dtype=float)
    if m.size == 0:
        raise ValueError("l1 series is empty")
    a = cfg.filter_coefficient_a
    if a == 1.0:
        return m.copy()
    out, _ = lfilter([a], [1.0, -(1.0 - a)], m, zi=np.array([(1.0 - a) * m[0]]))
    return out


def measure_cell(
    raw_linear: np.ndarray,
    l1_cfg: L1Config,
    l3_cfg: L3Config,
    stride: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Layer-3 series in dB of one cell: the full L1 + L3 pipeline."""
    return l3_filter(l1_filter(raw_linear, l1_cfg, stride, rng), l3_cfg)
