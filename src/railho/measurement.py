"""Layer-1 and Layer-3 measurement filtering.

Layer 1 samples the per-snapshot linear SINR stream every measurement
period, averages a sliding window in the linear domain, converts to dB and
adds truncated Gaussian measurement noise. Layer 3 smooths the Layer-1
series with the standard recursive filter F[n] = (1-a) F[n-1] + a M[n].
Both filters work along the last axis, so one call filters every cell of a
run.
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


def l1_filter(raw_linear: np.ndarray, cfg: L1Config, stride: int, normals: np.ndarray | None = None) -> np.ndarray:
    """Layer-1 series in dB from per-snapshot linear SINR streams along the last axis.

    Takes every ``stride``-th snapshot, averages the last ``window_samples``
    taken values in the linear domain (the window shrinks at the stream
    start), converts to dB, then adds N(0, sigma^2) noise clipped to
    +/- cutoff * sigma. ``normals`` are the noise's standard normals, one per
    output value; they are not read when sigma is 0.
    """
    raw = np.asarray(raw_linear, dtype=float)
    if raw.size == 0:
        raise ValueError("raw stream is empty")
    if not (raw > 0.0).all():  # NaN fails it
        raise ValueError("raw stream values must be positive")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    sampled = raw[..., ::stride]
    n = sampled.shape[-1]
    w = min(cfg.window_samples, n)
    sums = np.cumsum(sampled, axis=-1)
    sums[..., w:] -= sums[..., : n - w]  # numpy buffers the overlap, so each window reads the plain sums
    sums /= np.minimum(np.arange(1, n + 1), w)
    out = np.log10(sums, out=sums)
    out *= 10.0
    if cfg.noise_sigma_db > 0.0:
        if normals is None:
            raise ValueError("normals required when noise_sigma_db > 0")
        if normals.shape != out.shape:
            raise ValueError(f"noise normals of shape {normals.shape} for a series of shape {out.shape}")
        bound = cfg.noise_cutoff_sigmas * cfg.noise_sigma_db
        noise = normals * cfg.noise_sigma_db
        out += np.clip(noise, -bound, bound, out=noise)
    return out


def l3_filter(l1_db: np.ndarray, cfg: L3Config) -> np.ndarray:
    """Layer-3 series F[0] = M[0], F[n] = (1-a) F[n-1] + a M[n], in dB, along the last axis."""
    m = np.asarray(l1_db, dtype=float)
    if m.size == 0:
        raise ValueError("l1 series is empty")
    a = cfg.filter_coefficient_a
    out, _ = lfilter([a], [1.0, -(1.0 - a)], m, axis=-1, zi=(1.0 - a) * m[..., :1])
    return out


def measure_cell(
    raw_linear: np.ndarray, l1_cfg: L1Config, l3_cfg: L3Config, normals: np.ndarray | None = None
) -> np.ndarray:
    """Layer-3 series in dB from tick-grid linear SINR streams along the last axis.

    ``raw_linear`` is one cell's stream or a ``(n_cells, n_ticks)`` stack;
    ``normals`` are as in ``l1_filter``, of the same shape.
    """
    return l3_filter(l1_filter(raw_linear, l1_cfg, 1, normals), l3_cfg)
