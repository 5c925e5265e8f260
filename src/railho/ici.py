"""Doppler spread, intercarrier-interference power bounds, and the
ICI-degraded effective SINR of an OFDM link.

With the noise power normalised to one, a link with mean received power
``pr`` (linear) and ICI power ``p_ici`` has effective SINR

    10 * log10(pr / (pr * p_ici + 1))  [dB]

which reduces to the plain SNR when ``p_ici = 0`` and saturates at
``-10 * log10(p_ici)`` for strong links. The ICI power itself is bounded by
a truncated Taylor expansion in ``2 * pi * fd * Ts``; the simulation uses
the upper bound as the worst case (``ici_power``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_MPS = 3.0e8  # matches the precision of every other model parameter


@dataclass(frozen=True)
class IciParams:
    """Coefficient of the classic ICI power bound plus the OFDM symbol timing."""

    alpha1: float = 0.5
    symbol_duration_s: float = 1e-3
    carrier_frequency_hz: float = 3.5e9

    def __post_init__(self) -> None:
        # alpha1 = 0 is permitted so a config can switch ICI off entirely.
        if self.alpha1 < 0.0:
            raise ValueError("alpha1 must be non-negative")
        if self.symbol_duration_s <= 0.0:
            raise ValueError("symbol_duration_s must be positive")
        if self.carrier_frequency_hz <= 0.0:
            raise ValueError("carrier_frequency_hz must be positive")


def doppler_spread_hz(speed_mps: float, carrier_frequency_hz: float) -> float:
    """Maximum Doppler shift v * fc / c."""
    if speed_mps < 0.0:
        raise ValueError("speed must be non-negative")
    return speed_mps * carrier_frequency_hz / SPEED_OF_LIGHT_MPS


def _phase(doppler_hz: float, params: IciParams) -> float:
    if doppler_hz < 0.0:
        raise ValueError("doppler spread must be non-negative")
    return 2.0 * math.pi * doppler_hz * params.symbol_duration_s


def ici_power_upper(doppler_hz: float, params: IciParams = IciParams()) -> float:
    """Upper bound (alpha1 / 12) * (2 pi fd Ts)^2 on the ICI power."""
    x = _phase(doppler_hz, params)
    return params.alpha1 / 12.0 * x * x


def ici_power_lower(doppler_hz: float, params: IciParams = IciParams()) -> float:
    """Lower bound: the upper bound minus (0.375 / 360) * (2 pi fd Ts)^4, floored at 0."""
    x = _phase(doppler_hz, params)
    return max(0.0, params.alpha1 / 12.0 * x * x - 0.375 / 360.0 * x**4)


def ici_power(speed_mps: float, params: IciParams) -> float:
    """The ICI power that degrades a link at ``speed_mps``, for the runs and their range warning: the upper bound."""
    return ici_power_upper(doppler_spread_hz(speed_mps, params.carrier_frequency_hz), params)


def effective_sinr_linear(pr_linear, p_ici, out=None):
    """Linear effective SINR ``pr / (pr * p_ici + 1)``, noise normalised, unchecked; ``out`` may be ``pr_linear``."""
    return np.divide(pr_linear, pr_linear * p_ici + 1.0, out=out)


def rss_with_ici(pr_linear, p_ici):
    """Effective SINR in dB of a link with normalised noise and ICI power ``p_ici``.

    Accepts scalars or numpy arrays; both arguments must be non-negative and
    ``pr_linear`` strictly positive.
    """
    pr = np.asarray(pr_linear, dtype=float)
    p = np.asarray(p_ici, dtype=float)
    if not (pr > 0.0).all():  # NaN fails it
        raise ValueError("pr_linear must be strictly positive")
    if not (p >= 0.0).all():
        raise ValueError("p_ici must be non-negative")
    out = 10.0 * np.log10(effective_sinr_linear(pr, p))
    return float(out) if out.ndim == 0 else out


def snr_linear_from_dbm(rx_dbm, noise_dbm: float, out=None):
    """Received power (scalar or array) normalised to the noise floor, as a linear ratio; ``out`` may be ``rx_dbm``."""
    return np.power(10.0, np.divide(np.subtract(rx_dbm, noise_dbm, out=out), 10.0, out=out), out=out)


def throughput_bps(effective_snr_db, bandwidth_hz: float):
    """Shannon-capacity throughput proxy B * log2(1 + snr)."""
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth must be positive")
    snr = 10.0 ** (np.asarray(effective_snr_db, dtype=float) / 10.0)
    out = bandwidth_hz * np.log2(1.0 + snr)
    return float(out) if out.ndim == 0 else out

