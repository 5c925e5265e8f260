"""Doppler spread, intercarrier-interference power bounds, and the
ICI-degraded effective SINR of an OFDM link.

With the noise power normalised to one, a link with mean received power
``pr`` (linear) and ICI power ``p_ici`` has effective SINR

    10 * log10(pr / (pr * p_ici + 1))  [dB]

which reduces to the plain SNR when ``p_ici = 0`` and saturates at
``-10 * log10(p_ici)`` for strong links. The ICI power itself is bounded by
a truncated Taylor expansion in ``2 * pi * fd * Ts``; the simulation uses
the upper bound as the worst case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT_MPS


@dataclass(frozen=True)
class IciParams:
    """Coefficients of the classic ICI power bound plus the OFDM symbol timing."""

    alpha1: float = 0.5
    alpha2: float = 0.375
    symbol_duration_s: float = 1e-3
    carrier_frequency_hz: float = 3.5e9

    def __post_init__(self) -> None:
        # alpha = 0 is permitted so a config can switch ICI off entirely.
        if self.alpha1 < 0.0 or self.alpha2 < 0.0:
            raise ValueError("alpha coefficients must be non-negative")
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
    """Lower bound: the upper bound minus (alpha2 / 360) * (2 pi fd Ts)^4, floored at 0."""
    x = _phase(doppler_hz, params)
    return max(0.0, params.alpha1 / 12.0 * x * x - params.alpha2 / 360.0 * x**4)


def rss_with_ici(pr_linear, p_ici):
    """Effective SINR in dB of a link with normalised noise and ICI power ``p_ici``.

    Accepts scalars or numpy arrays; both arguments must be non-negative and
    ``pr_linear`` strictly positive.
    """
    pr = np.asarray(pr_linear, dtype=float)
    p = np.asarray(p_ici, dtype=float)
    if np.any(pr <= 0.0):
        raise ValueError("pr_linear must be strictly positive")
    if np.any(p < 0.0):
        raise ValueError("p_ici must be non-negative")
    out = 10.0 * np.log10(pr / (pr * p + 1.0))
    return float(out) if out.ndim == 0 else out


def snr_linear_from_dbm(rx_dbm, noise_dbm: float):
    """Received power (scalar or array) normalised to the noise floor, as a linear ratio."""
    return 10.0 ** ((rx_dbm - noise_dbm) / 10.0)


def throughput_bps(effective_snr_db, bandwidth_hz: float):
    """Shannon-capacity throughput proxy B * log2(1 + snr)."""
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth must be positive")
    snr = 10.0 ** (np.asarray(effective_snr_db, dtype=float) / 10.0)
    out = bandwidth_hz * np.log2(1.0 + snr)
    return float(out) if out.ndim == 0 else out

