"""Propagation model for the trackside downlink and uplink.

Received power is assembled in the dB domain:

    rx = tx + antenna_gain - path_loss - penetration_loss + shadowing + 10*log10(|h|^2)

with log-distance path loss, a parabolic along-track antenna main lobe
mirrored for the bidirectional beam, spatially correlated lognormal
shadowing, and unit-mean Rician or Rayleigh fast fading depending on the
line-of-sight state of the link. Uplink and downlink share all propagation
terms (reciprocity) and differ only in transmit power.

The deterministic terms (antenna gain, path loss, LOS probability) accept
scalars or numpy arrays. The random terms are drawn per link along the
snapshot grid by ``shadowing_series_db`` (over the segments that
``shadowing_segments`` splits once per config) and ``small_scale_series``
(which takes the K-factor terms that ``rician_coefficients`` derives);
``shadowing_db`` is the one-step scalar form of the shadowing recursion and
serves as its reference. Shadowing mixes a UE-local component common to all
sites with a per-link component (``shadow_site_correlation``; the per-link
marginal stays N(0, sigma^2)), and the LOS state of mixed environments
persists along the track through a correlated latent process while keeping
the distance-dependent LOS probability exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np
from scipy.signal import lfilter

from .geometry import DeploymentLayout, Environment

LosMode = Literal["always", "never", "range"]

THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class EnvironmentProfile:
    """Per-environment propagation parameters.

    ``pathloss_exponent_los`` replaces the base exponent for draws that turn
    out line-of-sight; ``rician_k_db`` is the Rician K factor applied to LOS
    links (None means Rayleigh even under LOS). Non-LOS links always fade
    Rayleigh.
    """

    pathloss_exponent: float
    pathloss_intercept_db: float
    pathloss_exponent_los: float | None = None
    rician_k_db: float | None = None
    los_mode: LosMode = "never"
    los_decay_m: float = 200.0
    los_decorrelation_m: float = 50.0
    shadow_sigma_db: float = 6.0
    shadow_decorrelation_m: float = 50.0
    shadow_site_correlation: float = 0.5

    def __post_init__(self) -> None:
        if self.pathloss_exponent <= 0.0:
            raise ValueError("pathloss_exponent must be positive")
        if self.shadow_sigma_db < 0.0:
            raise ValueError("shadow_sigma_db must be non-negative")
        if self.shadow_decorrelation_m <= 0.0:
            raise ValueError("shadow_decorrelation_m must be positive")
        if self.los_decay_m <= 0.0 or self.los_decorrelation_m <= 0.0:
            raise ValueError("LOS length scales must be positive")
        if not 0.0 <= self.shadow_site_correlation <= 1.0:
            raise ValueError("shadow_site_correlation must be in [0, 1]")
        if self.los_mode not in ("always", "never", "range"):
            raise ValueError(f"unknown los_mode {self.los_mode!r}")

    def los_probability(self, distance_m):
        """Probability that a link of the given length (scalar or array) is line-of-sight."""
        d = np.asarray(distance_m, dtype=float)
        if self.los_mode == "range":
            return np.exp(-d / self.los_decay_m)
        return np.full(d.shape, 1.0 if self.los_mode == "always" else 0.0)[()]

    def rician_k_linear(self) -> float:
        if self.rician_k_db is None:
            return 0.0
        return 10.0 ** (self.rician_k_db / 10.0)


def default_profiles() -> dict[Environment, EnvironmentProfile]:
    """Default propagation parameters for the three environments.

    Intercepts are calibrated so the nominal mid-span downlink SNR with the
    default deployment and link budget is roughly 12 / 8 / 4 dB for
    viaduct / cutting / urban, keeping every environment above the handover
    SNR gates while preserving the viaduct > cutting > urban ordering.
    """
    return {
        Environment.VIADUCT: EnvironmentProfile(
            pathloss_exponent=2.2,
            pathloss_intercept_db=33.7,
            rician_k_db=10.0,
            los_mode="always",
        ),
        Environment.CUTTING: EnvironmentProfile(
            pathloss_exponent=2.8,
            pathloss_intercept_db=20.1,
            pathloss_exponent_los=2.3,
            rician_k_db=5.0,
            los_mode="range",
            los_decay_m=200.0,
        ),
        Environment.URBAN: EnvironmentProfile(
            pathloss_exponent=3.5,
            pathloss_intercept_db=3.5,
            rician_k_db=None,
            los_mode="never",
        ),
    }


@dataclass(frozen=True)
class LinkBudget:
    """Transmit powers, fixed losses and the receiver noise floor."""

    rrh_tx_power_dbm: float = 30.0
    ue_tx_power_dbm: float = 23.0
    penetration_loss_db: float = 20.0
    bandwidth_hz: float = 100e6
    noise_figure_db: float = 7.0

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth_hz must be positive")
        if self.penetration_loss_db < 0.0:
            raise ValueError("penetration_loss_db must be non-negative")
        try:
            in_range = self.ul_shift() > 0.0
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError("ue_tx_power_dbm - rrh_tx_power_dbm leaves the float range of a power ratio")

    def noise_dbm(self) -> float:
        return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db

    def ul_shift(self) -> float:
        """The UE's transmit power over the RRH's, linear: the uplink over the downlink received power."""
        return 10.0 ** ((self.ue_tx_power_dbm - self.rrh_tx_power_dbm) / 10.0)


@dataclass
class FadingState:
    """Single-owner shadowing process state of one link."""

    rng: np.random.Generator
    last_position_m: float | None = None
    last_value_db: float | None = None


def path_loss_db(profile: EnvironmentProfile, distance_m, *, los: bool = False):
    """Log-distance path loss intercept + 10 n log10(d), for a scalar or array distance.

    The model is undefined below the 1 m reference distance. Passing
    ``los=True`` selects the profile's LOS exponent when it defines one.
    """
    if np.any(np.asarray(distance_m) < 1.0):
        raise ValueError(f"distance {np.min(distance_m)} m below the 1 m model reference")
    exponent = profile.pathloss_exponent
    if los and profile.pathloss_exponent_los is not None:
        exponent = profile.pathloss_exponent_los
    return profile.pathloss_intercept_db + 10.0 * exponent * np.log10(distance_m)


def antenna_gain_db(layout: DeploymentLayout, bearing_rad):
    """Parabolic main lobe with a side floor, mirrored for the backward beam.

    Accepts a scalar or array bearing.
    """
    b = np.clip(bearing_rad, 0.0, math.pi)
    theta = np.minimum(b, math.pi - b)
    floor = layout.pattern_floor_db
    # The lobe meets the floor at theta / beam = sqrt(floor / 12). Capping the ratio a hair above
    # that leaves every value as it was and keeps the square finite for a narrow beam.
    cap = (1.0 + 1e-9) * math.sqrt(max(floor, np.finfo(float).tiny) / 12.0)
    lobe = 12.0 * np.minimum(theta / math.radians(layout.beamwidth_3db_deg), cap) ** 2
    return layout.max_gain_db - np.minimum(lobe, floor)


def shadowing_db(state: FadingState, profile: EnvironmentProfile, position_m: float) -> float:
    """Advance the correlated lognormal shadowing process to ``position_m``.

    First call draws fresh N(0, sigma^2); afterwards the process mixes the
    previous value with Gauss-Markov weight rho = exp(-dx / decorrelation).
    Positions must be non-decreasing per link.
    """
    eps = state.rng.standard_normal()
    sigma = profile.shadow_sigma_db
    if state.last_position_m is None:
        value = sigma * eps
    else:
        dx = position_m - state.last_position_m
        if dx < 0.0:
            raise ValueError("shadowing positions must be non-decreasing")
        rho = math.exp(-dx / profile.shadow_decorrelation_m)
        value = rho * state.last_value_db + math.sqrt(1.0 - rho * rho) * sigma * eps
    state.last_position_m = position_m
    state.last_value_db = value
    return value


#: One recursion segment: (start, stop, rho, sqrt(1 - rho^2) * sigma).
RecursionSegment = tuple[int, int, float, float]


def shadowing_segments(
    step_m: float, runs: Iterable[tuple[int, int, float, float]], n: int
) -> tuple[RecursionSegment, ...]:
    """Split the first ``n`` points of an equally spaced grid into recursion segments.

    ``runs`` are consecutive ``(lo, hi, sigma_db, decorrelation_m)`` slices
    that tile the grid from 0. Sample 0 is a fresh N(0, sigma^2) draw, the
    segment ``(0, 1, 0.0, sigma)``. From sample 1 on, adjacent runs with
    equal parameters merge into one segment with the Gauss-Markov weight
    rho = exp(-step / decorrelation) of its parameters.
    """
    segments: list[RecursionSegment] = []
    last = None
    for lo, hi, sigma, decorr in runs:
        if lo == 0 < n:
            segments.append((0, 1, 0.0, sigma))
        lo, hi = max(lo, 1), min(hi, n)
        if lo >= hi:
            continue
        if (sigma, decorr) == last:
            segments[-1] = (segments[-1][0], hi, *segments[-1][2:])
        else:
            rho = math.exp(-step_m / decorr)
            segments.append((lo, hi, rho, math.sqrt(1.0 - rho * rho) * sigma))
            last = (sigma, decorr)
    return tuple(segments)


def shadowing_series_db(eps: np.ndarray, segments: Sequence[RecursionSegment]) -> np.ndarray:
    """Vectorised Gauss-Markov shadowing along an equally spaced position grid.

    ``segments`` come from ``shadowing_segments`` and tile ``eps``; each is
    filtered in one pass, carrying the state across segment boundaries.
    Matches a literal unrolling of ``shadowing_db``.
    """
    out = np.empty(len(eps))
    prev = 0.0
    for i, j, rho, scale in segments:
        if j - i == 1:
            prev = rho * prev + scale * float(eps[i])
            out[i] = prev
        else:
            # the numerator applies the scale: the same product scale * eps, without its copy
            seg, _ = lfilter([scale], [1.0, -rho], eps[i:j], zi=[rho * prev])
            out[i:j] = seg
            prev = float(seg[-1])
    return out


def rician_coefficients(k_linear):
    """In-phase mean and per-component scale of unit-mean fading with Rician K factors.

    A draw is |h|^2 = (mean + scale * n_re)^2 + (scale * n_im)^2 for standard
    normals n_re, n_im. K = 0 is Rayleigh; an infinite K is a pure LOS ray
    (mean 1, scale 0), so its |h|^2 is exactly 1. Accepts a scalar or array K.
    """
    k = np.asarray(k_linear, dtype=float)
    finite = np.isfinite(k)
    kf = np.where(finite, k, 0.0)
    mean = np.where(finite, np.sqrt(kf / (kf + 1.0)), 1.0)
    scale = np.where(finite, np.sqrt(1.0 / (2.0 * (kf + 1.0))), 0.0)
    return mean, scale


def small_scale_series(normals: np.ndarray, mean, scale) -> np.ndarray:
    """Vectorised |h|^2 draws from ``(..., 2)`` standard normals.

    ``mean`` and ``scale`` come from ``rician_coefficients`` and broadcast
    against ``normals.shape[:-1]``.
    """
    normals = np.asarray(normals, dtype=float)
    re = normals[..., 0] * scale
    re += mean
    re *= re
    im = normals[..., 1] * scale
    im *= im
    re += im
    return re
