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
snapshot grid by ``shadowing_series_db`` and ``small_scale_series``;
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
from typing import Literal

import numpy as np
from scipy.signal import lfilter

from .constants import SPEED_OF_LIGHT_MPS
from .geometry import Environment, RrhSite

LosMode = Literal["always", "never", "range"]

THERMAL_NOISE_DBM_PER_HZ = -174.0


def free_space_intercept_db(carrier_frequency_hz: float, reference_m: float = 1.0) -> float:
    """Free-space path loss at the reference distance."""
    return 20.0 * math.log10(
        4.0 * math.pi * reference_m * carrier_frequency_hz / SPEED_OF_LIGHT_MPS
    )


@dataclass(frozen=True)
class EnvironmentProfile:
    """Per-environment propagation parameters.

    ``pathloss_exponent_los`` replaces the base exponent for draws that turn
    out line-of-sight; ``rician_k_db`` is the Rician K factor applied to LOS
    links (None means Rayleigh even under LOS). Non-LOS links always fade
    Rayleigh.
    """

    environment: Environment
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
        if math.isinf(self.rician_k_db):
            return math.inf
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
            environment=Environment.VIADUCT,
            pathloss_exponent=2.2,
            pathloss_intercept_db=33.7,
            rician_k_db=10.0,
            los_mode="always",
        ),
        Environment.CUTTING: EnvironmentProfile(
            environment=Environment.CUTTING,
            pathloss_exponent=2.8,
            pathloss_intercept_db=20.1,
            pathloss_exponent_los=2.3,
            rician_k_db=5.0,
            los_mode="range",
            los_decay_m=200.0,
        ),
        Environment.URBAN: EnvironmentProfile(
            environment=Environment.URBAN,
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
    noise_power_dbm: float | None = None  # derived from bandwidth + noise figure when None

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0.0:
            raise ValueError("bandwidth_hz must be positive")
        if self.penetration_loss_db < 0.0:
            raise ValueError("penetration_loss_db must be non-negative")

    def noise_dbm(self) -> float:
        if self.noise_power_dbm is not None:
            return self.noise_power_dbm
        return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db


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


def antenna_gain_db(site: RrhSite, bearing_rad):
    """Parabolic main lobe with a side floor, mirrored for the backward beam.

    Accepts a scalar or array bearing.
    """
    b = np.clip(bearing_rad, 0.0, math.pi)
    theta = np.minimum(b, math.pi - b)
    attenuation = np.minimum(
        12.0 * (theta / site.beamwidth_3db_rad) ** 2,
        site.pattern_floor_db,
    )
    return site.max_gain_db - attenuation


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


def shadowing_series_db(
    eps: np.ndarray,
    step_m: float,
    sigma_db: np.ndarray,
    decorrelation_m: np.ndarray,
) -> np.ndarray:
    """Vectorised Gauss-Markov shadowing along an equally spaced position grid.

    ``sigma_db`` and ``decorrelation_m`` are per-position arrays; runs of
    constant parameters are filtered in one pass each, carrying the state
    across run boundaries. Matches a literal unrolling of ``shadowing_db``.
    """
    eps = np.asarray(eps, dtype=float)
    n = eps.size
    if n == 0:
        return np.empty(0)
    sigma = np.broadcast_to(np.asarray(sigma_db, dtype=float), (n,))
    decorr = np.broadcast_to(np.asarray(decorrelation_m, dtype=float), (n,))
    out = np.empty(n)
    prev = float(sigma[0] * eps[0])
    out[0] = prev
    if n == 1:
        return out
    changes = 1 + np.flatnonzero(
        (sigma[2:] != sigma[1:-1]) | (decorr[2:] != decorr[1:-1])
    )
    bounds = np.concatenate(([1], changes + 1, [n]))
    for i, j in zip(bounds[:-1], bounds[1:]):
        rho = math.exp(-step_m / decorr[i])
        drive = math.sqrt(1.0 - rho * rho) * sigma[i] * eps[i:j]
        seg, _ = lfilter([1.0], [1.0, -rho], drive, zi=np.array([rho * prev]))
        out[i:j] = seg
        prev = float(seg[-1])
    return out


def small_scale_series(normals: np.ndarray, k_linear: np.ndarray) -> np.ndarray:
    """Vectorised |h|^2 draws from per-sample Rician K factors (0 = Rayleigh)."""
    normals = np.asarray(normals, dtype=float)
    k = np.broadcast_to(np.asarray(k_linear, dtype=float), (normals.shape[0],))
    finite = np.isfinite(k)
    kf = np.where(finite, k, 0.0)
    scale = np.sqrt(1.0 / (2.0 * (kf + 1.0)))
    re = np.sqrt(kf / (kf + 1.0)) + normals[:, 0] * scale
    im = normals[:, 1] * scale
    h2 = re * re + im * im
    return np.where(finite, h2, 1.0)
