"""Trackside deployment geometry and train kinematics.

A straight track runs along increasing position. Remote radio heads (RRHs)
sit at a fixed lateral offset from the track with bidirectional beams turned
along it, and the track is tiled into propagation-environment segments such
that a single environment lies between any two neighbouring RRHs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_RRH_SPACING_M = 1732.0
# The paper's abstract fixes neither the RRH's distance from the track nor its
# height; 100 m and 30 m are this repository's choice. With them the train
# passes its own RRH off the beam axis, at the pattern floor.
DEFAULT_LATERAL_OFFSET_M = 100.0
DEFAULT_RRH_HEIGHT_M = 30.0
DEFAULT_SNAPSHOT_INTERVAL_M = 1.0

_REL_TOL = 1e-9


class Environment(str, Enum):
    """Propagation environment of a track segment."""

    VIADUCT = "viaduct"
    CUTTING = "cutting"
    URBAN = "urban"


#: Default order in which environments tile a mixed track, one per RRH span.
MIXED_ENVIRONMENT_ORDER = (Environment.VIADUCT, Environment.CUTTING, Environment.URBAN)


@dataclass(frozen=True)
class RrhSite:
    """A trackside remote radio head with a bidirectional along-track beam."""

    position_along_track: float
    lateral_offset: float = DEFAULT_LATERAL_OFFSET_M
    height: float = DEFAULT_RRH_HEIGHT_M
    max_gain_db: float = 14.0
    beamwidth_3db_rad: float = math.radians(30.0)
    pattern_floor_db: float = 25.0

    def __post_init__(self) -> None:
        if self.lateral_offset <= 0.0:
            raise ValueError(f"lateral_offset must be positive, got {self.lateral_offset}")
        if self.height <= 0.0:
            raise ValueError(f"height must be positive, got {self.height}")
        if self.beamwidth_3db_rad <= 0.0:
            raise ValueError("beamwidth_3db_rad must be positive")


@dataclass(frozen=True)
class TrainKinematics:
    """Constant-speed point train sampled on a fixed spatial grid."""

    speed_mps: float
    snapshot_interval_m: float = DEFAULT_SNAPSHOT_INTERVAL_M
    start_position_m: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.speed_mps < math.inf:
            raise ValueError(f"speed must be finite and positive, got {self.speed_mps}")
        if self.snapshot_interval_m <= 0.0:
            raise ValueError("snapshot_interval_m must be positive")
        if self.start_position_m < 0.0:
            raise ValueError("start_position_m must be non-negative")


Segment = tuple[float, float, Environment]


@dataclass(frozen=True)
class DeploymentLayout:
    """Ordered RRH sites plus the environment tiling of the track."""

    rrhs: tuple[RrhSite, ...]
    rrh_spacing_m: float
    track_length_m: float
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if len(self.rrhs) < 1:
            raise ValueError("layout needs at least one RRH")
        if self.track_length_m <= 0.0:
            raise ValueError("track_length_m must be positive")
        positions = [s.position_along_track for s in self.rrhs]
        if positions != sorted(positions):
            raise ValueError("rrhs must be sorted by position_along_track")
        for a, b in zip(positions, positions[1:]):
            if not math.isclose(b - a, self.rrh_spacing_m, rel_tol=_REL_TOL, abs_tol=1e-6):
                raise ValueError(
                    f"consecutive RRH spacing {b - a} differs from rrh_spacing_m {self.rrh_spacing_m}"
                )
        if not self.segments:
            raise ValueError("layout needs at least one segment")
        cursor = 0.0
        for start, end, env in self.segments:
            if not math.isclose(start, cursor, rel_tol=_REL_TOL, abs_tol=1e-6):
                raise ValueError(f"segment start {start} leaves a gap or overlap at {cursor}")
            if end <= start:
                raise ValueError(f"segment ({start}, {end}) is empty or reversed")
            if not isinstance(env, Environment):
                raise ValueError(f"segment environment {env!r} is not an Environment")
            cursor = end
        if not math.isclose(cursor, self.track_length_m, rel_tol=_REL_TOL, abs_tol=1e-6):
            raise ValueError(f"segments end at {cursor}, track length is {self.track_length_m}")
        # A single environment must span the gap between any two neighbouring RRHs.
        boundaries = [s[0] for s in self.segments[1:]]
        for a, b in zip(positions, positions[1:]):
            inside = [x for x in boundaries if a + 1e-6 < x < b - 1e-6]
            if inside:
                raise ValueError(
                    f"environment changes at {inside} inside the RRH span ({a}, {b})"
                )

    @property
    def environment_label(self) -> str:
        """"mixed" when several environments tile the track, else the single name."""
        envs = {env for _, _, env in self.segments}
        return next(iter(envs)).value if len(envs) == 1 else "mixed"


def default_layout(
    environment: str | Environment = "mixed",
    spans: int = 3,
    rrh_spacing_m: float = DEFAULT_RRH_SPACING_M,
    lateral_offset_m: float = DEFAULT_LATERAL_OFFSET_M,
    rrh_height_m: float = DEFAULT_RRH_HEIGHT_M,
    max_gain_db: float = 14.0,
    beamwidth_3db_rad: float = math.radians(30.0),
    pattern_floor_db: float = 25.0,
) -> DeploymentLayout:
    """Build a linear deployment with one RRH at each span boundary.

    ``environment`` is either a single environment name applied to every span
    or "mixed", which cycles viaduct/cutting/urban along the track. The
    default 100 m lateral offset and 30 m height are this repository's
    choice, not the paper's.
    """
    if spans < 1:
        raise ValueError("spans must be >= 1")
    track_length = spans * rrh_spacing_m
    rrhs = tuple(
        RrhSite(
            position_along_track=i * rrh_spacing_m,
            lateral_offset=lateral_offset_m,
            height=rrh_height_m,
            max_gain_db=max_gain_db,
            beamwidth_3db_rad=beamwidth_3db_rad,
            pattern_floor_db=pattern_floor_db,
        )
        for i in range(spans + 1)
    )
    return DeploymentLayout(
        rrhs=rrhs,
        rrh_spacing_m=rrh_spacing_m,
        track_length_m=track_length,
        segments=span_segments(rrhs, track_length, environment),
    )


def span_segments(
    rrhs: tuple[RrhSite, ...], track_length_m: float, environment: str | Environment
) -> tuple[Segment, ...]:
    """Tile [0, track_length_m] with one segment per RRH span.

    Segment boundaries sit at the RRH positions inside the track.
    ``environment`` is either a single environment name applied to every
    segment or "mixed", which cycles viaduct/cutting/urban along the track.
    """
    inner = [s.position_along_track for s in rrhs if 0.0 < s.position_along_track < track_length_m]
    bounds = [0.0, *inner, track_length_m]
    n = len(bounds) - 1
    if environment == "mixed":
        envs = [MIXED_ENVIRONMENT_ORDER[i % 3] for i in range(n)]
    else:
        envs = [Environment(environment)] * n
    return tuple(zip(bounds[:-1], bounds[1:], envs))


def link_geometry(site: RrhSite, train_position_m):
    """3D site-to-train distance and horizontal bearing off the beam axis.

    Accepts a scalar position or a numpy array of positions and returns
    matching scalars or arrays. The bearing is measured from the forward
    track direction; the antenna pattern handles the bidirectional beam
    symmetry.
    """
    d_along = np.asarray(train_position_m, dtype=float) - site.position_along_track
    distance = np.sqrt(d_along * d_along + site.lateral_offset**2 + site.height**2)
    bearing = np.arctan2(site.lateral_offset, d_along)  # in (0, pi)
    return distance, bearing


def environment_at(layout: DeploymentLayout, position_m):
    """Environment of the segment containing ``position_m``.

    A boundary position belongs to the segment starting at it; the track end
    belongs to the last segment. An array of positions gives an object array
    of environments.
    """
    pos = np.asarray(position_m, dtype=float)
    if np.any((pos < 0.0) | (pos > layout.track_length_m)):
        raise ValueError(
            f"position {position_m} outside track [0, {layout.track_length_m}]"
        )
    starts = [start for start, _, _ in layout.segments]
    envs = np.array([env for _, _, env in layout.segments], dtype=object)
    return envs[np.maximum(np.searchsorted(starts, pos, side="right") - 1, 0)]


def sample_stride(kinematics: TrainKinematics, sample_period_s: float) -> int:
    """Number of spatial snapshots advanced per measurement sample.

    Uses floor with a minimum of 1 so that 100/300/500 km/h on the default
    1 m grid give strides of exactly 1/3/5.
    """
    if sample_period_s <= 0.0:
        raise ValueError("sample_period_s must be positive")
    ratio = kinematics.speed_mps * sample_period_s / kinematics.snapshot_interval_m
    return max(1, math.floor(ratio + 1e-9))
