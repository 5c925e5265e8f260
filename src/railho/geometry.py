"""Trackside deployment geometry and train kinematics.

A straight track runs along increasing position and is cut into equal RRH
spans. One remote radio head (RRH) stands at each span boundary: RRH ``i``
sits at ``i * rrh_spacing_m``, and all RRHs share one mast (lateral offset
and height) and one bidirectional beam turned along the track. The track is
tiled into propagation-environment segments such that a single environment
lies between any two neighbouring RRHs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_RRH_SPACING_M = 1732.0
DEFAULT_SNAPSHOT_INTERVAL_M = 1.0

_REL_TOL = 1e-9
_TINY = np.finfo(float).tiny
_MAX_SNAPSHOTS = np.iinfo(np.intp).max // 8  # the most 8-byte values a numpy array can hold


class Environment(str, Enum):
    """Propagation environment of a track segment."""

    VIADUCT = "viaduct"
    CUTTING = "cutting"
    URBAN = "urban"


#: Default order in which environments tile a mixed track, one per RRH span.
MIXED_ENVIRONMENT_ORDER = (Environment.VIADUCT, Environment.CUTTING, Environment.URBAN)


@dataclass(frozen=True)
class TrainKinematics:
    """Constant-speed point train sampled on a fixed spatial grid."""

    speed_kmh: float
    snapshot_interval_m: float = DEFAULT_SNAPSHOT_INTERVAL_M
    start_position_m: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.speed_mps < math.inf:  # in m/s, so that no speed rounds to a standstill
            raise ValueError(f"speed must be finite and positive, got {self.speed_kmh} km/h")
        if self.snapshot_interval_m <= 0.0:
            raise ValueError("snapshot_interval_m must be positive")
        if self.start_position_m < 0.0:
            raise ValueError("start_position_m must be non-negative")

    @property
    def speed_mps(self) -> float:
        return self.speed_kmh / 3.6


Segment = tuple[float, float, Environment]


@dataclass(frozen=True, kw_only=True)
class DeploymentLayout:
    """Equally spaced RRHs with one mast and beam, and the environment tiling of the track.

    The fields are the keys of a configuration's ``layout`` section.
    """

    spans: int = 3
    rrh_spacing_m: float = DEFAULT_RRH_SPACING_M
    # The paper's abstract fixes neither the RRH's distance from the track nor its
    # height; 100 m and 30 m are this repository's choice. With them the train
    # passes its own RRH off the beam axis, at the pattern floor.
    lateral_offset_m: float = 100.0
    rrh_height_m: float = 30.0
    max_gain_db: float = 14.0
    beamwidth_3db_deg: float = 30.0
    pattern_floor_db: float = 25.0
    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if self.spans < 1:
            raise ValueError("spans must be >= 1")
        if self.rrh_spacing_m <= 0.0:
            raise ValueError(f"rrh_spacing_m must be positive, got {self.rrh_spacing_m}")
        if self.lateral_offset_m <= 0.0:
            raise ValueError(f"lateral_offset_m must be positive, got {self.lateral_offset_m}")
        if self.rrh_height_m <= 0.0:
            raise ValueError(f"rrh_height_m must be positive, got {self.rrh_height_m}")
        if not math.radians(self.beamwidth_3db_deg) >= _TINY:  # so that the gain's division cannot overflow
            raise ValueError(f"beamwidth_3db_deg {self.beamwidth_3db_deg} is below {math.degrees(_TINY):.4g}")
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
            # A single environment must span the gap between any two neighbouring RRHs.
            if abs(start - round(start / self.rrh_spacing_m) * self.rrh_spacing_m) > 1e-6:
                raise ValueError(f"environment changes at {start}, inside an RRH span")
            cursor = end
        if not math.isclose(cursor, self.track_length_m, rel_tol=_REL_TOL, abs_tol=1e-6):
            raise ValueError(f"segments end at {cursor}, track length is {self.track_length_m}")

    @property
    def track_length_m(self) -> float:
        return self.spans * self.rrh_spacing_m

    def rrh_position_m(self, cell: int) -> float:
        """Along-track position of RRH ``cell`` (0 to ``spans``)."""
        return cell * self.rrh_spacing_m

    @property
    def environment_label(self) -> str:
        """"mixed" when several environments tile the track, else the single name."""
        envs = {env for _, _, env in self.segments}
        return next(iter(envs)).value if len(envs) == 1 else "mixed"


def default_layout(
    environment: str | Environment = "mixed",
    spans: int = 3,
    rrh_spacing_m: float = DEFAULT_RRH_SPACING_M,
    **mast_and_beam: float,
) -> DeploymentLayout:
    """A layout with one segment per RRH span, tiled by ``environment``.

    ``mast_and_beam`` sets the other ``DeploymentLayout`` fields.
    """
    segments = span_segments(spans, rrh_spacing_m, environment)
    return DeploymentLayout(spans=spans, rrh_spacing_m=rrh_spacing_m, segments=segments, **mast_and_beam)


def span_segments(
    spans: int, rrh_spacing_m: float, environment: str | Environment
) -> tuple[Segment, ...]:
    """Tile ``spans`` RRH spans with one segment each.

    ``environment`` is either a single environment name applied to every
    segment or "mixed", which cycles viaduct/cutting/urban along the track.
    """
    bounds = [i * rrh_spacing_m for i in range(spans + 1)]
    if environment == "mixed":
        envs = [MIXED_ENVIRONMENT_ORDER[i % 3] for i in range(spans)]
    else:
        envs = [Environment(environment)] * spans
    return tuple(zip(bounds[:-1], bounds[1:], envs))


def link_geometry(layout: DeploymentLayout, cell: int, train_position_m):
    """3D distance from RRH ``cell`` to the train and horizontal bearing off the beam axis.

    Accepts a scalar position or a numpy array of positions and returns
    matching scalars or arrays. The bearing is measured from the forward
    track direction; the antenna pattern handles the bidirectional beam
    symmetry.
    """
    d_along = np.asarray(train_position_m, dtype=float) - layout.rrh_position_m(cell)
    distance = np.sqrt(d_along * d_along + layout.lateral_offset_m**2 + layout.rrh_height_m**2)
    bearing = np.arctan2(layout.lateral_offset_m, d_along)  # in (0, pi)
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


def snapshot_count(layout: DeploymentLayout, kinematics: TrainKinematics) -> int:
    """Number of snapshots from the start position to the end of the track."""
    span = (layout.track_length_m - kinematics.start_position_m) / kinematics.snapshot_interval_m
    if not span < _MAX_SNAPSHOTS:
        raise ValueError(f"{span:g} snapshots of {kinematics.snapshot_interval_m} m are too many to index")
    return math.floor(span) + 1


def sample_stride(kinematics: TrainKinematics, sample_period_s: float) -> int:
    """Number of spatial snapshots advanced per measurement sample.

    Uses floor with a minimum of 1 so that 100/300/500 km/h on the default
    1 m grid give strides of exactly 1/3/5.
    """
    if sample_period_s <= 0.0:
        raise ValueError("sample_period_s must be positive")
    ratio = kinematics.speed_mps * sample_period_s / kinematics.snapshot_interval_m
    if ratio == math.inf:
        raise ValueError(f"a {sample_period_s} s tick spans more snapshots than a float can count")
    return max(1, math.floor(ratio + 1e-9))
