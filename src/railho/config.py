"""Run configuration: defaults, JSON loading and CLI-style overrides.

A run configuration file is a JSON document with the optional top-level keys
``layout``, ``kinematics``, ``profiles``, ``budget``, ``ici``, ``l1``,
``l3``, ``handover``, ``runs`` and ``seed``; anything omitted falls back to
the built-in deployment defaults. Unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .channel import EnvironmentProfile, LinkBudget, default_profiles
from .constants import kmh_to_mps, mps_to_kmh
from .geometry import (
    DeploymentLayout,
    Environment,
    TrainKinematics,
    default_layout,
    span_segments,
)
from .handover import HandoverConfig
from .ici import IciParams
from .measurement import L1Config, L3Config

DEFAULT_RUNS = 500
DEFAULT_SEED = 42


class ConfigError(ValueError):
    """Invalid run configuration (bad file, bad value, inconsistent fields)."""


@dataclass(frozen=True)
class RunConfig:
    layout: DeploymentLayout = field(default_factory=default_layout)
    kinematics: TrainKinematics = field(
        default_factory=lambda: TrainKinematics(speed_mps=kmh_to_mps(100.0))
    )
    profiles: Mapping[Environment, EnvironmentProfile] = field(default_factory=default_profiles)
    budget: LinkBudget = field(default_factory=LinkBudget)
    ici: IciParams = field(default_factory=IciParams)
    l1: L1Config = field(default_factory=L1Config)
    l3: L3Config = field(default_factory=L3Config)
    handover: HandoverConfig = field(default_factory=HandoverConfig)
    runs: int = DEFAULT_RUNS
    master_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if any(math.hypot(s.lateral_offset, s.height) < 1.0 for s in self.layout.rrhs):
            raise ConfigError("RRHs must sit at least the 1 m path-loss reference from the track")
        for _, _, env in self.layout.segments:
            if env not in self.profiles:
                raise ConfigError(f"no profile for environment {env.value!r}")
        try:
            self.handover.ttt_samples(self.l1.sample_period_s)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def speed_kmh(self) -> float:
        return mps_to_kmh(self.kinematics.speed_mps)

    @property
    def environment_label(self) -> str:
        return self.layout.environment_label


def _build(cls, data: Mapping[str, Any], context: str, **extra):
    """Instantiate a config dataclass from a JSON mapping, rejecting unknown keys."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{context} must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    try:
        return cls(**{**data, **extra})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {context}: {exc}") from exc


def _build_kinematics(data: Mapping[str, Any]) -> TrainKinematics:
    data = dict(data)
    if "speed_kmh" in data and "speed_mps" in data:
        raise ConfigError("give kinematics.speed_kmh or speed_mps, not both")
    if "speed_kmh" in data:
        data["speed_mps"] = kmh_to_mps(data.pop("speed_kmh"))
    return _build(TrainKinematics, data, "kinematics")


_LAYOUT_KEYS = {
    "environment",
    "spans",
    "rrh_spacing_m",
    "lateral_offset_m",
    "rrh_height_m",
    "max_gain_db",
    "beamwidth_3db_deg",
    "pattern_floor_db",
    "segments",
}


def _build_layout(data: Mapping[str, Any]) -> DeploymentLayout:
    if not isinstance(data, Mapping):
        raise ConfigError("layout must be a JSON object")
    unknown = set(data) - _LAYOUT_KEYS
    if unknown:
        raise ConfigError(f"unknown layout keys: {sorted(unknown)}")
    if "segments" in data and "environment" in data:
        raise ConfigError("give layout.segments or layout.environment, not both")
    kwargs: dict[str, Any] = {}
    for key in ("rrh_spacing_m", "lateral_offset_m", "rrh_height_m", "max_gain_db", "pattern_floor_db"):
        if key in data:
            kwargs[key] = data[key]
    if "beamwidth_3db_deg" in data:
        kwargs["beamwidth_3db_rad"] = math.radians(data["beamwidth_3db_deg"])
    try:
        if "segments" in data:
            base = default_layout(spans=len(data["segments"]), **kwargs)
            segments = tuple(
                (float(s[0]), float(s[1]), Environment(s[2])) for s in data["segments"]
            )
            return dataclasses.replace(base, segments=segments)
        return default_layout(
            environment=data.get("environment", "mixed"),
            spans=data.get("spans", 3),
            **kwargs,
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise ConfigError(f"bad layout: {exc}") from exc


def _build_profiles(data: Mapping[str, Any]) -> dict[Environment, EnvironmentProfile]:
    profiles = default_profiles()
    if not isinstance(data, Mapping):
        raise ConfigError("profiles must be a JSON object keyed by environment")
    for name, overrides in data.items():
        try:
            env = Environment(name)
        except ValueError as exc:
            raise ConfigError(f"unknown environment {name!r}") from exc
        base = profiles[env]
        names = {f.name for f in dataclasses.fields(EnvironmentProfile)} - {"environment"}
        unknown = set(overrides) - names
        if unknown:
            raise ConfigError(f"unknown profile keys for {name}: {sorted(unknown)}")
        try:
            profiles[env] = dataclasses.replace(base, **overrides)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad profile for {name}: {exc}") from exc
    return profiles


_TOP_KEYS = {"layout", "kinematics", "profiles", "budget", "ici", "l1", "l3", "handover", "runs", "seed"}


def config_from_dict(doc: Mapping[str, Any]) -> RunConfig:
    if not isinstance(doc, Mapping):
        raise ConfigError("configuration root must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    if "layout" in doc:
        kwargs["layout"] = _build_layout(doc["layout"])
    if "kinematics" in doc:
        kwargs["kinematics"] = _build_kinematics(doc["kinematics"])
    if "profiles" in doc:
        kwargs["profiles"] = _build_profiles(doc["profiles"])
    if "budget" in doc:
        kwargs["budget"] = _build(LinkBudget, doc["budget"], "budget")
    if "ici" in doc:
        kwargs["ici"] = _build(IciParams, doc["ici"], "ici")
    if "l1" in doc:
        kwargs["l1"] = _build(L1Config, doc["l1"], "l1")
    if "l3" in doc:
        kwargs["l3"] = _build(L3Config, doc["l3"], "l3")
    if "handover" in doc:
        kwargs["handover"] = _build(HandoverConfig, doc["handover"], "handover")
    if "runs" in doc:
        kwargs["runs"] = doc["runs"]
    if "seed" in doc:
        kwargs["seed"] = doc["seed"]
    if "seed" in kwargs:
        kwargs["master_seed"] = kwargs.pop("seed")
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    """Load a JSON run configuration, applying defaults for missing keys."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


def apply_overrides(
    cfg: RunConfig,
    *,
    speed_kmh: float | None = None,
    environment: str | None = None,
    offset_db: float | None = None,
    ttt_ms: float | None = None,
    runs: int | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Return a copy of ``cfg`` with CLI-style overrides applied."""
    kwargs: dict[str, Any] = {}
    if speed_kmh is not None:
        if speed_kmh <= 0:
            raise ConfigError("speed must be positive")
        kwargs["kinematics"] = dataclasses.replace(
            cfg.kinematics, speed_mps=kmh_to_mps(speed_kmh)
        )
    if environment is not None:
        layout = cfg.layout
        try:
            kwargs["layout"] = dataclasses.replace(
                layout, segments=span_segments(layout.rrhs, layout.track_length_m, environment)
            )
        except ValueError as exc:
            raise ConfigError(f"bad environment: {exc}") from exc
    handover = cfg.handover
    if offset_db is not None:
        handover = dataclasses.replace(handover, hysteresis_db=offset_db)
    if ttt_ms is not None:
        handover = dataclasses.replace(handover, ttt_s=ttt_ms / 1000.0)
    if handover is not cfg.handover:
        kwargs["handover"] = handover
    if runs is not None:
        kwargs["runs"] = runs
    if seed is not None:
        kwargs["master_seed"] = seed
    if not kwargs:
        return cfg
    try:
        return dataclasses.replace(cfg, **kwargs)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc
