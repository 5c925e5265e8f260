"""Run configuration: defaults, JSON loading and CLI-style overrides.

A run configuration file is a JSON document with the optional top-level keys
``layout``, ``kinematics``, ``profiles``, ``budget``, ``ici``, ``l1``,
``l3``, ``handover``, ``runs`` and ``seed``; anything omitted falls back to
the built-in deployment defaults. Unknown keys are rejected, and every value
is checked against the type its field is annotated with.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import math
import numbers
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Literal, Mapping

from .channel import EnvironmentProfile, LinkBudget, default_profiles
from .constants import kmh_to_mps, mps_to_kmh
from .geometry import (
    DEFAULT_RRH_SPACING_M,
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


def _is_integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A JSON number: not a boolean and not NaN (infinities are numbers)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and not math.isnan(value)


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
        if not _is_integer(self.runs) or self.runs < 1:
            raise ConfigError("runs must be an integer >= 1")
        if not _is_integer(self.master_seed) or not 0 <= self.master_seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.kinematics.start_position_m > self.layout.track_length_m:
            raise ConfigError(
                f"kinematics.start_position_m {self.kinematics.start_position_m} is beyond the "
                f"end of the {self.layout.track_length_m} m track"
            )
        if any(math.hypot(s.lateral_offset, s.height) < 1.0 for s in self.layout.rrhs):
            raise ConfigError("RRHs must sit at least the 1 m path-loss reference from the track")
        for _, _, env in self.layout.segments:
            if env not in self.profiles:
                raise ConfigError(f"no profile for environment {env.value!r}")
        with _config_errors():
            self.handover.ttt_samples(self.l1.sample_period_s)

    @property
    def speed_kmh(self) -> float:
        return mps_to_kmh(self.kinematics.speed_mps)

    @property
    def environment_label(self) -> str:
        return self.layout.environment_label


def _object(data: Any, allowed: Iterable[str], context: str, what: str | None = None) -> Mapping[str, Any]:
    """Return ``data`` if it is a JSON object whose keys are all in ``allowed``."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {what or context + ' keys'}: {sorted(unknown)}")
    return data


@contextlib.contextmanager
def _config_errors(prefix: str = ""):
    """Re-raise a bad value met while building a configuration as ``ConfigError``."""
    try:
        yield
    except (TypeError, ValueError, LookupError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _type_check(annotation: Any) -> tuple[Callable[[Any], bool], str]:
    """Check of a JSON value against a field annotation, and what it expects in words.

    ``float`` takes any JSON number but not a boolean; unions and ``Literal``
    are checked member by member; other annotations take any value.
    """
    if annotation is float:
        return _is_number, "a number"
    if annotation is int:
        return _is_integer, "an integer"
    if annotation is str:
        return lambda v: isinstance(v, str), "a string"
    if annotation is type(None):
        return lambda v: v is None, "null"
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is Literal:
        return (
            lambda v: any(type(v) is type(a) and v == a for a in args),
            "one of " + ", ".join(repr(a) for a in args),
        )
    if origin in (typing.Union, types.UnionType):
        checks = [_type_check(a) for a in args]
        return (
            lambda v: any(check(v) for check, _ in checks),
            " or ".join(text for _, text in checks),
        )
    return lambda v: True, "any value"


@functools.cache
def _field_checks(owner: Any) -> dict[str, tuple[Callable[[Any], bool], str]]:
    """Type checks of the annotated fields (or parameters) of a dataclass (or function)."""
    return {name: _type_check(kind) for name, kind in typing.get_type_hints(owner).items()}


def _check_types(data: Mapping[str, Any], checks: Mapping[str, tuple], context: str) -> None:
    for key, value in data.items():
        if key in checks:
            check, expected = checks[key]
            if not check(value):
                raise ConfigError(f"bad {context}: {key} must be {expected}, got {value!r}")


def _build(cls, data: Any, context: str, base=None):
    """Build dataclass ``cls`` from a JSON object, or replace the given fields of ``base``."""
    _object(data, (f.name for f in dataclasses.fields(cls)), context)
    _check_types(data, _field_checks(cls), context)
    with _config_errors(f"bad {context}: "):
        return cls(**data) if base is None else dataclasses.replace(base, **data)


def _build_kinematics(data: Any) -> TrainKinematics:
    names = [f.name for f in dataclasses.fields(TrainKinematics)]
    data = dict(_object(data, [*names, "speed_kmh"], "kinematics"))
    _check_types(data, {"speed_kmh": _type_check(float)}, "kinematics")
    if "speed_kmh" in data:
        if "speed_mps" in data:
            raise ConfigError("give kinematics.speed_kmh or speed_mps, not both")
        with _config_errors("bad kinematics: "):
            data["speed_mps"] = kmh_to_mps(data.pop("speed_kmh"))
    return _build(TrainKinematics, data, "kinematics")


# default_layout's parameters, with the beamwidth in degrees, and explicit segments
_LAYOUT_KEYS = (
    {*inspect.signature(default_layout).parameters, "beamwidth_3db_deg", "segments"} - {"beamwidth_3db_rad"}
)


def _is_segment(entry: Any) -> bool:
    """Whether a JSON value has the form ``[number, number, environment]``."""
    return isinstance(entry, list) and len(entry) == 3 and _is_number(entry[0]) and _is_number(entry[1])


def _build_layout(data: Any) -> DeploymentLayout:
    _object(data, _LAYOUT_KEYS, "layout")
    _check_types(data, {**_field_checks(default_layout), "beamwidth_3db_deg": _type_check(float)}, "layout")
    if "segments" in data and "environment" in data:
        raise ConfigError("give layout.segments or layout.environment, not both")
    with _config_errors("bad layout: "):
        site_keys = ("rrh_spacing_m", "lateral_offset_m", "rrh_height_m", "max_gain_db", "pattern_floor_db")
        kwargs = {key: data[key] for key in site_keys if key in data}
        if "beamwidth_3db_deg" in data:
            kwargs["beamwidth_3db_rad"] = math.radians(data["beamwidth_3db_deg"])
        if "segments" not in data:
            return default_layout(
                environment=data.get("environment", "mixed"),
                spans=data.get("spans", 3),
                **kwargs,
            )
        if not isinstance(data["segments"], list) or not all(map(_is_segment, data["segments"])):
            raise ConfigError(
                "segments must be a list of [start, end, environment] entries with numeric bounds, "
                f"got {data['segments']!r}"
            )
        if not data["segments"]:
            raise ConfigError("segments must not be empty")
        spans = data.get("spans")
        if spans is None:
            # One segment may cover several RRH spans: size the track by its end.
            spacing = kwargs.get("rrh_spacing_m", DEFAULT_RRH_SPACING_M)
            end = float(data["segments"][-1][1])
            spans = round(end / spacing)
            if not math.isclose(end, spans * spacing, rel_tol=1e-9, abs_tol=1e-6):
                raise ConfigError(f"segments end at {end}, not a whole number of {spacing} m RRH spans")
        segments = tuple((float(s[0]), float(s[1]), Environment(s[2])) for s in data["segments"])
        return dataclasses.replace(default_layout(spans=spans, **kwargs), segments=segments)


def _build_profiles(data: Any) -> dict[Environment, EnvironmentProfile]:
    profiles = default_profiles()
    for name, overrides in _object(data, (env.value for env in profiles), "profiles", "environment").items():
        env = Environment(name)
        profiles[env] = _build(EnvironmentProfile, overrides, f"profiles.{name}", base=profiles[env])
    return profiles


# JSON key -> (RunConfig field, function that turns the JSON value into the field's value)
_SECTIONS: dict[str, tuple[str, Callable[[Any], Any]]] = {
    "layout": ("layout", _build_layout),
    "kinematics": ("kinematics", _build_kinematics),
    "profiles": ("profiles", _build_profiles),
    "budget": ("budget", functools.partial(_build, LinkBudget, context="budget")),
    "ici": ("ici", functools.partial(_build, IciParams, context="ici")),
    "l1": ("l1", functools.partial(_build, L1Config, context="l1")),
    "l3": ("l3", functools.partial(_build, L3Config, context="l3")),
    "handover": ("handover", functools.partial(_build, HandoverConfig, context="handover")),
    "runs": ("runs", lambda value: value),
    "seed": ("master_seed", lambda value: value),
}


def config_from_dict(doc: Any) -> RunConfig:
    _object(doc, _SECTIONS, "configuration")
    kwargs = {name: build(doc[key]) for key, (name, build) in _SECTIONS.items() if key in doc}
    with _config_errors():
        return RunConfig(**kwargs)


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
    handover: dict[str, float] = {}
    with _config_errors():
        if speed_kmh is not None:
            kwargs["kinematics"] = dataclasses.replace(cfg.kinematics, speed_mps=kmh_to_mps(speed_kmh))
        if environment is not None:
            layout = cfg.layout
            kwargs["layout"] = dataclasses.replace(
                layout, segments=span_segments(layout.rrhs, layout.track_length_m, environment)
            )
        if offset_db is not None:
            if not _is_number(offset_db):
                raise ConfigError(f"offset_db must be a number, got {offset_db!r}")
            handover["hysteresis_db"] = offset_db
        if ttt_ms is not None:
            handover["ttt_s"] = ttt_ms / 1000.0
        if handover:
            kwargs["handover"] = dataclasses.replace(cfg.handover, **handover)
        if runs is not None:
            kwargs["runs"] = runs
        if seed is not None:
            kwargs["master_seed"] = seed
        return dataclasses.replace(cfg, **kwargs) if kwargs else cfg
