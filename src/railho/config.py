"""Run configuration: defaults, JSON loading and CLI-style overrides.

A run configuration file is a JSON document with the optional top-level keys
``layout``, ``kinematics``, ``profiles``, ``budget``, ``ici``, ``l1``,
``l3``, ``handover``, ``runs`` and ``seed``, whose own keys are optional too;
``config_from_dict`` overlays it on the built-in defaults, and CLI flags reach
``apply_overrides`` as the same shape of document, checked the same way.
Unknown keys are rejected, each value must have its field's annotated type,
and numbers must be finite (only ``rician_k_db`` also takes ±Infinity).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import math
import numbers
import sys
import types
import typing
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Literal

from .channel import EnvironmentProfile, LinkBudget, default_profiles
from .geometry import (
    DeploymentLayout, Environment, TrainKinematics, default_layout, sample_stride, snapshot_count, span_segments,
)
from .handover import HandoverConfig
from .ici import IciParams
from .measurement import L1Config, L3Config

DEFAULT_RUNS = 500
DEFAULT_SEED = 42
# a run index is one word of its streams' seed key, a 32-bit SeedSequence word (simulate._stream_states)
RUN_INDEX_BITS = 32
_Check = tuple[Callable[[Any], bool], str]  # a check of a JSON value, and what it expects in words
_ANY: _Check = (lambda v: True, "any value")


class ConfigError(ValueError):
    """Invalid run configuration (bad file, bad value, inconsistent fields)."""


def _is_integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value: Any, infinite_ok: bool = False) -> bool:
    """A finite JSON number that is not a boolean (±Infinity too if ``infinite_ok``).

    The bound is compared exactly, so NaN and integers too large for a float fail it.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and (abs(value) <= sys.float_info.max or infinite_ok and abs(value) == math.inf)


@dataclass(frozen=True)
class RunConfig:
    layout: DeploymentLayout = field(default_factory=default_layout)
    kinematics: TrainKinematics = field(default_factory=lambda: TrainKinematics(speed_kmh=100.0))
    # a dict, so left out of the hash (equality still compares it): configs key a batch's groups
    profiles: Mapping[Environment, EnvironmentProfile] = field(default_factory=default_profiles, hash=False)
    budget: LinkBudget = field(default_factory=LinkBudget)
    ici: IciParams = field(default_factory=IciParams)
    l1: L1Config = field(default_factory=L1Config)
    l3: L3Config = field(default_factory=L3Config)
    handover: HandoverConfig = field(default_factory=HandoverConfig)
    runs: int = DEFAULT_RUNS
    master_seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not _is_integer(self.runs) or not 1 <= self.runs <= 2**RUN_INDEX_BITS:
            raise ConfigError(f"runs must be an integer in [1, 2**{RUN_INDEX_BITS}]")
        if not _is_integer(self.master_seed) or not 0 <= self.master_seed < 2**64:
            raise ConfigError("seed must be an unsigned 64-bit integer")
        if self.kinematics.start_position_m > self.layout.track_length_m:
            raise ConfigError(
                f"kinematics.start_position_m {self.kinematics.start_position_m} is beyond the "
                f"end of the {self.layout.track_length_m} m track"
            )
        if math.hypot(self.layout.lateral_offset_m, self.layout.rrh_height_m) < 1.0:
            raise ConfigError("RRHs must sit at least the 1 m path-loss reference from the track")
        for _, _, env in self.layout.segments:
            if env not in self.profiles:
                raise ConfigError(f"no profile for environment {env.value!r}")
        with _config_errors():
            self.handover.ttt_samples(self.l1.sample_period_s)
            snapshot_count(self.layout, self.kinematics)
            sample_stride(self.kinematics, self.l1.sample_period_s)

    @property
    def speed_kmh(self) -> float:
        return self.kinematics.speed_kmh

    @property
    def environment_label(self) -> str:
        return self.layout.environment_label


def _object(data: Any, checks: Mapping[str, _Check], context: str, what: str | None = None) -> Mapping:
    """Return ``data`` if it is a JSON object whose keys all have a check in ``checks`` and pass it."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = data.keys() - checks.keys()
    if unknown:
        raise ConfigError(f"unknown {what or context + ' keys'}: {sorted(unknown)}")
    for key, value in data.items():
        check, expected = checks[key]
        if not check(value):
            raise ConfigError(f"bad {context}: {key} must be {expected}, got {value!r}")
    return data


@contextlib.contextmanager
def _config_errors(prefix: str = ""):
    """Re-raise a bad value met while building a configuration as ``ConfigError``."""
    try:
        yield
    except (TypeError, ValueError, LookupError, ArithmeticError) as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _type_check(annotation: Any, infinite_ok: bool = False) -> _Check:
    """Check of a JSON value against a field annotation, and what it expects in words.

    ``float`` takes a finite JSON number (±Infinity too if ``infinite_ok``) but not a boolean;
    unions and ``Literal`` are checked member by member; other annotations take any value.
    """
    if annotation is float:
        return functools.partial(_is_number, infinite_ok=infinite_ok), "a number"
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
        checks = [_type_check(a, infinite_ok) for a in args]
        return (
            lambda v: any(check(v) for check, _ in checks),
            " or ".join(text for _, text in checks),
        )
    return _ANY


# Fields that also take ±Infinity: an infinite Rician K is the pure-LOS limit.
_INFINITE_OK = {(EnvironmentProfile, "rician_k_db")}


@functools.cache
def _field_checks(owner: Any) -> dict[str, _Check]:
    """Type checks of the annotated fields (or parameters) of a dataclass (or function)."""
    hints = typing.get_type_hints(owner)
    return {name: _type_check(kind, (owner, name) in _INFINITE_OK) for name, kind in hints.items()}


def _build(data: Any, base: Any, context: str) -> Any:
    """Replace the fields that the JSON object ``data`` names in the dataclass ``base``."""
    _object(data, _field_checks(type(base)), context)
    with _config_errors(f"bad {context}: "):
        return dataclasses.replace(base, **data)


def _is_segments(value: Any) -> bool:
    """Whether a JSON value is a non-empty list of ``[number, number, environment]`` entries."""
    return isinstance(value, list) and bool(value) and all(
        isinstance(s, list) and len(s) == 3 and _is_number(s[0]) and _is_number(s[1]) for s in value
    )


# DeploymentLayout's fields, and the environment that tiles the spans
_LAYOUT_CHECKS = {
    **_field_checks(DeploymentLayout),
    "environment": _type_check(str),
    "segments": (_is_segments, "a non-empty list of [start, end, environment] entries with numeric bounds"),
}


def _build_layout(data: Any, base: DeploymentLayout) -> DeploymentLayout:
    """Replace the fields that ``data`` names in ``base`` and tile its spans.

    Explicit ``segments`` tile the track as given; otherwise ``environment``
    ("mixed" when absent) gives each RRH span one segment.
    """
    fields = dict(_object(data, _LAYOUT_CHECKS, "layout"))
    if "segments" in fields and "environment" in fields:
        raise ConfigError("give layout.segments or layout.environment, not both")
    spacing = fields.get("rrh_spacing_m", base.rrh_spacing_m)
    with _config_errors("bad layout: "):
        if "segments" in fields:
            segments = tuple((float(a), float(b), Environment(env)) for a, b, env in fields["segments"])
            fields["segments"] = segments
            if "spans" not in fields:
                # One segment may cover several RRH spans: size the track by its end.
                end = segments[-1][1]
                fields["spans"] = spans = round(end / spacing)
                if not math.isclose(end, spans * spacing, rel_tol=1e-9, abs_tol=1e-6):
                    raise ConfigError(f"segments end at {end}, not a whole number of {spacing} m RRH spans")
        else:
            spans = fields.get("spans", base.spans)
            fields["segments"] = span_segments(spans, spacing, fields.pop("environment", "mixed"))
        return dataclasses.replace(base, **fields)


def _build_profiles(data: Any, base: Mapping[Environment, EnvironmentProfile]) -> dict:
    profiles, checks = dict(base), dict.fromkeys((env.value for env in Environment), _ANY)
    for name, overrides in _object(data, checks, "profiles", "environment").items():
        env = Environment(name)
        profiles[env] = _build(overrides, profiles[env], f"profiles.{name}")
    return profiles


# JSON key -> (RunConfig field, function (JSON value, current field value) -> new field value)
_SECTIONS: dict[str, tuple[str, Callable[[Any, Any], Any]]] = {
    "layout": ("layout", _build_layout),
    "profiles": ("profiles", _build_profiles),
    **{k: (k, functools.partial(_build, context=k))
       for k in ("kinematics", "budget", "ici", "l1", "l3", "handover")},
    "runs": ("runs", lambda value, base: value),
    "seed": ("master_seed", lambda value, base: value),
}
_SECTION_CHECKS = dict.fromkeys(_SECTIONS, _ANY)


def _overlay(cfg: RunConfig, doc: Any) -> RunConfig:
    """Replace each section that ``doc`` names with one built on ``cfg``'s current value of it."""
    _object(doc, _SECTION_CHECKS, "configuration")
    kwargs = {f: build(doc[k], getattr(cfg, f)) for k, (f, build) in _SECTIONS.items() if k in doc}
    with _config_errors():
        return dataclasses.replace(cfg, **kwargs) if kwargs else cfg


def config_from_dict(doc: Any) -> RunConfig:
    return _overlay(RunConfig(), doc)


def load_config(path: str | Path) -> RunConfig:
    """Load a JSON run configuration, applying defaults for missing keys."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(doc)


def _given(**values: Any) -> dict[str, Any] | None:
    """The keyword arguments that are not None, or None when there are none."""
    return {key: value for key, value in values.items() if value is not None} or None


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
    """Return ``cfg`` with CLI-style overrides applied, each checked as its JSON key is."""
    doc = _given(
        kinematics=_given(speed_kmh=speed_kmh),
        layout=_given(environment=environment),
        # a ttt_ms that is no finite number stays as it is, for the ttt_s check to reject
        handover=_given(hysteresis_db=offset_db, ttt_s=ttt_ms / 1000.0 if _is_number(ttt_ms) else ttt_ms),
        runs=runs,
        seed=seed,
    )
    return _overlay(cfg, doc or {})
