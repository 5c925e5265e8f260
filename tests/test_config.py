import dataclasses
import json
import math
import time
from collections.abc import Mapping
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railho.channel import EnvironmentProfile, LinkBudget
from railho.config import ConfigError, RunConfig, apply_overrides, config_from_dict, load_config
from railho.geometry import DeploymentLayout, Environment, TrainKinematics, default_layout, span_segments
from railho.handover import HandoverConfig
from railho.ici import IciParams
from railho.measurement import L1Config, L3Config


class TestDefaults:
    def test_default_configuration_is_valid(self):
        cfg = RunConfig()
        assert cfg.runs == 500
        assert cfg.speed_kmh == pytest.approx(100.0)
        assert cfg.environment_label == "mixed"
        assert cfg.budget.noise_dbm() == pytest.approx(-87.0)
        assert cfg.layout.track_length_m == pytest.approx(3 * 1732.0)

    def test_config_reports_back_the_values_it_was_given(self):
        assert RunConfig().speed_kmh == 100.0
        assert RunConfig().layout.beamwidth_3db_deg == 30.0
        for speed in (7.5, 15.0, 123.4):
            assert apply_overrides(RunConfig(), speed_kmh=speed).speed_kmh == speed
        assert config_from_dict({"layout": {"beamwidth_3db_deg": 12.5}}).layout.beamwidth_3db_deg == 12.5

    def test_runs_lower_bound(self):
        for runs in (0, 2.5, True):
            with pytest.raises(ConfigError, match="runs"):
                RunConfig(runs=runs)

    def test_runs_upper_bound(self):
        # a run index is one 32-bit word of its streams' seed
        assert RunConfig(runs=2**32).runs == 2**32
        with pytest.raises(ConfigError, match="runs"):
            RunConfig(runs=2**32 + 1)

    def test_seed_range(self):
        for seed in (-1, 2**64, 1.5):
            with pytest.raises(ConfigError, match="seed"):
                RunConfig(master_seed=seed)

    def test_sites_within_path_loss_reference_rejected(self):
        close = default_layout(spans=1, lateral_offset_m=0.5, rrh_height_m=0.5)
        with pytest.raises(ConfigError, match="1 m"):
            RunConfig(layout=close)

    @pytest.mark.parametrize("start_m", [6000.0, 5196.5])
    def test_start_beyond_track_end_rejected(self, start_m):
        doc = {"kinematics": {"speed_kmh": 100, "start_position_m": start_m}}
        with pytest.raises(ConfigError, match="start_position_m"):
            config_from_dict(doc)

    def test_start_at_track_end_runs_one_snapshot(self):
        from railho.simulate import precompute_tables, simulate_run

        cfg = config_from_dict({"kinematics": {"speed_kmh": 100, "start_position_m": 5196}, "runs": 1})
        assert precompute_tables(cfg).tick_snapshots.tolist() == [0]
        [record] = simulate_run(cfg, 0).records
        assert record.outcome.value == "NotTriggered"

    def test_ttt_must_sit_on_sample_grid(self):
        from railho.handover import HandoverConfig

        with pytest.raises(ConfigError):
            RunConfig(handover=HandoverConfig(ttt_s=0.050))


class TestJsonLoading:
    def test_full_document(self, tmp_path):
        doc = {
            "layout": {"environment": "urban", "spans": 2, "rrh_spacing_m": 500.0},
            "kinematics": {"speed_kmh": 300.0},
            "profiles": {"urban": {"pathloss_exponent": 3.2}},
            "budget": {"rrh_tx_power_dbm": 33.0},
            "ici": {"alpha1": 0.25},
            "l1": {"noise_sigma_db": 0.5},
            "l3": {"filter_coefficient_a": 0.25},
            "handover": {"hysteresis_db": 4.0, "ttt_s": 0.080},
            "runs": 12,
            "seed": 7,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.environment_label == "urban"
        assert cfg.layout.track_length_m == 1000.0
        assert cfg.speed_kmh == pytest.approx(300.0)
        assert cfg.profiles[Environment.URBAN].pathloss_exponent == 3.2
        assert cfg.budget.rrh_tx_power_dbm == 33.0
        assert cfg.ici.alpha1 == 0.25
        assert cfg.l1.noise_sigma_db == 0.5
        assert cfg.l3.filter_coefficient_a == 0.25
        assert cfg.handover.hysteresis_db == 4.0
        assert cfg.runs == 12
        assert cfg.master_seed == 7

    def test_empty_document_gives_defaults(self):
        assert config_from_dict({}) == RunConfig()

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            config_from_dict({"speeed": 100})

    def test_unknown_nested_key(self):
        for section, key, value in (
            ("l1", "window_msec", 200), ("budget", "noise_power_dbm", -90), ("ici", "alpha2", 0.375),
            ("kinematics", "speed_mps", 27.0),
        ):
            with pytest.raises(ConfigError, match=f"unknown {section} keys"):
                config_from_dict({section: {key: value}})

    def test_values_checked_against_field_types(self):
        for doc, message in (
            ({"handover": {"hysteresis_db": True}}, "hysteresis_db must be a number"),
            ({"l1": {"window_s": "0.2"}}, "window_s must be a number"),
            ({"profiles": {"cutting": {"los_mode": "sometimes"}}}, "los_mode must be one of"),
            ({"profiles": {"urban": {"rician_k_db": [1]}}}, "rician_k_db must be a number or null"),
            ({"layout": {"spans": 2.5}}, "spans must be an integer"),
            ({"kinematics": {"speed_kmh": False}}, "speed_kmh must be a number"),
        ):
            with pytest.raises(ConfigError, match=message):
                config_from_dict(doc)

    def test_typed_values_keep_their_meaning(self):
        cfg = config_from_dict(
            {
                "handover": {"hysteresis_db": 3},
                "profiles": {"viaduct": {"rician_k_db": None}, "cutting": {"rician_k_db": math.inf}},
                "layout": {"spans": 2, "max_gain_db": 12},
            }
        )
        assert cfg.handover.hysteresis_db == 3.0
        assert cfg.profiles[Environment.VIADUCT].rician_k_db is None
        assert cfg.profiles[Environment.CUTTING].rician_k_linear() == math.inf
        assert cfg.layout.spans == 2 and cfg.layout.max_gain_db == 12.0

    @pytest.mark.parametrize(
        "text",
        [
            '{"kinematics": {"speed_kmh": Infinity}}',
            '{"kinematics": {"speed_kmh": NaN}}',
            '{"handover": {"preparation_delay_s": NaN}}',
            '{"handover": {"snr_gate_db": NaN}}',
            '{"budget": {"rrh_tx_power_dbm": NaN}}',
        ],
    )
    def test_nan_values_and_infinite_speed_rejected(self, text):
        with pytest.raises(ConfigError):
            config_from_dict(json.loads(text))

    def test_infinite_rician_k_still_loads(self):
        cfg = config_from_dict(json.loads('{"profiles": {"viaduct": {"rician_k_db": Infinity}}}'))
        assert cfg.profiles[Environment.VIADUCT].rician_k_linear() == math.inf
        cfg = config_from_dict(json.loads('{"profiles": {"viaduct": {"rician_k_db": -Infinity}}}'))
        assert cfg.profiles[Environment.VIADUCT].rician_k_db == -math.inf

    @pytest.mark.parametrize(
        "text",
        [
            '{"budget": {"rrh_tx_power_dbm": Infinity}}',
            '{"handover": {"preparation_delay_s": Infinity}}',
            '{"handover": {"snr_gate_db": -Infinity}}',
            '{"layout": {"pattern_floor_db": Infinity}}',
            '{"l1": {"noise_sigma_db": Infinity}}',
            '{"layout": {"segments": [[0, Infinity, "urban"]]}}',
            '{"profiles": {"urban": {"rician_k_db": NaN}}}',
            '{"handover": {"hysteresis_db": 1%s}}' % ("0" * 400),
            '{"profiles": {"urban": {"rician_k_db": 1%s}}}' % ("0" * 400),
        ],
        ids=[
            "tx_power_inf", "prep_delay_inf", "snr_gate_minus_inf", "pattern_floor_inf", "l1_noise_inf",
            "segment_bound_inf", "rician_k_nan", "huge_int", "rician_k_huge_int",
        ],
    )
    def test_non_finite_and_huge_numbers_rejected(self, text):
        with pytest.raises(ConfigError, match="must be a"):
            config_from_dict(json.loads(text))

    def test_kinematics_without_speed_keeps_default_speed(self):
        cfg = config_from_dict({"kinematics": {"snapshot_interval_m": 0.25}})
        assert cfg.speed_kmh == pytest.approx(100.0)
        assert cfg.kinematics.snapshot_interval_m == 0.25
        assert apply_overrides(cfg, speed_kmh=500.0).kinematics.snapshot_interval_m == 0.25

    def test_segments_and_environment_conflict(self):
        with pytest.raises(ConfigError):
            config_from_dict(
                {"layout": {"environment": "urban", "segments": [[0, 100, "urban"]]}}
            )

    def test_explicit_segments(self):
        cfg = config_from_dict(
            {
                "layout": {
                    "rrh_spacing_m": 100.0,
                    "segments": [[0, 100, "viaduct"], [100, 200, "viaduct"]],
                }
            }
        )
        assert cfg.environment_label == "viaduct"
        assert cfg.layout.spans == 2

    def test_one_segment_over_several_spans(self):
        cfg = config_from_dict({"layout": {"segments": [[0, 3464, "viaduct"]]}})
        assert cfg.layout.spans == 2
        assert cfg.layout.track_length_m == 3464.0
        assert cfg.layout.segments == ((0.0, 3464.0, Environment.VIADUCT),)

    def test_explicit_spans_size_the_segment_layout(self):
        cfg = config_from_dict(
            {"layout": {"rrh_spacing_m": 100.0, "spans": 2, "segments": [[0, 200, "urban"]]}}
        )
        assert cfg.layout.spans == 2
        with pytest.raises(ConfigError, match="track length"):
            config_from_dict(
                {"layout": {"rrh_spacing_m": 100.0, "spans": 3, "segments": [[0, 200, "urban"]]}}
            )

    def test_segments_off_the_span_grid_rejected(self):
        with pytest.raises(ConfigError, match="whole number"):
            config_from_dict({"layout": {"segments": [[0, 3000, "viaduct"]]}})
        with pytest.raises(ConfigError, match="empty"):
            config_from_dict({"layout": {"segments": []}})

    @pytest.mark.parametrize(
        "segments",
        [
            [[0, "1732", "cutting"], ["1732", 3464, "urban"]],
            [[0, 1732, "urban", 5]],
            [[0, 1732]],
            [[False, 1732, "urban"]],
            [0, 1732, "urban"],
            "0 1732 urban",
        ],
        ids=["string_bounds", "four_items", "two_items", "bool_bound", "flat", "string"],
    )
    def test_segment_entries_must_be_number_number_environment(self, segments):
        with pytest.raises(ConfigError, match=r"\[start, end, environment\]"):
            config_from_dict({"layout": {"segments": segments}})

    def test_each_layout_key_sets_the_field_of_its_name(self):
        fields = {f.name for f in dataclasses.fields(DeploymentLayout)} - {"segments"}
        # distinct values that keep the RRHs 1 m or more from the track
        for value, key in enumerate(sorted(fields), start=2):
            assert getattr(config_from_dict({"layout": {key: value}}).layout, key) == value
        assert config_from_dict({"layout": {"environment": "urban"}}).environment_label == "urban"
        cfg = config_from_dict({"layout": {"segments": [[0, 3464, "viaduct"], [3464, 5196, "urban"]]}})
        assert cfg.layout.segments == ((0.0, 3464.0, Environment.VIADUCT), (3464.0, 5196.0, Environment.URBAN))
        with pytest.raises(ConfigError, match="unknown layout keys"):
            config_from_dict({"layout": {"beamwidth_3db_rad": 0.5}})

    def test_many_spans_build_in_linear_time(self):
        start = time.perf_counter()
        cfg = config_from_dict({"layout": {"spans": 20000}})
        assert time.perf_counter() - start < 2.0
        assert len(cfg.layout.segments) == 20000

    @pytest.mark.parametrize(
        "layout",
        [
            {"rrh_spacing_m": 0, "segments": [[0, 100, "urban"]]},
            {"rrh_spacing_m": 1e-300, "segments": [[0, 1e10, "urban"]]},
        ],
        ids=["zero_spacing", "overflowing_span_count"],
    )
    def test_segments_on_degenerate_spacing_rejected(self, layout):
        with pytest.raises(ConfigError, match="bad layout"):
            config_from_dict({"layout": layout})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_unknown_environment_in_profiles(self):
        with pytest.raises(ConfigError, match="unknown environment"):
            config_from_dict({"profiles": {"tunnel": {}}})


class TestOverrides:
    def test_override_all_knobs(self):
        cfg = apply_overrides(
            RunConfig(),
            speed_kmh=500.0,
            environment="cutting",
            offset_db=6.0,
            ttt_ms=80,
            runs=9,
            seed=77,
        )
        assert cfg.speed_kmh == pytest.approx(500.0)
        assert cfg.environment_label == "cutting"
        assert cfg.handover.hysteresis_db == 6.0
        assert cfg.handover.ttt_s == pytest.approx(0.080)
        assert cfg.runs == 9
        assert cfg.master_seed == 77

    def test_environment_override_preserves_geometry(self):
        base = config_from_dict({"layout": {"spans": 2, "rrh_spacing_m": 800.0}})
        cfg = apply_overrides(base, environment="urban")
        assert cfg.layout.rrh_spacing_m == 800.0
        assert len(cfg.layout.segments) == 2
        assert cfg.environment_label == "urban"

    def test_environment_override_keeps_sites_and_track(self):
        # four RRHs under one viaduct segment, with a 17 dB peak gain
        layout = DeploymentLayout(
            spans=3, max_gain_db=17.0, segments=((0.0, 5196.0, Environment.VIADUCT),)
        )
        cfg = apply_overrides(RunConfig(layout=layout), environment="urban")
        assert cfg.layout.max_gain_db == 17.0
        assert (cfg.layout.rrh_spacing_m, cfg.layout.spans) == (1732.0, 3)
        assert cfg.layout.track_length_m == 5196.0
        assert cfg.layout.segments == (
            (0.0, 1732.0, Environment.URBAN),
            (1732.0, 3464.0, Environment.URBAN),
            (3464.0, 5196.0, Environment.URBAN),
        )
        mixed = apply_overrides(RunConfig(layout=layout), environment="mixed")
        assert [env for _, _, env in mixed.layout.segments] == [
            Environment.VIADUCT, Environment.CUTTING, Environment.URBAN,
        ]
        assert dataclasses.replace(mixed.layout, segments=layout.segments) == layout

    def test_environment_override_of_default_layout_equals_fresh_layout(self):
        for env in ("viaduct", "cutting", "urban", "mixed"):
            assert apply_overrides(RunConfig(), environment=env).layout == default_layout(env)

    def test_no_overrides_returns_same_config(self):
        cfg = RunConfig()
        assert apply_overrides(cfg) is cfg

    def test_bad_ttt_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), ttt_ms=50)

    def test_bad_speed_override(self):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), speed_kmh=-5.0)

    @pytest.mark.parametrize(
        "overrides",
        [{"speed_kmh": math.nan}, {"speed_kmh": math.inf}, {"offset_db": math.nan}],
        ids=["speed_nan", "speed_inf", "offset_nan"],
    )
    def test_non_finite_override_rejected(self, overrides):
        with pytest.raises(ConfigError):
            apply_overrides(RunConfig(), **overrides)


def _replace_overrides(cfg, *, speed_kmh=None, environment=None, offset_db=None, ttt_ms=None, runs=None, seed=None):
    """Reference: each override applied to its field with ``dataclasses.replace``."""
    kwargs = {}
    handover = {}
    if speed_kmh is not None:
        kwargs["kinematics"] = dataclasses.replace(cfg.kinematics, speed_kmh=speed_kmh)
    if environment is not None:
        layout = cfg.layout
        kwargs["layout"] = dataclasses.replace(
            layout, segments=span_segments(layout.spans, layout.rrh_spacing_m, environment)
        )
    if offset_db is not None:
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


_SEGMENT_LAYOUT = {"layout": {"segments": [[0, 3464, "viaduct"], [3464, 5196, "urban"]]}}


_OVERRIDES = dict(
    speed_kmh=st.none() | st.floats(min_value=1e-3, max_value=1e300),
    environment=st.none() | st.sampled_from(["viaduct", "cutting", "urban", "mixed"]),
    offset_db=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    ttt_ms=st.none() | st.integers(min_value=1, max_value=64).map(lambda k: 40 * k),
    runs=st.none() | st.integers(min_value=1, max_value=10**6),
    seed=st.none() | st.integers(min_value=0, max_value=2**64 - 1),
)


@given(base_doc=st.sampled_from([{}, _SEGMENT_LAYOUT]), **_OVERRIDES)
@settings(max_examples=200, deadline=None)
def test_overrides_match_field_replacement(base_doc, **overrides):
    base = config_from_dict(base_doc)
    assert apply_overrides(base, **overrides) == _replace_overrides(base, **overrides)


def _dump(value):
    """A configuration value as JSON: dataclasses field by field, enums as values, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _dump(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_dump(v) for v in value]
    if isinstance(value, Mapping):
        return {_dump(k): _dump(v) for k, v in value.items()}
    return value


@given(
    base_doc=st.sampled_from([{}, _SEGMENT_LAYOUT, {"profiles": {"viaduct": {"rician_k_db": math.inf}}}]),
    **_OVERRIDES,
)
@settings(max_examples=200, deadline=None)
def test_field_dump_loads_back_equal(base_doc, **overrides):
    cfg = apply_overrides(config_from_dict(base_doc), **overrides)
    doc = _dump(cfg)
    doc["seed"] = doc.pop("master_seed")
    assert config_from_dict(json.loads(json.dumps(doc))) == cfg


# Each section of a configuration document and the dataclass whose fields are its keys
_SECTIONS = {
    "layout": DeploymentLayout, "kinematics": TrainKinematics, "budget": LinkBudget, "ici": IciParams,
    "l1": L1Config, "l3": L3Config, "handover": HandoverConfig, "profiles.urban": EnvironmentProfile,
    "": RunConfig,  # the top level
}
# The keys that name no field: the environment that tiles the layout's spans, and the top-level
# "seed", which sets master_seed
_SHORTHANDS = {"layout": {"environment"}, "": {"seed"}}
_OTHER_UNITS = {
    "kmh": "mps", "mps": "kmh", "deg": "rad", "rad": "deg", "s": "ms", "ms": "s", "m": "km", "db": "linear",
    "dbm": "mw", "hz": "ghz",
}


def _respelled(name: str) -> str:
    """``name`` with its unit suffix swapped for another unit of the same quantity."""
    stem, _, unit = name.rpartition("_")
    return f"{stem}_{_OTHER_UNITS[unit]}" if stem and unit in _OTHER_UNITS else name


def _accepts(section: str, key: str) -> bool:
    """Whether ``section`` of a configuration document knows ``key``: a bad value is all it may reject."""
    doc = {key: 1}
    for name in reversed(section.split(".") if section else []):
        doc = {name: doc}
    try:
        config_from_dict(doc)
    except ConfigError as exc:
        return "unknown" not in str(exc)
    return True


def test_the_keys_of_each_section_are_its_fields():
    fields = {section: {f.name for f in dataclasses.fields(cls)} for section, cls in _SECTIONS.items()}
    names = set().union(*fields.values(), *_SHORTHANDS.values())
    candidates = names | {_respelled(name) for name in names}
    for section in _SECTIONS:
        expected = fields[section] | _SHORTHANDS.get(section, set())
        if section == "":
            expected -= {"master_seed"}
        assert {key for key in candidates if _accepts(section, key)} == expected, section
