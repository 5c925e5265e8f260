import dataclasses
import json

import pytest

from railho.config import ConfigError, RunConfig, apply_overrides, config_from_dict, load_config
from railho.geometry import DeploymentLayout, Environment, default_layout


class TestDefaults:
    def test_default_configuration_is_valid(self):
        cfg = RunConfig()
        assert cfg.runs == 500
        assert cfg.speed_kmh == pytest.approx(100.0)
        assert cfg.environment_label == "mixed"
        assert cfg.budget.noise_dbm() == pytest.approx(-87.0)
        assert cfg.layout.track_length_m == pytest.approx(3 * 1732.0)

    def test_runs_lower_bound(self):
        with pytest.raises(ConfigError):
            RunConfig(runs=0)

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            RunConfig(master_seed=-1)
        with pytest.raises(ConfigError):
            RunConfig(master_seed=2**64)

    def test_sites_within_path_loss_reference_rejected(self):
        close = default_layout(spans=1, lateral_offset_m=0.5, rrh_height_m=0.5)
        with pytest.raises(ConfigError, match="1 m"):
            RunConfig(layout=close)

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
        with pytest.raises(ConfigError, match="unknown l1 keys"):
            config_from_dict({"l1": {"window_msec": 200}})

    def test_speed_given_twice(self):
        with pytest.raises(ConfigError):
            config_from_dict({"kinematics": {"speed_kmh": 100, "speed_mps": 27.0}})

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
        assert len(cfg.layout.rrhs) == 3

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
        # four RRHs under one viaduct segment, beams turned 0.2 rad off the track
        base = default_layout(spans=3)
        rrhs = tuple(dataclasses.replace(s, beam_azimuth_rad=0.2) for s in base.rrhs)
        layout = DeploymentLayout(
            rrhs=rrhs,
            rrh_spacing_m=base.rrh_spacing_m,
            track_length_m=base.track_length_m,
            segments=((0.0, base.track_length_m, Environment.VIADUCT),),
        )
        cfg = apply_overrides(RunConfig(layout=layout), environment="urban")
        assert cfg.layout.rrhs == rrhs
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
        assert mixed.layout.rrhs == rrhs

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
