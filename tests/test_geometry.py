import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railho.geometry import (
    DeploymentLayout,
    Environment,
    TrainKinematics,
    default_layout,
    environment_at,
    link_geometry,
    sample_stride,
)


def kin(speed_kmh: float, interval: float = 1.0, start: float = 0.0) -> TrainKinematics:
    return TrainKinematics(speed_kmh=speed_kmh, snapshot_interval_m=interval, start_position_m=start)


class TestLinkGeometry:
    # RRH 0 sits at 0 m and RRH 1 at 1000 m, 100 m beside the track and 30 m up
    layout = default_layout(spans=1, rrh_spacing_m=1000.0)

    def test_abeam(self):
        dist, bearing = link_geometry(self.layout, 1, 1000.0)
        assert dist == pytest.approx(104.4030650891055, abs=1e-9)
        assert bearing == pytest.approx(math.pi / 2, abs=1e-12)

    def test_mid_span(self):
        dist, _ = link_geometry(self.layout, 0, 866.0)
        assert dist == pytest.approx(872.270600215323, abs=1e-9)

    def test_bearing_vanishes_far_ahead(self):
        _, bearing = link_geometry(self.layout, 0, 1e7)
        assert bearing < 1e-4

    def test_bearing_folds_behind(self):
        _, bearing = link_geometry(self.layout, 1, 0.0)
        assert math.pi / 2 < bearing <= math.pi

    @given(delta=st.floats(min_value=-1e5, max_value=1e5))
    def test_distance_minimised_abeam(self, delta):
        abeam, _ = link_geometry(self.layout, 0, 0.0)
        dist, _ = link_geometry(self.layout, 0, delta)
        assert dist >= abeam

    def test_rrh_at_each_span_boundary(self):
        layout = default_layout(spans=3)
        assert [layout.rrh_position_m(c) for c in range(4)] == [0.0, 1732.0, 3464.0, 5196.0]
        assert layout.rrh_position_m(3) == layout.track_length_m


class TestEnvironmentAt:
    def layout(self):
        return default_layout(environment="mixed", spans=3)

    def test_first_segment(self):
        assert environment_at(self.layout(), 0.0) is Environment.VIADUCT

    def test_boundary_belongs_to_next_segment(self):
        assert environment_at(self.layout(), 1732.0) is Environment.CUTTING

    def test_interval_lookup(self):
        assert environment_at(self.layout(), 5000.0) is Environment.URBAN

    def test_track_end_belongs_to_last_segment(self):
        assert environment_at(self.layout(), 5196.0) is Environment.URBAN

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            environment_at(self.layout(), -1.0)
        with pytest.raises(ValueError):
            environment_at(self.layout(), 5196.1)

    def test_array_matches_scalar_and_linear_scan(self):
        layout = self.layout()
        starts = [start for start, _, _ in layout.segments]
        below = [math.nextafter(start, -math.inf) for start in starts[1:]]
        probes = [*starts, *below, 900.0, layout.track_length_m]

        def scan(x):
            for start, end, env in layout.segments:
                if start <= x < end:
                    return env
            return layout.segments[-1][2]

        got = environment_at(layout, np.array(probes))
        assert list(got) == [environment_at(layout, x) for x in probes]
        assert list(got) == [scan(x) for x in probes]
        with pytest.raises(ValueError):
            environment_at(layout, np.array([0.0, layout.track_length_m + 1.0]))

    @given(
        spans=st.integers(min_value=1, max_value=6),
        data=st.data(),
    )
    @settings(max_examples=60)
    def test_total_and_consistent_over_random_tilings(self, spans, data):
        layout = default_layout(environment="mixed", spans=spans, rrh_spacing_m=500.0)
        pos = data.draw(st.floats(min_value=0.0, max_value=layout.track_length_m))
        env = environment_at(layout, pos)
        matches = [
            (start, end, seg_env)
            for start, end, seg_env in layout.segments
            if start <= pos < end or (pos == layout.track_length_m and end == pos)
        ]
        assert len(matches) == 1
        assert matches[0][2] is env


class TestSampleStride:
    @pytest.mark.parametrize("speed_kmh,expected", [(100.0, 1), (300.0, 3), (500.0, 5)])
    def test_paper_matching_strides(self, speed_kmh, expected):
        assert sample_stride(kin(speed_kmh), 0.040) == expected

    def test_minimum_one(self):
        assert sample_stride(kin(1.0), 0.040) == 1

    def test_bad_period(self):
        with pytest.raises(ValueError):
            sample_stride(kin(100.0), 0.0)


class TestLayoutValidation:
    def test_default_mixed_layout(self):
        layout = default_layout()
        assert layout.spans == 3
        assert layout.track_length_m == 3 * 1732.0
        assert layout.environment_label == "mixed"
        assert default_layout(environment="urban").environment_label == "urban"

    def test_gap_in_segments_rejected(self):
        with pytest.raises(ValueError, match="gap"):
            DeploymentLayout(
                spans=1,
                rrh_spacing_m=1000.0,
                segments=((0.0, 400.0, Environment.VIADUCT), (500.0, 1000.0, Environment.URBAN)),
            )

    def test_environment_change_inside_span_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            DeploymentLayout(
                spans=1,
                rrh_spacing_m=1000.0,
                segments=((0.0, 400.0, Environment.VIADUCT), (400.0, 1000.0, Environment.URBAN)),
            )

    def test_environment_change_within_tolerance_of_an_rrh_accepted(self):
        boundary = 1000.0 + 5e-7
        layout = DeploymentLayout(
            spans=2,
            rrh_spacing_m=1000.0,
            segments=((0.0, boundary, Environment.VIADUCT), (boundary, 2000.0, Environment.URBAN)),
        )
        assert layout.environment_label == "mixed"

    def test_invariants_on_sites(self):
        for field in ("spans", "rrh_spacing_m", "lateral_offset_m", "rrh_height_m", "beamwidth_3db_deg"):
            with pytest.raises(ValueError, match=field):
                default_layout(**{field: 0})
        with pytest.raises(ValueError):
            default_layout(rrh_height_m=-1.0)
        with pytest.raises(ValueError, match="beamwidth_3db_deg 1e-320 is below 1.275e-306"):
            default_layout(beamwidth_3db_deg=1e-320)
        with pytest.raises(ValueError):
            TrainKinematics(speed_kmh=0.0)
