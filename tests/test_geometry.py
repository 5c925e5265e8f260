import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railho.constants import kmh_to_mps
from railho.geometry import (
    DeploymentLayout,
    Environment,
    RrhSite,
    TrainKinematics,
    default_layout,
    environment_at,
    link_geometry,
    position_at_time,
    sample_stride,
)


def kin(speed_kmh: float, interval: float = 1.0, start: float = 0.0) -> TrainKinematics:
    return TrainKinematics(
        speed_mps=kmh_to_mps(speed_kmh), snapshot_interval_m=interval, start_position_m=start
    )


class TestPositionAtTime:
    def test_zero_time_returns_start(self):
        assert position_at_time(kin(100.0, start=250.0), 0.0) == 250.0

    def test_direct_arithmetic_100kmh(self):
        # 27.7778 m/s for 36 s
        assert position_at_time(kin(100.0), 36.0) == pytest.approx(1000.0, abs=1e-9)

    def test_direct_arithmetic_one_sample_at_500kmh(self):
        assert position_at_time(kin(500.0), 0.040) == pytest.approx(5.5555555556, abs=1e-9)

    def test_clamped_to_track(self):
        assert position_at_time(kin(500.0), 1e6, track_length_m=5196.0) == 5196.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            position_at_time(kin(100.0), -0.1)

    @given(
        t1=st.floats(min_value=0.0, max_value=1e4),
        t2=st.floats(min_value=0.0, max_value=1e4),
        speed=st.floats(min_value=0.1, max_value=200.0),
    )
    def test_monotone_in_time(self, t1, t2, speed):
        k = TrainKinematics(speed_mps=speed)
        lo, hi = sorted((t1, t2))
        assert position_at_time(k, lo) <= position_at_time(k, hi)


class TestLinkGeometry:
    def test_abeam(self):
        site = RrhSite(position_along_track=1000.0)
        dist, bearing = link_geometry(site, 1000.0)
        assert dist == pytest.approx(104.4030650891055, abs=1e-9)
        assert bearing == pytest.approx(math.pi / 2, abs=1e-12)

    def test_mid_span(self):
        site = RrhSite(position_along_track=0.0)
        dist, _ = link_geometry(site, 866.0)
        assert dist == pytest.approx(872.270600215323, abs=1e-9)

    def test_bearing_vanishes_far_ahead(self):
        site = RrhSite(position_along_track=0.0)
        _, bearing = link_geometry(site, 1e7)
        assert bearing < 1e-4

    def test_bearing_folds_behind(self):
        site = RrhSite(position_along_track=1000.0)
        _, bearing = link_geometry(site, 0.0)
        assert math.pi / 2 < bearing <= math.pi

    @given(delta=st.floats(min_value=-1e5, max_value=1e5))
    def test_distance_minimised_abeam(self, delta):
        site = RrhSite(position_along_track=0.0)
        abeam, _ = link_geometry(site, 0.0)
        dist, _ = link_geometry(site, delta)
        assert dist >= abeam


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
        assert sample_stride(kin(speed_kmh)) == expected

    def test_minimum_one(self):
        assert sample_stride(kin(1.0)) == 1

    def test_bad_period(self):
        with pytest.raises(ValueError):
            sample_stride(kin(100.0), 0.0)


class TestLayoutValidation:
    def test_default_mixed_layout(self):
        layout = default_layout()
        assert len(layout.rrhs) == 4
        assert layout.track_length_m == 3 * 1732.0
        assert layout.environment_label == "mixed"
        assert default_layout(environment="urban").environment_label == "urban"

    def test_uneven_spacing_rejected(self):
        rrhs = (RrhSite(0.0), RrhSite(1000.0), RrhSite(2500.0))
        with pytest.raises(ValueError, match="spacing"):
            DeploymentLayout(
                rrhs=rrhs,
                rrh_spacing_m=1000.0,
                track_length_m=2500.0,
                segments=((0.0, 2500.0, Environment.VIADUCT),),
            )

    def test_gap_in_segments_rejected(self):
        rrhs = (RrhSite(0.0), RrhSite(1000.0))
        with pytest.raises(ValueError, match="gap"):
            DeploymentLayout(
                rrhs=rrhs,
                rrh_spacing_m=1000.0,
                track_length_m=1000.0,
                segments=((0.0, 400.0, Environment.VIADUCT), (500.0, 1000.0, Environment.URBAN)),
            )

    def test_environment_change_inside_span_rejected(self):
        rrhs = (RrhSite(0.0), RrhSite(1000.0))
        with pytest.raises(ValueError, match="inside"):
            DeploymentLayout(
                rrhs=rrhs,
                rrh_spacing_m=1000.0,
                track_length_m=1000.0,
                segments=((0.0, 400.0, Environment.VIADUCT), (400.0, 1000.0, Environment.URBAN)),
            )

    def test_invariants_on_sites(self):
        with pytest.raises(ValueError):
            RrhSite(0.0, lateral_offset=0.0)
        with pytest.raises(ValueError):
            RrhSite(0.0, height=-1.0)
        with pytest.raises(ValueError):
            TrainKinematics(speed_mps=0.0)
