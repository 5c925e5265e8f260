import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from railho.constants import kmh_to_mps
from railho.ici import (
    IciParams,
    doppler_spread_hz,
    ici_power_lower,
    ici_power_upper,
    rss_with_ici,
    snr_linear_from_dbm,
    throughput_bps,
)

FC = 3.5e9


class TestDopplerSpread:
    def test_stationary(self):
        assert doppler_spread_hz(0.0, FC) == 0.0

    def test_100_kmh(self):
        assert doppler_spread_hz(kmh_to_mps(100.0), FC) == pytest.approx(
            324.0740740740741, rel=1e-12
        )

    def test_500_kmh(self):
        assert doppler_spread_hz(kmh_to_mps(500.0), FC) == pytest.approx(
            1620.3703703703702, rel=1e-12
        )

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            doppler_spread_hz(-1.0, FC)

    @given(
        v=st.floats(min_value=0.0, max_value=500.0),
        scale=st.floats(min_value=0.5, max_value=4.0),
    )
    def test_linear_in_speed_and_frequency(self, v, scale):
        base = doppler_spread_hz(v, FC)
        assert doppler_spread_hz(scale * v, FC) == pytest.approx(scale * base, rel=1e-12)
        assert doppler_spread_hz(v, scale * FC) == pytest.approx(scale * base, rel=1e-12)


class TestIciBounds:
    def test_defaults_match_parameter_table(self):
        p = IciParams()
        assert p.alpha1 == 0.5
        assert p.alpha2 == 0.375
        assert p.symbol_duration_s == 1e-3
        assert p.carrier_frequency_hz == 3.5e9

    def test_upper_zero_doppler(self):
        assert ici_power_upper(0.0) == 0.0

    def test_upper_at_100_kmh(self):
        fd = 324.0740740740741
        assert ici_power_upper(fd) == pytest.approx(0.17275756446236945, rel=1e-12)

    def test_upper_at_500_kmh(self):
        fd = 1620.3703703703702
        assert ici_power_upper(fd) == pytest.approx(4.318939111559236, rel=1e-12)

    def test_lower_at_100_kmh(self):
        fd = 324.0740740740741
        assert ici_power_lower(fd) == pytest.approx(0.1548504588149876, rel=1e-12)

    def test_lower_floored_at_zero(self):
        # at 500 km/h the quartic correction exceeds the quadratic term
        assert ici_power_lower(1620.3703703703702) == 0.0

    def test_upper_scales_quadratically_exactly(self):
        for fd in (100.0, 324.0740740740741, 777.5):
            assert ici_power_upper(2.0 * fd) == 4.0 * ici_power_upper(fd)

    @given(fd=st.floats(min_value=0.0, max_value=4000.0))
    def test_lower_never_exceeds_upper(self, fd):
        assert ici_power_lower(fd) <= ici_power_upper(fd)


class TestRssWithIci:
    def test_no_ici_reduces_to_snr(self):
        assert rss_with_ici(10.0, 0.0) == pytest.approx(10.0, abs=1e-12)

    def test_degraded_value(self):
        # 10 log10(10 / 2.7275756...)
        assert rss_with_ici(10.0, 0.17275756446236945) == pytest.approx(
            5.6422319616139704, abs=1e-9
        )

    def test_strong_link_ceiling(self):
        p = 0.17275756446236945
        ceiling = 10.0 * math.log10(1.0 / p)
        assert rss_with_ici(1e14, p) == pytest.approx(ceiling, abs=1e-6)
        assert ceiling == pytest.approx(7.625629272687241, abs=1e-9)

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            rss_with_ici(0.0, 0.1)
        with pytest.raises(ValueError):
            rss_with_ici(10.0, -0.1)

    def test_accepts_arrays(self):
        out = rss_with_ici(np.array([1.0, 10.0]), 0.0)
        assert np.allclose(out, [0.0, 10.0])

    @given(pr=st.floats(min_value=1e-6, max_value=1e6), p=st.floats(min_value=1e-9, max_value=100.0))
    def test_ici_strictly_degrades(self, pr, p):
        assert rss_with_ici(pr, p) < 10.0 * math.log10(pr)

    @given(
        pr=st.floats(min_value=1e-3, max_value=1e3),
        p1=st.floats(min_value=0.0, max_value=10.0),
        p2=st.floats(min_value=0.0, max_value=10.0),
        scale=st.floats(min_value=1.001, max_value=100.0),
    )
    def test_monotone_in_both_arguments(self, pr, p1, p2, scale):
        lo, hi = sorted((p1, p2))
        assert rss_with_ici(pr, hi) <= rss_with_ici(pr, lo)
        assert rss_with_ici(pr * scale, p1) > rss_with_ici(pr, p1)


class TestSnrAndThroughput:
    def test_unit_snr(self):
        assert snr_linear_from_dbm(-87.0, -87.0) == 1.0

    def test_positive_margin(self):
        assert snr_linear_from_dbm(-63.3, -87.0) == pytest.approx(10.0**2.37, rel=1e-12)

    def test_gate_level(self):
        assert snr_linear_from_dbm(-97.0, -87.0) == pytest.approx(0.1, rel=1e-12)

    def test_throughput_log2_identity(self):
        assert throughput_bps(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_throughput_100mhz(self):
        assert throughput_bps(10.0, 100e6) == pytest.approx(345943161.8637297, rel=1e-12)

    def test_throughput_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            throughput_bps(10.0, 0.0)
