import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.special import j0

from railho.ici import (
    IciParams,
    doppler_spread_hz,
    ici_power,
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
        assert doppler_spread_hz(100.0 / 3.6, FC) == pytest.approx(
            324.0740740740741, rel=1e-12
        )

    def test_500_kmh(self):
        assert doppler_spread_hz(500.0 / 3.6, FC) == pytest.approx(
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
        # the lower bound's 0.375 is fixed, not a parameter (see test_lower_at_100_kmh)
        assert dataclasses.asdict(IciParams()) == {
            "alpha1": 0.5, "symbol_duration_s": 1e-3, "carrier_frequency_hz": 3.5e9,
        }

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

    def test_ici_power_is_the_upper_bound_at_the_doppler_spread(self):
        params = IciParams(alpha1=0.3, carrier_frequency_hz=2.6e9)
        for speed_kmh in (0.0, 50.0, 100.0, 500.0):
            v = speed_kmh / 3.6
            assert ici_power(v, params) == ici_power_upper(doppler_spread_hz(v, 2.6e9), params)

    @given(fd=st.floats(min_value=0.0, max_value=4000.0))
    def test_lower_never_exceeds_upper(self, fd):
        assert ici_power_lower(fd) <= ici_power_upper(fd)


def exact_ici_share(x, n=64):
    """ICI share of an n-subcarrier OFDM symbol under Jakes Doppler, ``x = 2 pi fd Ts``.

    One minus the power of the symbol's mean channel gain, whose lag-k
    autocorrelation is ``J0(x k / n)``.
    """
    lags = np.arange(1, n)
    return 1.0 - (n + 2.0 * np.sum((n - lags) * j0(x * lags / n))) / n**2


def monte_carlo_ici_share(x, rng, n=64, symbols=2000, paths=32):
    """ICI share measured at an OFDM receiver, with its standard error.

    QPSK on ``n`` subcarriers passes a flat Jakes sum-of-sinusoids channel
    with unit mean power, sampled ``n`` times per symbol; each symbol draws
    fresh arrival angles and phases, so the channel's autocorrelation is
    ``J0`` in expectation. The receiver takes out the symbol's mean gain;
    what is left on the subcarriers is the ICI.
    """
    t = np.arange(n) / n  # sample times, in symbol durations
    h = np.zeros((symbols, n), dtype=complex)
    for _ in range(paths):
        doppler = x * np.cos(rng.uniform(0.0, 2.0 * np.pi, (symbols, 1)))
        h += np.exp(1j * (doppler * t + rng.uniform(0.0, 2.0 * np.pi, (symbols, 1))))
    h /= math.sqrt(paths)
    qpsk = (rng.choice([-1.0, 1.0], (symbols, n)) + 1j * rng.choice([-1.0, 1.0], (symbols, n))) / math.sqrt(2.0)
    received = np.fft.fft(h * np.fft.ifft(qpsk, axis=1), axis=1)
    ici = np.mean(np.abs(received - h.mean(axis=1, keepdims=True) * qpsk) ** 2, axis=1)
    return ici.mean(), ici.std(ddof=1) / math.sqrt(symbols)


class TestIciBoundRange:
    """How far the Taylor upper bound ``(alpha1 / 12) x^2`` tracks the exact 64-subcarrier ICI share."""

    @pytest.mark.parametrize("speed_kmh", [50.0, 100.0, 300.0, 500.0])  # fd Ts = 0.162, 0.324, 0.972, 1.62
    def test_exact_share_matches_ofdm_monte_carlo(self, speed_kmh):
        x = 2.0 * math.pi * doppler_spread_hz(speed_kmh / 3.6, FC) * IciParams().symbol_duration_s
        share, se = monte_carlo_ici_share(x, np.random.default_rng(round(speed_kmh)))
        exact = exact_ici_share(x)
        assert se < 0.03 * exact
        assert abs(share - exact) <= 4.0 * se, (share, exact, se)

    def test_upper_bound_within_3_percent_above_exact_up_to_x_1(self):
        ts = IciParams().symbol_duration_s
        for x in np.linspace(0.01, 1.0, 100):
            exact = exact_ici_share(x)
            assert exact <= ici_power_upper(x / (2.0 * math.pi * ts)) <= 1.03 * exact, x

    @pytest.mark.parametrize("speed_kmh, exact", [(300.0, 0.68), (500.0, 0.80)])
    def test_upper_bound_is_no_share_at_high_speed(self, speed_kmh, exact):
        fd = doppler_spread_hz(speed_kmh / 3.6, FC)
        assert exact_ici_share(2.0 * math.pi * fd * IciParams().symbol_duration_s) == pytest.approx(exact, abs=0.005)
        assert ici_power_upper(fd) >= 1.0


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
        with pytest.raises(ValueError, match="pr_linear"):
            rss_with_ici(np.nan, 0.1)
        with pytest.raises(ValueError, match="p_ici"):
            rss_with_ici(10.0, np.array([0.1, np.nan]))

    def test_accepts_arrays(self):
        out = rss_with_ici(np.array([1.0, 10.0]), 0.0)
        assert np.allclose(out, [0.0, 10.0])

    @given(pr=st.floats(min_value=1e-6, max_value=1e6), p=st.floats(min_value=1e-9, max_value=100.0))
    @example(pr=1.0000000000000002e-06, p=1e-09)
    def test_ici_strictly_degrades(self, pr, p):
        # The ICI loss 10 log10(1 + pr p) can be below half an ulp of the SNR (4e-15 dB
        # against -60 dB here), so strict loss is asserted only when pr p is not negligible.
        assert rss_with_ici(pr, p) <= 10.0 * math.log10(pr)
        if pr * p >= 1e-12:
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
