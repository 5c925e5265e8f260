import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from railho.measurement import L1Config, L3Config, l1_filter, l3_filter, measure_cell


def l1_reference(raw, window, stride):
    """Independent windowed-mean reimplementation (linear average, then dB)."""
    sampled = list(raw)[::stride]
    out = []
    for i in range(len(sampled)):
        chunk = sampled[max(0, i - window + 1) : i + 1]
        out.append(10.0 * math.log10(sum(chunk) / len(chunk)))
    return out


def l3_reference(l1, a):
    """Independent unrolled recursion."""
    out = [l1[0]]
    for m in l1[1:]:
        out.append((1.0 - a) * out[-1] + a * m)
    return out


def noiseless() -> L1Config:
    return L1Config(noise_sigma_db=0.0)


class TestL1Config:
    def test_default_window_is_five_samples(self):
        assert L1Config().window_samples == 5

    def test_window_must_sit_on_grid(self):
        with pytest.raises(ValueError):
            L1Config(window_s=0.19)

    def test_defaults(self):
        cfg = L1Config()
        assert cfg.sample_period_s == 0.040
        assert cfg.window_s == 0.200


class TestL1Filter:
    def test_constant_stream(self):
        out = l1_filter(np.full(20, 10.0), noiseless(), stride=1)
        np.testing.assert_allclose(out, 10.0, atol=1e-12)

    def test_two_level_stream(self):
        raw = np.array([1.0] * 5 + [100.0] * 5)
        out = l1_filter(raw, noiseless(), stride=1)
        # window fully inside the high level
        assert out[9] == pytest.approx(20.0, abs=1e-12)
        # window straddling the step: mean of [1,1,1,1,100]
        assert out[5] == pytest.approx(10.0 * math.log10(104.0 / 5.0), abs=1e-12)
        assert out[5] == pytest.approx(13.180633349627616, abs=1e-9)

    def test_stride_picks_every_nth_snapshot(self):
        raw = np.arange(1.0, 13.0)
        out = l1_filter(raw, noiseless(), stride=3)
        expected = l1_reference(raw, window=5, stride=3)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert out.size == 4

    def test_noise_is_clipped(self):
        cfg = L1Config(noise_sigma_db=1.0, noise_cutoff_sigmas=3.0)
        raw = np.full(100_000, 10.0)
        out = l1_filter(raw, cfg, stride=1, normals=np.random.default_rng(0).standard_normal(raw.size))
        dev = np.abs(out - 10.0)
        assert dev.max() <= 3.0 + 1e-12
        # noise actually present
        assert dev.max() > 1.0

    def test_requires_rng_with_noise(self):
        with pytest.raises(ValueError, match="normals required"):
            l1_filter(np.ones(10), L1Config(), stride=1, normals=None)
        with pytest.raises(ValueError, match=r"shape \(9,\) for a series of shape \(5,\)"):
            l1_filter(np.ones(10), L1Config(), stride=2, normals=np.zeros(9))

    def test_noise_normals_are_not_read_without_noise(self):
        raw = np.arange(1.0, 11.0)
        np.testing.assert_array_equal(
            l1_filter(raw, noiseless(), stride=1, normals=np.full(10, np.nan)), l1_filter(raw, noiseless(), stride=1)
        )

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            l1_filter(np.array([]), noiseless(), stride=1)
        with pytest.raises(ValueError):
            l1_filter(np.array([1.0, 0.0]), noiseless(), stride=1)
        with pytest.raises(ValueError, match="must be positive"):
            l1_filter(np.array([1.0, np.nan, 2.0]), noiseless(), stride=1)

    @pytest.mark.parametrize("window, n", [(5, 4), (5, 5), (1, 7), (5, 1), (1, 1), (5, 60)])
    @pytest.mark.parametrize("sigma_db", [0.0, 1.5])
    def test_in_place_window_equals_a_copied_cumsum(self, window, n, sigma_db):
        """The window subtracts the cumulative sums from themselves; numpy buffers the overlap,
        so every value equals the literal form's over a copy, bit for bit; the inputs are not written."""
        rng = np.random.default_rng(window * 100 + n)
        raw = rng.uniform(0.01, 100.0, size=(3, n))
        normals = 2.0 * rng.standard_normal((3, n))  # some beyond the 3-sigma cutoff
        kept = raw.copy(), normals.copy()
        cfg = L1Config(window_s=window * 0.040, noise_sigma_db=sigma_db)
        w = min(cfg.window_samples, n)
        csum = np.cumsum(raw, axis=-1)
        sums = csum.copy()
        sums[..., w:] -= csum[..., : n - w]
        sums /= np.minimum(np.arange(1, n + 1), w)
        want = 10.0 * np.log10(sums)
        if sigma_db > 0.0:
            bound = cfg.noise_cutoff_sigmas * sigma_db
            want = want + np.clip(normals * sigma_db, -bound, bound)
        for rows, noise, expected in ((raw, normals, want), (raw[0], normals[0], want[0])):  # a stack and one cell
            assert l1_filter(rows, cfg, 1, noise).tobytes() == expected.tobytes()
        np.testing.assert_array_equal(raw, kept[0])
        np.testing.assert_array_equal(normals, kept[1])

    @given(
        values=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=60),
        stride=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200)
    def test_matches_reference_reimplementation(self, values, stride):
        out = l1_filter(np.array(values), noiseless(), stride=stride)
        expected = l1_reference(values, window=5, stride=stride)
        np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)


class TestL3Filter:
    def test_passthrough_with_unit_coefficient(self):
        m = np.array([3.0, -1.0, 5.0])
        np.testing.assert_array_equal(l3_filter(m, L3Config(filter_coefficient_a=1.0)), m)

    def test_hand_recursion(self):
        out = l3_filter(np.array([0.0, 10.0, 10.0]), L3Config(filter_coefficient_a=0.5))
        np.testing.assert_allclose(out, [0.0, 5.0, 7.5], atol=1e-12)

    def test_constant_fixed_point(self):
        out = l3_filter(np.full(10, 7.25), L3Config())
        np.testing.assert_allclose(out, 7.25, atol=1e-12)

    def test_geometric_step_response(self):
        a = 0.5
        m = np.concatenate(([0.0], np.ones(20)))
        out = l3_filter(m, L3Config(filter_coefficient_a=a))
        residual = 1.0 - out
        ratios = residual[2:] / residual[1:-1]
        np.testing.assert_allclose(ratios, 1.0 - a, atol=1e-12)

    def test_coefficient_domain(self):
        with pytest.raises(ValueError):
            L3Config(filter_coefficient_a=0.0)
        with pytest.raises(ValueError):
            L3Config(filter_coefficient_a=1.1)

    @given(
        values=st.lists(
            st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=60
        ),
        a=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_matches_unrolled_recursion(self, values, a):
        out = l3_filter(np.array(values), L3Config(filter_coefficient_a=a))
        np.testing.assert_allclose(out, l3_reference(values, a), rtol=0.0, atol=1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=60
        ),
        a=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_output_bounded_by_running_extremes(self, values, a):
        out = l3_filter(np.array(values), L3Config(filter_coefficient_a=a))
        for n, value in enumerate(out):
            assert min(values[: n + 1]) - 1e-9 <= value <= max(values[: n + 1]) + 1e-9


class TestPipeline:
    def test_reduces_to_windowed_average_without_noise_and_smoothing(self):
        raw = np.abs(np.random.default_rng(1).normal(10.0, 3.0, size=200)) + 0.1
        l3 = measure_cell(raw[::2], L1Config(noise_sigma_db=0.0), L3Config(filter_coefficient_a=1.0))
        expected = l1_reference(raw, window=5, stride=2)
        np.testing.assert_allclose(l3, expected, atol=1e-12)

    def test_series_lengths_agree(self):
        raw = np.ones(100)
        normals = np.random.default_rng(2).standard_normal(34)
        l3 = measure_cell(raw[::3], L1Config(), L3Config(), normals)
        l1 = l1_filter(raw, L1Config(), 3, normals)
        assert len(l3) == len(l1) == 34
        np.testing.assert_array_equal(l3, l3_filter(l1, L3Config()))

    def test_stack_of_cells_matches_one_cell_at_a_time(self):
        raw = np.abs(np.random.default_rng(3).normal(10.0, 3.0, size=(3, 120))) + 0.1
        normals = np.random.default_rng(4).standard_normal((3, 120))
        stacked = measure_cell(raw, L1Config(), L3Config(), normals)
        for cell in range(3):
            one = measure_cell(raw[cell], L1Config(), L3Config(), normals[cell])
            np.testing.assert_array_equal(stacked[cell], one)
        with pytest.raises(ValueError, match=r"shape \(2, 120\) for a series of shape \(3, 120\)"):
            measure_cell(raw, L1Config(), L3Config(), normals[:2])
