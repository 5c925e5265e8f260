import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.signal import lfilter

from railho.channel import (
    EnvironmentProfile,
    FadingState,
    LinkBudget,
    antenna_gain_db,
    default_profiles,
    path_loss_db,
    rician_coefficients,
    shadowing_db,
    shadowing_segments,
    shadowing_series_db,
    small_scale_series,
)
from railho.config import RunConfig, config_from_dict
from railho.geometry import Environment, default_layout, environment_at, link_geometry
from railho.handover import HandoverFsm
from railho.ici import IciParams
from railho.simulate import (
    _downlink_pr_ticks,
    _draw_plan,
    _stream_keys,
    _stream_states,
    _views,
    precompute_tables,
    simulate_run,
)


def profile(**overrides) -> EnvironmentProfile:
    base = dict(
        pathloss_exponent=2.2,
        pathloss_intercept_db=43.3,
        rician_k_db=10.0,
        los_mode="always",
    )
    base.update(overrides)
    return EnvironmentProfile(**base)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestPathLoss:
    def test_viaduct_100m(self):
        assert path_loss_db(profile(), 100.0) == pytest.approx(87.3, abs=1e-9)

    def test_reference_distance_returns_intercept(self):
        assert path_loss_db(profile(), 1.0) == pytest.approx(43.3, abs=1e-12)

    def test_urban_1km(self):
        urban = profile(pathloss_exponent=3.5, los_mode="never", rician_k_db=None)
        assert path_loss_db(urban, 1000.0) == pytest.approx(148.3, abs=1e-9)

    def test_below_reference_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(profile(), 0.5)

    def test_array_below_reference_rejected(self):
        with pytest.raises(ValueError):
            path_loss_db(profile(), np.array([5.0, 0.5, 100.0]))
        np.testing.assert_allclose(
            path_loss_db(profile(), np.array([1.0, 100.0])), [43.3, 87.3], rtol=0.0, atol=1e-9
        )

    def test_los_exponent_selected(self):
        p = profile(pathloss_exponent=2.8, pathloss_exponent_los=2.3)
        assert path_loss_db(p, 100.0, los=True) == pytest.approx(43.3 + 46.0, abs=1e-9)
        assert path_loss_db(p, 100.0, los=False) == pytest.approx(43.3 + 56.0, abs=1e-9)

    @given(
        d1=st.floats(min_value=1.0, max_value=1e5),
        d2=st.floats(min_value=1.0, max_value=1e5),
    )
    @example(d1=1.0, d2=1.0000000000000002)
    def test_strictly_increasing(self, d1, d2):
        # Adjacent doubles can round to one path loss (22 log10(1 + 2.2e-16) is below
        # half an ulp of 43.3 dB), so strict growth is asserted only above rounding.
        lo, hi = sorted((d1, d2))
        assert path_loss_db(profile(), lo) <= path_loss_db(profile(), hi)
        if hi / lo >= 1 + 1e-9:
            assert path_loss_db(profile(), lo) < path_loss_db(profile(), hi)


class TestAntennaGain:
    def site(self):
        return default_layout(max_gain_db=14.0)

    def test_boresight(self):
        assert antenna_gain_db(self.site(), 0.0) == 14.0

    def test_backward_beam(self):
        assert antenna_gain_db(self.site(), math.pi) == 14.0

    def test_3db_point_definition(self):
        assert antenna_gain_db(self.site(), math.radians(30.0)) == pytest.approx(2.0, abs=1e-9)

    def test_floor_abeam(self):
        assert antenna_gain_db(self.site(), math.pi / 2) == pytest.approx(-11.0, abs=1e-12)

    @pytest.mark.parametrize("floor_db", [25.0, 0.0, -3.0, 1e-320, 1e300])
    @pytest.mark.parametrize("beamwidth_deg", [30.0, 1e-3, 1e-300, 1.3e-306])
    def test_narrow_beam_takes_the_floor_without_overflow(self, beamwidth_deg, floor_db):
        site = default_layout(beamwidth_3db_deg=beamwidth_deg, pattern_floor_db=floor_db)
        beam = math.radians(beamwidth_deg)
        bearing = np.linspace(0.0, math.pi, 10_001)
        if floor_db > 0.0:  # and around the angle where the lobe meets the floor
            edge = beam * math.sqrt(floor_db / 12.0)
            bearing = np.concatenate([bearing, edge * (1.0 + np.linspace(-1e-8, 1e-8, 2001))])
            bearing = bearing[bearing <= math.pi]
        theta = np.minimum(bearing, math.pi - bearing)
        with np.errstate(all="ignore"):  # the literal pattern, whose square may overflow
            expected = 14.0 - np.minimum(12.0 * (theta / beam) ** 2, floor_db)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(antenna_gain_db(site, bearing), expected)

    @given(theta=st.floats(min_value=0.0, max_value=math.pi))
    def test_bidirectional_symmetry(self, theta):
        site = default_layout()
        assert antenna_gain_db(site, theta) == pytest.approx(
            antenna_gain_db(site, math.pi - theta), abs=1e-9
        )


class TestShadowing:
    def test_zero_displacement_keeps_value(self):
        state = FadingState(rng=rng(1))
        first = shadowing_db(state, profile(), 100.0)
        again = shadowing_db(state, profile(), 100.0)
        assert again == first

    def test_full_decorrelation_marginal(self):
        state = FadingState(rng=rng(2))
        draws = [shadowing_db(state, profile(), 1e9 * i) for i in range(1, 20001)]
        assert np.mean(draws) == pytest.approx(0.0, abs=0.15)
        assert np.std(draws) == pytest.approx(6.0, abs=0.15)

    def test_lag_one_correlation_at_decorrelation_distance(self):
        state = FadingState(rng=rng(3))
        n = 100_000
        step = profile().shadow_decorrelation_m
        values = np.array([shadowing_db(state, profile(), i * step) for i in range(n)])
        corr = np.corrcoef(values[:-1], values[1:])[0, 1]
        assert corr == pytest.approx(math.exp(-1.0), abs=0.02)

    def test_backwards_motion_rejected(self):
        state = FadingState(rng=rng(4))
        shadowing_db(state, profile(), 10.0)
        with pytest.raises(ValueError):
            shadowing_db(state, profile(), 9.0)

    def test_series_matches_literal_recursion(self):
        g = rng(5)
        eps = g.standard_normal(400)
        sigma = np.where(np.arange(400) < 150, 6.0, 3.0)
        decorr = np.where(np.arange(400) < 250, 50.0, 80.0)
        runs = [(0, 150, 6.0, 50.0), (150, 250, 3.0, 50.0), (250, 400, 3.0, 80.0)]
        series = shadowing_series_db(eps, shadowing_segments(1.0, runs, 400))
        prev = sigma[0] * eps[0]
        expected = [prev]
        for i in range(1, 400):
            rho = math.exp(-1.0 / decorr[i])
            prev = rho * prev + math.sqrt(1.0 - rho * rho) * sigma[i] * eps[i]
            expected.append(prev)
        np.testing.assert_allclose(series, expected, rtol=0.0, atol=1e-10)

    def test_series_matches_scalar_op_stream(self):
        g1, g2 = rng(6), rng(6)
        eps = g1.standard_normal(200)
        series = shadowing_series_db(eps, shadowing_segments(2.0, [(0, 200, 6.0, 50.0)], 200))
        state = FadingState(rng=g2)
        scalar = [shadowing_db(state, profile(), 2.0 * i) for i in range(200)]
        np.testing.assert_allclose(series, scalar, rtol=0.0, atol=1e-10)

    @given(
        eps=st.lists(st.floats(-5.0, 5.0) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=40),
        cuts=st.sets(st.integers(2, 39), max_size=5),
        params=st.lists(
            st.tuples(st.floats(0.0, 1.0, exclude_max=True) | st.just(0.0), st.floats(0.0, 10.0) | st.just(0.0)),
            min_size=7,
            max_size=7,
        ),
    )
    def test_series_matches_literal_lfilter_and_unrolling(self, eps, cuts, params):
        """Random segment tables: the one-sample segment at sample 0, then segments cut anywhere."""
        eps = np.array(eps)
        edges = sorted({0, 1, eps.size, *(c for c in cuts if c < eps.size)})
        segments = [
            (i, j, rho, math.sqrt(1.0 - rho * rho) * sigma)
            for (i, j), (rho, sigma) in zip(zip(edges[:-1], edges[1:]), params)
        ]
        segments[0] = (0, 1, 0.0, params[-1][1])
        series = shadowing_series_db(eps, segments)
        literal, unrolled, prev = np.empty(eps.size), [], 0.0
        for i, j, rho, scale in segments:
            literal[i:j], _ = lfilter([1.0], [1.0, -rho], scale * eps[i:j], zi=[rho * literal[i - 1] if i else 0.0])
            for e in eps[i:j].tolist():
                prev = rho * prev + scale * e
                unrolled.append(prev)
        np.testing.assert_array_equal(series.view(np.uint64), literal.view(np.uint64))
        # equal as numbers: a zero sum may take another sign in lfilter's transposed form
        np.testing.assert_array_equal(series, unrolled)


def _unrolled_shadowing(cfg, seed, n, los=False):
    """``shadowing_db`` stepped literally over the first ``n`` snapshots of ``cfg``.

    Each snapshot takes the sigma and decorrelation of the environment it
    lies in; ``los=True`` gives the unit-variance LOS latent instead.
    """
    kin = cfg.kinematics
    state = FadingState(rng=rng(seed))
    out = []
    for i in range(n):
        x = kin.start_position_m + i * kin.snapshot_interval_m
        env = cfg.layout.segments[-1][2]
        for start, end, seg_env in cfg.layout.segments:
            if start <= x < end:
                env = seg_env
                break
        p = cfg.profiles[env]
        if los:
            p = dataclasses.replace(p, shadow_sigma_db=1.0, shadow_decorrelation_m=p.los_decorrelation_m)
        out.append(shadowing_db(state, p, x))
    return np.array(out)


_UNEQUAL = {
    "viaduct": {"shadow_sigma_db": 4.0, "shadow_decorrelation_m": 20.0, "los_decorrelation_m": 30.0},
    "cutting": {"shadow_sigma_db": 8.0, "shadow_decorrelation_m": 80.0, "los_decorrelation_m": 10.0},
    "urban": {"shadow_sigma_db": 2.0, "shadow_decorrelation_m": 5.0, "los_decorrelation_m": 70.0},
}


class TestShadowingSegments:
    """The segment tables of ``precompute_tables`` against ``shadowing_db`` stepped literally."""

    @staticmethod
    def _check(cfg, seed=11):
        tables = precompute_tables(cfg)
        n = tables.n_snapshots
        eps = rng(seed).standard_normal(n)
        np.testing.assert_allclose(
            shadowing_series_db(eps, tables.shadow_segments),
            _unrolled_shadowing(cfg, seed, n),
            rtol=0.0,
            atol=1e-10,
        )
        n_latent = tables.los_segments[-1][1] if tables.los_segments else 0
        np.testing.assert_allclose(
            shadowing_series_db(eps[:n_latent], tables.los_segments),
            _unrolled_shadowing(cfg, seed, n_latent, los=True),
            rtol=0.0,
            atol=1e-10,
        )
        return tables

    def test_unequal_profiles_split_at_every_boundary(self):
        cfg = config_from_dict({"profiles": _UNEQUAL})
        tables = self._check(cfg)
        # the first sample, then one segment per environment
        assert [seg[:2] for seg in tables.shadow_segments] == [(0, 1), (1, 1732), (1732, 3464), (3464, 5197)]

    def test_boundary_at_snapshot_1(self):
        cfg = config_from_dict(
            {"profiles": _UNEQUAL, "kinematics": {"speed_kmh": 100.0, "start_position_m": 1731.0}}
        )
        tables = self._check(cfg)
        assert [seg[:2] for seg in tables.shadow_segments] == [(0, 1), (1, 1733), (1733, 3466)]
        # sample 0 is viaduct, drawn fresh with viaduct's sigma; sample 1 opens cutting
        assert tables.shadow_segments[0][2:] == (0.0, 4.0)
        assert tables.shadow_segments[1][2] == pytest.approx(math.exp(-1.0 / 80.0), rel=1e-15)

    def test_equal_adjacent_environments_merge(self):
        profiles = {**_UNEQUAL, "urban": _UNEQUAL["cutting"]}
        cfg = config_from_dict({"profiles": profiles})
        tables = self._check(cfg)
        assert [seg[:2] for seg in tables.shadow_segments] == [(0, 1), (1, 1732), (1732, 5197)]

    def test_one_snapshot_track(self):
        cfg = config_from_dict(
            {"profiles": _UNEQUAL, "kinematics": {"speed_kmh": 100.0, "start_position_m": 5196.0}}
        )
        tables = self._check(cfg)
        assert tables.n_snapshots == 1
        assert tables.shadow_segments == ((0, 1, 0.0, 2.0),)

    def test_los_latent_cut_inside_a_segment(self):
        # urban shares cutting's LOS decorrelation, so one latent segment runs
        # from 1732 m to the track end; the latent stops at the last cutting
        # tick (the last finite LOS threshold), in the middle of that segment
        urban = {**_UNEQUAL["urban"], "los_decorrelation_m": 10.0}
        cfg = config_from_dict(
            {
                "profiles": {**_UNEQUAL, "urban": urban},
                "kinematics": {"speed_kmh": 300.0, "start_position_m": 0.5},
            }
        )
        tables = self._check(cfg)
        assert tables.tick_snapshots[tables.los_ticks - 1] == 3462
        assert [seg[:2] for seg in tables.los_segments] == [(0, 1), (1, 1732), (1732, 3463)]
        assert tables.shadow_segments[-1][:2] == (3464, 5196)


class TestSmallScaleFading:
    def test_pure_los_limit(self):
        k = profile(rician_k_db=math.inf).rician_k_linear()
        h2 = small_scale_series(rng(7).standard_normal((1000, 2)), *rician_coefficients(k))
        assert np.all(h2 == 1.0)

    def test_minus_infinite_k_is_rayleigh(self):
        assert profile(rician_k_db=-math.inf).rician_k_linear() == 0.0

    def test_rayleigh_unit_mean(self):
        k = profile(rician_k_db=None, los_mode="never").rician_k_linear()
        draws = small_scale_series(rng(8).standard_normal((50_000, 2)), *rician_coefficients(k))
        assert np.mean(draws) == pytest.approx(1.0, abs=0.02)

    def test_rician_power_variance(self):
        k_db = 10.0
        k = 10.0 ** (k_db / 10.0)
        draws = small_scale_series(
            rng(9).standard_normal((100_000, 2)),
            *rician_coefficients(profile(rician_k_db=k_db).rician_k_linear()),
        )
        expected_var = (1.0 + 2.0 * k) / (1.0 + k) ** 2
        assert np.mean(draws) == pytest.approx(1.0, abs=0.01)
        assert np.var(draws) == pytest.approx(expected_var, rel=0.03)

    def test_series_unit_mean_all_profiles(self):
        g = rng(10)
        for k_lin in (0.0, 10.0, math.inf):
            normals = g.standard_normal((200_000, 2))
            h2 = small_scale_series(normals, *rician_coefficients(np.full(200_000, k_lin)))
            assert np.mean(h2) == pytest.approx(1.0, abs=0.01)


class TestMeanRxPower:
    """The received-power terms as the simulator assembles them."""

    def test_db_domain_sum(self):
        cfg = RunConfig()
        tables = precompute_tables(cfg)
        for c in range(cfg.layout.spans + 1):
            for t in (0, 866, 1732, 2600, 5196):
                pos = float(tables.tick_positions[t])
                dist, bearing = link_geometry(cfg.layout, c, pos)
                p = cfg.profiles[environment_at(cfg.layout, pos)]
                gain = antenna_gain_db(cfg.layout, bearing)
                assert tables.tick_rx_los_dbm[c, t] == pytest.approx(
                    30.0 + gain - path_loss_db(p, dist, los=True) - 20.0, abs=1e-9
                )
                assert tables.tick_rx_nlos_dbm[c, t] == pytest.approx(
                    30.0 + gain - path_loss_db(p, dist) - 20.0, abs=1e-9
                )

    def test_uplink_downlink_differ_by_tx_power(self, tiny_cfg, monkeypatch):
        cfg = dataclasses.replace(tiny_cfg, ici=IciParams(alpha1=0.0))
        seen = []
        run = HandoverFsm.run

        def spy(fsm, l3_db, ul_snr_db, dl_snr_db, margins, strongest):
            seen.append((ul_snr_db, dl_snr_db))
            return run(fsm, l3_db, ul_snr_db, dl_snr_db, margins, strongest)

        monkeypatch.setattr(HandoverFsm, "run", spy)
        simulate_run(cfg, 0)
        [(ul, dl)] = seen
        assert ul.shape == dl.shape == (cfg.layout.spans + 1, precompute_tables(cfg).tick_snapshots.size)
        np.testing.assert_allclose(dl - ul, 7.0, rtol=0.0, atol=1e-9)

    def test_identity_link_returns_tx_power(self):
        # no gain, path loss, penetration, shadowing or fading: rx equals tx power
        profiles = {
            env: dataclasses.replace(
                p,
                pathloss_intercept_db=0.0,
                pathloss_exponent=1e-12,
                pathloss_exponent_los=None,
                los_mode="always",
                shadow_sigma_db=0.0,
                rician_k_db=math.inf,
            )
            for env, p in default_profiles().items()
        }
        cfg = RunConfig(
            layout=default_layout(
                environment="cutting", spans=1, rrh_spacing_m=400.0,
                max_gain_db=0.0, pattern_floor_db=0.0,
            ),
            profiles=profiles,
            budget=LinkBudget(penetration_loss_db=0.0),
        )
        tables = precompute_tables(cfg)
        plan = _draw_plan([cfg], [tables])
        (views,) = _views(_stream_states(cfg.master_seed, [0], _stream_keys(plan))[0], plan)
        pr = _downlink_pr_ticks(tables, *views[:3])[0]
        rx_dbm = tables.noise_dbm + 10.0 * np.log10(pr)
        np.testing.assert_allclose(rx_dbm, 30.0, rtol=0.0, atol=1e-9)


class TestDefaultProfiles:
    def test_all_environments_covered(self):
        profs = default_profiles()
        assert set(profs) == {Environment.VIADUCT, Environment.CUTTING, Environment.URBAN}
        assert profs[Environment.VIADUCT].los_probability(1e4) == 1.0
        assert profs[Environment.URBAN].los_probability(1.0) == 0.0
        cutting = profs[Environment.CUTTING]
        assert cutting.los_probability(200.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
        for p in profs.values():
            assert p.shadow_sigma_db == 6.0
