import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from railho.channel import (
    EnvironmentProfile,
    FadingState,
    LinkBudget,
    antenna_gain_db,
    default_profiles,
    free_space_intercept_db,
    path_loss_db,
    shadowing_db,
    shadowing_series_db,
    small_scale_series,
)
from railho.config import RunConfig
from railho.geometry import Environment, RrhSite, default_layout, environment_at, link_geometry
from railho.handover import HandoverFsm
from railho.ici import IciParams
from railho.simulate import (
    _common_shadow_series,
    _downlink_pr_series,
    precompute_tables,
    simulate_run,
)


def profile(**overrides) -> EnvironmentProfile:
    base = dict(
        environment=Environment.VIADUCT,
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
    def test_strictly_increasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        if lo < hi:
            assert path_loss_db(profile(), lo) < path_loss_db(profile(), hi)

    def test_free_space_intercept(self):
        # 20 log10(4 pi f / c) at 1 m, 3.5 GHz
        expected = 20.0 * math.log10(4.0 * math.pi * 3.5e9 / 3.0e8)
        assert free_space_intercept_db(3.5e9) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(43.32, abs=0.01)


class TestAntennaGain:
    def site(self):
        return RrhSite(0.0, max_gain_db=14.0)

    def test_boresight(self):
        assert antenna_gain_db(self.site(), 0.0) == 14.0

    def test_backward_beam(self):
        assert antenna_gain_db(self.site(), math.pi) == 14.0

    def test_3db_point_definition(self):
        assert antenna_gain_db(self.site(), math.radians(30.0)) == pytest.approx(2.0, abs=1e-9)

    def test_floor_abeam(self):
        assert antenna_gain_db(self.site(), math.pi / 2) == pytest.approx(-11.0, abs=1e-12)

    @given(theta=st.floats(min_value=0.0, max_value=math.pi))
    def test_bidirectional_symmetry(self, theta):
        site = RrhSite(0.0)
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
        series = shadowing_series_db(eps, 1.0, sigma, decorr)
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
        series = shadowing_series_db(eps, 2.0, 6.0, 50.0)
        state = FadingState(rng=g2)
        scalar = [shadowing_db(state, profile(), 2.0 * i) for i in range(200)]
        np.testing.assert_allclose(series, scalar, rtol=0.0, atol=1e-10)


class TestSmallScaleFading:
    def test_pure_los_limit(self):
        k = profile(rician_k_db=math.inf).rician_k_linear()
        h2 = small_scale_series(rng(7).standard_normal((1000, 2)), k)
        assert np.all(h2 == 1.0)

    def test_rayleigh_unit_mean(self):
        k = profile(rician_k_db=None, los_mode="never").rician_k_linear()
        draws = small_scale_series(rng(8).standard_normal((50_000, 2)), k)
        assert np.mean(draws) == pytest.approx(1.0, abs=0.02)

    def test_rician_power_variance(self):
        k_db = 10.0
        k = 10.0 ** (k_db / 10.0)
        draws = small_scale_series(
            rng(9).standard_normal((100_000, 2)), profile(rician_k_db=k_db).rician_k_linear()
        )
        expected_var = (1.0 + 2.0 * k) / (1.0 + k) ** 2
        assert np.mean(draws) == pytest.approx(1.0, abs=0.01)
        assert np.var(draws) == pytest.approx(expected_var, rel=0.03)

    def test_series_unit_mean_all_profiles(self):
        g = rng(10)
        for k_lin in (0.0, 10.0, math.inf):
            normals = g.standard_normal((200_000, 2))
            h2 = small_scale_series(normals, np.full(200_000, k_lin))
            assert np.mean(h2) == pytest.approx(1.0, abs=0.01)


class TestMeanRxPower:
    """The received-power terms as the simulator assembles them."""

    def test_db_domain_sum(self):
        cfg = RunConfig()
        tables = precompute_tables(cfg)
        for c, site in enumerate(cfg.layout.rrhs):
            for i in (0, 866, 1732, 2600, 5196):
                pos = float(tables.positions[i])
                dist, bearing = link_geometry(site, pos)
                p = cfg.profiles[environment_at(cfg.layout, pos)]
                gain = antenna_gain_db(site, bearing)
                assert tables.base_db_los[c, i] == pytest.approx(
                    gain - path_loss_db(p, dist, los=True) - 20.0, abs=1e-9
                )
                assert tables.base_db_nlos[c, i] == pytest.approx(
                    gain - path_loss_db(p, dist) - 20.0, abs=1e-9
                )

    def test_uplink_downlink_differ_by_tx_power(self, tiny_cfg, monkeypatch):
        cfg = dataclasses.replace(tiny_cfg, ici=IciParams(alpha1=0.0, alpha2=0.0))
        seen = []
        step = HandoverFsm.step

        def spy(fsm, tick, l3_db, ul_snr_db, dl_snr_db):
            seen.append((ul_snr_db, dl_snr_db))
            return step(fsm, tick, l3_db, ul_snr_db, dl_snr_db)

        monkeypatch.setattr(HandoverFsm, "step", spy)
        simulate_run(cfg, 0)
        ul, dl = (np.array(rows) for rows in zip(*seen))
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
        pr = _downlink_pr_series(cfg, tables, 0, 0, _common_shadow_series(cfg, tables, 0))
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
