import dataclasses

import pytest

from railho.config import RunConfig
from railho.geometry import default_layout, TrainKinematics


@pytest.fixture
def tiny_cfg() -> RunConfig:
    """Two short spans at 300 km/h: fast enough for per-test Monte Carlo."""
    return RunConfig(
        layout=default_layout(environment="viaduct", spans=2, rrh_spacing_m=400.0),
        kinematics=TrainKinematics(speed_kmh=300.0),
        runs=4,
        master_seed=1234,
    )


def with_runs(cfg: RunConfig, runs: int) -> RunConfig:
    return dataclasses.replace(cfg, runs=runs)
