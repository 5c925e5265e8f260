"""railho: LTE hard-handover simulator for a high-speed train passing
directional trackside radio heads."""

from .channel import (
    EnvironmentProfile,
    FadingState,
    LinkBudget,
    antenna_gain_db,
    default_profiles,
    path_loss_db,
    shadowing_db,
)
from .config import ConfigError, RunConfig, apply_overrides, load_config
from .geometry import (
    DeploymentLayout,
    Environment,
    RrhSite,
    TrainKinematics,
    default_layout,
    environment_at,
    link_geometry,
    sample_stride,
)
from .handover import (
    HandoverConfig,
    HandoverFsm,
    HandoverRecord,
    Outcome,
    Postponement,
    a3_condition,
    classify_postponement,
    interruption_window,
)
from .ici import (
    IciParams,
    doppler_spread_hz,
    ici_power_lower,
    ici_power_upper,
    rss_with_ici,
    snr_linear_from_dbm,
    throughput_bps,
)
from .measurement import L1Config, L3Config, l1_filter, l3_filter
from .simulate import (
    RunResult,
    RunTrace,
    SweepStatistics,
    aggregate_records,
    monte_carlo,
    simulate_run,
)

__version__ = "0.1.0"
