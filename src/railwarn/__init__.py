"""Deterministic radio warning simulator for railroad grade crossings.

Simulates a train broadcasting periodic safety messages while approaching a
crossing, models per-packet radio success (empirical error-rate tables or a
synthetic path-loss channel), drives the receiver warning logic, and
reproduces the downstream analysis: windowed packet error rate, received
counts, coverage range, latency statistics, protection time and safeness
curves.
"""

from .analysis import (
    CoverageReport,
    LatencyStats,
    PerBin,
    PerSeries,
    SafenessReport,
    bin_per,
    coverage_report,
    extract_dwarn,
    latency_stats,
    safeness_report,
)
from .antenna import (
    AntennaPattern,
    bidirectional_pattern,
    builtin_pattern,
    omni_pattern,
    pattern_gain,
)
from .config import ConfigError, LoadedConfig, load_config, load_scenario
from .engine import (
    Scenario,
    SweepPoint,
    SweepResult,
    TrainRun,
    receiver_stream,
    run_pass,
    run_sweep,
    scenario_digest,
)
from .geometry import (
    CrossingScene,
    DegenerateGeometryError,
    LinkGeometry,
    Placement,
    link_geometry,
)
from .link import (
    LatencyModel,
    ObstructionSegment,
    PerProfile,
    RadioConfig,
    SyntheticChannel,
    friis_reference_loss_db,
    latency_sample,
)
from .logio import AnalysisDefaults, PacketColumns, SimLog, read_field_log, read_log, write_log
from .protocol import TriggerPolicy, WarningEvent, rsu_relay
from .safety import (
    BRAKING_TABLE,
    SafenessCategory,
    SafenessCurve,
    SafenessResult,
    braking_time,
    minimum_required_range,
    safeness_curve,
    safeness_level,
    time_to_avoid_collision,
)
from .units import mph_to_mps, parse_speed

__version__ = "0.1.0"
