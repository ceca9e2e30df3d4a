"""Deterministic Monte-Carlo study of AP/extender selection in home WiFi.

The library models a flat served by one AP plus optional extenders, scores
candidate serving nodes either by raw signal strength or by a channel-load
aware metric fed from simulated station measurements, and evaluates the
resulting association maps with an airtime-based channel model.
"""

from .model import (
    Band,
    ChannelId,
    ExternalLoad,
    Node,
    NodeKind,
    RadioConfig,
    Topology,
    TrafficProfile,
    backhaul_path,
    make_node_map,
    validate_topology,
)
from .radio import (
    DEFAULT_MCS_2G4,
    DEFAULT_MCS_5G,
    DEFAULT_MCS_TABLES,
    DEFAULT_PROPAGATION,
    McsEntry,
    McsTable,
    PropagationParams,
    distance,
    max_range_m,
    mcs_for_rssi,
    path_loss_db,
    rssi_dbm,
)
from .perf import (
    DEFAULT_OVERHEADS,
    Flow,
    HopKind,
    MacOverheads,
    PerfReport,
    SimEnv,
    build_flows,
    busy_fractions,
    channel_utilization,
    evaluate,
    flow_airtime_s,
)
from .selection import (
    CandidateList,
    Mechanism,
    Move,
    SelectionConfig,
    initial_association,
    rank_candidates,
    reassociation_pass,
    weighted_rssi,
)
from .protocol import EventLog, export_events, run_mechanism
from .scenarios import (
    AreaKind,
    ScenarioSpec,
    SweepPoint,
    add_stations,
    build_test,
    build_topology,
    deployment_draw,
    bench_fixture,
)
from .runner import (
    Aggregate,
    EngineParams,
    ResultRow,
    RunConfig,
    RunResult,
    evaluate_point,
    operational_range,
    run,
)
from .config import ConfigError, default_config, load_config, save_config

__version__ = "0.1.0"
