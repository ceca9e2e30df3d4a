"""Scenario generators, deployment sampling and the simulation campaign grids.

Two families of layouts:

* ``circle``: the AP at the origin serving a disk whose radius is its own
  2.4 GHz limit (or 1.2 times that, to study stations beyond reach), with
  extenders on the axes at the distance where their 5 GHz uplink hits a
  target signal level;
* ``home``: a rectangular flat with the AP near one end and one or two
  daisy-chained extenders stretched towards the far end, again spaced by a
  5 GHz signal target.

Station draws are reproducible: deployment ``i`` of a scenario uses an RNG
substream derived from (scenario seed, i), so any deployment can be
regenerated in isolation and the draw order never depends on worker layout
or mechanism.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping, Optional, Sequence

import numpy as np

from .model import (
    DEFAULT_BAND_MHZ,
    Band,
    ChannelId,
    ExternalLoad,
    Node,
    NodeKind,
    Position,
    RadioConfig,
    Topology,
    TrafficProfile,
    make_node_map,
)
from .radio import DEFAULT_PROPAGATION, PropagationParams, max_range_m
from .selection import Mechanism, SelectionConfig, capable_count

STA_ID_BASE = 10
BACKHAUL_CHANNEL = ChannelId(Band.GHZ_5, 36)
DEFAULT_EXTENDER_RSSI_DBM = -70.0

HOME_WIDTH_M = 45.0
HOME_HEIGHT_M = 10.0
HOME_AP_POS = (2.5, 5.0)

# named seed for the one-shot interference study deployment
FIXED_DEPLOYMENT_SEED = 2404


class AreaKind(enum.Enum):
    """Where stations are drawn, which also picks the layout family:
    ``HOME_RECT`` is the home flat, the circle areas the disk around the AP."""

    CIRCLE_DMAX = "circle_dmax"
    CIRCLE_1P2_DMAX = "circle_1p2_dmax"
    HOME_RECT = "home_rect"


def _access_radio(channel_number: int) -> RadioConfig:
    return RadioConfig(
        band=Band.GHZ_2_4, channel=ChannelId(Band.GHZ_2_4, channel_number)
    )


def _backhaul_radio() -> RadioConfig:
    return RadioConfig(band=Band.GHZ_5, channel=BACKHAUL_CHANNEL)


def _serving_radios(channel_number: int) -> tuple[RadioConfig, RadioConfig]:
    """An AP's or extender's access radio on ``channel_number``, then its backhaul radio."""
    return (_access_radio(channel_number), _backhaul_radio())


def _sta_radio() -> RadioConfig:
    return RadioConfig(band=Band.GHZ_2_4, channel=ChannelId(Band.GHZ_2_4, 1))


@dataclass(frozen=True)
class ScenarioSpec:
    """A reproducible deployment family: fixed infrastructure, random stations."""

    area: AreaKind
    n_sta: int = 10
    n_extenders: int = 0
    channel_plan: str = "multi"  # "multi" | "single"
    k: int = 1000
    seed: int = 1
    fixed_positions: Optional[tuple[Position, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.area, AreaKind):
            raise ValueError(f"unknown area {self.area!r}")
        if self.channel_plan not in ("multi", "single"):
            raise ValueError(f"unknown channel plan {self.channel_plan!r}")
        home = self.area is AreaKind.HOME_RECT
        if not home and self.n_extenders not in (0, 2, 4):
            raise ValueError("circle layouts support 0, 2 or 4 extenders")
        if home and self.n_extenders not in (0, 1, 2):
            raise ValueError("home layouts support 0, 1 or 2 extenders")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.n_sta < 1:
            raise ValueError("n_sta must be at least 1")


def circle_radius_m(
    area: AreaKind,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> float:
    """Radius of the station disk: the AP's own 2.4 GHz reach, or 1.2x it."""
    base = max_range_m(_access_radio(1), -90.0, p, band_mhz[Band.GHZ_2_4])
    if area is AreaKind.CIRCLE_1P2_DMAX:
        return 1.2 * base
    return base


@lru_cache(maxsize=64)
def _disk_radius_m(area: AreaKind, p: PropagationParams, mhz_2_4: float) -> float:
    """``circle_radius_m`` once per (area, propagation, 2.4 GHz frequency),
    which every deployment drawn on a circle reads."""
    return circle_radius_m(area, p, {Band.GHZ_2_4: mhz_2_4})


def extender_distance_m(
    rssi_target_dbm: float,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> float:
    """Spacing at which the 5 GHz uplink lands exactly on the target level."""
    return max_range_m(_backhaul_radio(), rssi_target_dbm, p, band_mhz[Band.GHZ_5])


def _plan_channels(plan: str, count: int, kind: str) -> list[int]:
    if plan == "single":
        return [1] * count
    if plan != "multi":
        raise ValueError(f"unknown channel plan {plan!r}")
    if kind == "circle":
        # opposite pairs share a channel: +x/-x then +y/-y
        return [6, 6, 11, 11][:count]
    return [6, 11][:count]


def gen_circle(
    n_ext: int,
    rssi_ap_e_dbm: float = DEFAULT_EXTENDER_RSSI_DBM,
    channel_plan: str = "multi",
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> Topology:
    """AP at the origin, extenders on the axes at the 5 GHz target distance."""
    if n_ext not in (0, 2, 4):
        raise ValueError("circle layouts support 0, 2 or 4 extenders")
    if not (-90.0 <= rssi_ap_e_dbm <= -50.0):
        raise ValueError("extender placement level must lie in [-90, -50] dBm")
    d = extender_distance_m(rssi_ap_e_dbm, p, band_mhz)
    spots: list[Position] = [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d)]
    chans = _plan_channels(channel_plan, n_ext, "circle")
    nodes = [Node(0, NodeKind.AP, (0.0, 0.0), _serving_radios(1))]
    parents: dict[int, int] = {}
    for i in range(n_ext):
        nodes.append(Node(i + 1, NodeKind.EXTENDER, spots[i], _serving_radios(chans[i])))
        parents[i + 1] = 0
    return Topology(nodes=make_node_map(nodes), backhaul_parent=parents)


def gen_home(
    n_ext: int,
    channel_plan: str = "multi",
    extender_rssi_dbm: float = DEFAULT_EXTENDER_RSSI_DBM,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> Topology:
    """Rectangle layout: AP near the left wall, extender chain growing right.

    The second extender hangs off the first (two backhaul hops to the AP).
    """
    if n_ext not in (0, 1, 2):
        raise ValueError("home layouts support 0, 1 or 2 extenders")
    d = extender_distance_m(extender_rssi_dbm, p, band_mhz)
    chans = _plan_channels(channel_plan, n_ext, "home")
    nodes = [Node(0, NodeKind.AP, HOME_AP_POS, _serving_radios(1))]
    parents: dict[int, int] = {}
    for i in range(n_ext):
        pos = (HOME_AP_POS[0] + d * (i + 1), HOME_AP_POS[1])
        nodes.append(Node(i + 1, NodeKind.EXTENDER, pos, _serving_radios(chans[i])))
        parents[i + 1] = i  # chain: E1 -> AP, E2 -> E1
    return Topology(nodes=make_node_map(nodes), backhaul_parent=parents)


def topology_key(spec: ScenarioSpec, rssi_ap_e_dbm: Optional[float] = None) -> tuple:
    """Everything ``build_topology`` reads: equal keys build equal infrastructure."""
    level = DEFAULT_EXTENDER_RSSI_DBM if rssi_ap_e_dbm is None else rssi_ap_e_dbm
    return (spec.area is AreaKind.HOME_RECT, spec.n_extenders, spec.channel_plan, level)


def build_topology(
    spec: ScenarioSpec,
    rssi_ap_e_dbm: Optional[float] = None,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> Topology:
    """Infrastructure part of a scenario (stations are added per deployment)."""
    home, n_ext, plan, level = topology_key(spec, rssi_ap_e_dbm)
    if home:
        return gen_home(n_ext, plan, level, p, band_mhz)
    return gen_circle(n_ext, level, plan, p, band_mhz)


def deployment_rng(seed: int, deployment_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, deployment_index]))


def _draw_positions(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    p: PropagationParams,
    band_mhz: Mapping[Band, float],
) -> list[Position]:
    if spec.fixed_positions is not None:
        return list(spec.fixed_positions)
    n = spec.n_sta
    if spec.area is AreaKind.HOME_RECT:
        xs = rng.uniform(0.0, HOME_WIDTH_M, n)
        ys = rng.uniform(0.0, HOME_HEIGHT_M, n)
        return list(zip(xs.tolist(), ys.tolist()))
    r = rng.uniform(0.0, _disk_radius_m(spec.area, p, band_mhz[Band.GHZ_2_4]), n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    xs = r * np.cos(theta)
    ys = r * np.sin(theta)
    return list(zip(xs.tolist(), ys.tolist()))


def draw_key(spec: ScenarioSpec) -> tuple:
    """Everything ``deployment_draw`` reads besides the deployment index, the
    propagation and the band table: specs with equal keys draw the same
    stations."""
    return (spec.seed, spec.n_sta, spec.area, spec.fixed_positions)


def deployment_draw(
    spec: ScenarioSpec,
    deployment_index: int,
    p: PropagationParams = DEFAULT_PROPAGATION,
    band_mhz: Mapping[Band, float] = DEFAULT_BAND_MHZ,
) -> tuple[list[Position], np.ndarray]:
    """Station positions plus the capability permutation for one deployment.

    The permutation is consumed from the same substream right after the
    positions, so capability membership is identical for every mechanism and
    nested across growing capable shares.
    """
    if deployment_index < 0:
        raise ValueError("deployment index must be non-negative")
    rng = deployment_rng(spec.seed, deployment_index)
    positions = _draw_positions(spec, rng, p, band_mhz)
    perm = rng.permutation(spec.n_sta)
    return positions, perm


def capable_set_for(spec: ScenarioSpec, perm: np.ndarray, beta_pct: float) -> frozenset[int]:
    ids = [STA_ID_BASE + i for i in range(spec.n_sta)]
    n = capable_count(beta_pct, spec.n_sta)
    return frozenset(ids[i] for i in perm[:n])


def add_stations(
    base: Topology,
    positions: Sequence[Position],
    capable: frozenset[int] = frozenset(),
) -> Topology:
    nodes = dict(base.nodes)
    for i, pos in enumerate(positions):
        sid = STA_ID_BASE + i
        nodes[sid] = Node(
            sid,
            NodeKind.STA,
            (float(pos[0]), float(pos[1])),
            (_sta_radio(),),
            supports_11kv=sid in capable,
        )
    return replace(base, nodes=nodes)


# --- campaign grids ---------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a campaign grid: scenario, policy, demand, interference."""

    test_id: str
    scenario: ScenarioSpec
    selection: SelectionConfig
    traffic: TrafficProfile
    external: tuple[ExternalLoad, ...] = ()
    rssi_ap_e_dbm: Optional[float] = None

    @property
    def b_t_bps(self) -> float:
        return self.traffic.total_load_bps

    @property
    def b_ext_bps(self) -> float:
        return sum(x.load_bps for x in self.external)


TEST_IDS = {
    "1.1": "circle, extender placement sweep -50..-90 dBm, both mechanisms",
    "1.2": "circle 1.2x reach, association rates, 0/2/4 extenders",
    "1.3": "circle, rising demand, operational ranges, 0/2/4 extenders",
    "2.1": "home, rising demand, 0/1/2 chained extenders, both channel plans",
    "2.2": "home, access/backhaul weight sweep",
    "2.3": "home, capable-share sweep",
    "2.4": "home, neighbour interference on the extender channel, one deployment",
}

_SEEDS = {"1.1": 101, "1.2": 102, "1.3": 103, "2.1": 201, "2.2": 202, "2.3": 203, "2.4": 204}

_B_STA_DEFAULT = 2.4e6
_PKT_BITS = 12000


def _la(alpha: float = 0.5, beta_pct: float = 100.0) -> SelectionConfig:
    return SelectionConfig(
        mechanism=Mechanism.LOAD_AWARE, alpha=alpha, beta_pct=beta_pct
    )


_RSSI_CFG = SelectionConfig(mechanism=Mechanism.RSSI_BASED)


def _traffic(per_sta: float, n_sta: int = 10) -> TrafficProfile:
    return TrafficProfile.for_stations(per_sta, n_sta, _PKT_BITS)


def _b_t_grid(stop_mbps: float) -> list[float]:
    """Total-demand grid in bps: a low anchor plus 0.6 Mbps steps."""
    grid = [0.12e6]
    steps = int(round(stop_mbps / 0.6))
    grid.extend(0.6e6 * j for j in range(1, steps + 1))
    return grid


def _circle_spec(test_id: str, n_ext: int, area: AreaKind, plan: str, k: int) -> ScenarioSpec:
    return ScenarioSpec(
        area=area,
        n_extenders=n_ext,
        channel_plan=plan,
        k=k,
        seed=_SEEDS[test_id],
    )


def _home_spec(
    test_id: str, n_ext: int, plan: str, k: int,
    fixed_positions: Optional[tuple[Position, ...]] = None,
) -> ScenarioSpec:
    return ScenarioSpec(
        area=AreaKind.HOME_RECT,
        n_extenders=n_ext,
        channel_plan=plan,
        k=k,
        seed=_SEEDS[test_id],
        fixed_positions=fixed_positions,
    )


def _build_11() -> list[SweepPoint]:
    points = [
        SweepPoint(
            "1.1",
            _circle_spec("1.1", 0, AreaKind.CIRCLE_DMAX, "multi", 1000),
            _RSSI_CFG,
            _traffic(_B_STA_DEFAULT),
        )
    ]
    sweep = [-50.0 - step for step in range(41)]  # -50 .. -90
    for plan in ("multi", "single"):
        for cfg in (_RSSI_CFG, _la()):
            for level in sweep:
                points.append(
                    SweepPoint(
                        "1.1",
                        _circle_spec("1.1", 4, AreaKind.CIRCLE_DMAX, plan, 1000),
                        cfg,
                        _traffic(_B_STA_DEFAULT),
                        rssi_ap_e_dbm=level,
                    )
                )
    return points


# (extenders, selection) of the curves of tests 1.2 and 1.3
_CIRCLE_ROWS = [(0, _RSSI_CFG), (2, _RSSI_CFG), (4, _RSSI_CFG), (2, _la()), (4, _la())]


def _build_12() -> list[SweepPoint]:
    return [
        SweepPoint(
            "1.2",
            _circle_spec("1.2", n_ext, AreaKind.CIRCLE_1P2_DMAX, "multi", 10000),
            cfg,
            _traffic(_B_STA_DEFAULT),
        )
        for n_ext, cfg in _CIRCLE_ROWS
    ]


def _build_13() -> list[SweepPoint]:
    points = []
    for n_ext, cfg in _CIRCLE_ROWS:
        for b_t in _b_t_grid(36.0):
            points.append(
                SweepPoint(
                    "1.3",
                    _circle_spec("1.3", n_ext, AreaKind.CIRCLE_DMAX, "multi", 1000),
                    cfg,
                    _traffic(b_t / 10.0),
                )
            )
    return points


def _build_21() -> list[SweepPoint]:
    rows: list[tuple[int, str, SelectionConfig]] = [(0, "multi", _RSSI_CFG)]
    for plan in ("multi", "single"):
        for n_ext in (1, 2):
            rows.append((n_ext, plan, _RSSI_CFG))
            rows.append((n_ext, plan, _la()))
    points = []
    for n_ext, plan, cfg in rows:
        for b_t in _b_t_grid(60.0):
            points.append(
                SweepPoint(
                    "2.1",
                    _home_spec("2.1", n_ext, plan, 1000),
                    cfg,
                    _traffic(b_t / 10.0),
                )
            )
    return points


_B_STA_WEIGHT_GRID = (1.8e6, 3.0e6, 4.2e6, 5.4e6)


def _weight_grid(test_id: str, configs: Sequence[SelectionConfig]) -> list[SweepPoint]:
    """Tests 2.2 and 2.3: the two-extender home under each channel plan,
    load-aware selection and per-station demand."""
    points = []
    for plan in ("multi", "single"):
        for cfg in configs:
            for per_sta in _B_STA_WEIGHT_GRID:
                points.append(
                    SweepPoint(
                        test_id,
                        _home_spec(test_id, 2, plan, 1000),
                        cfg,
                        _traffic(per_sta),
                    )
                )
    return points


def fixed_home_positions(seed: int = FIXED_DEPLOYMENT_SEED) -> tuple[Position, ...]:
    """Ten stations for the one-deployment interference study.

    Five sit clearly on the AP side of the flat and five clearly on the
    extender side, drawn once from a named seed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    left_x = rng.uniform(2.0, 13.0, 5)
    right_x = rng.uniform(19.0, 43.0, 5)
    ys = rng.uniform(0.5, 9.5, 10)
    xs = np.concatenate([left_x, right_x])
    return tuple((float(x), float(y)) for x, y in zip(xs, ys))


_B_EXT_GRID = tuple(0.5e6 * j for j in range(25))  # 0 .. 12 Mbps

# the interferer transmits at a legacy rate, so its airtime share is large
# enough to saturate the shared channel inside the swept B_EXT window
EXTERNAL_PHY_RATE_BPS = 6e6


def _build_24() -> list[SweepPoint]:
    positions = fixed_home_positions()
    ext_channel = ChannelId(Band.GHZ_2_4, 6)
    rows: list[tuple[int, SelectionConfig]] = [
        (0, _RSSI_CFG),
        (1, _RSSI_CFG),
        (1, _la(alpha=0.5)),
        (1, _la(alpha=0.75)),
        (1, _la(alpha=1.0)),
    ]
    points = []
    for n_ext, cfg in rows:
        for b_ext in _B_EXT_GRID:
            external = (
                (
                    ExternalLoad(
                        channel=ext_channel,
                        load_bps=b_ext,
                        phy_rate_bps=EXTERNAL_PHY_RATE_BPS,
                    ),
                )
                if b_ext > 0
                else ()
            )
            points.append(
                SweepPoint(
                    "2.4",
                    _home_spec("2.4", n_ext, "multi", 1, fixed_positions=positions),
                    cfg,
                    _traffic(4.32e6),
                    external=external,
                )
            )
    return points


_BUILDERS = {
    "1.1": _build_11,
    "1.2": _build_12,
    "1.3": _build_13,
    "2.1": _build_21,
    "2.2": lambda: _weight_grid("2.2", [_la(alpha=a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]),
    "2.3": lambda: _weight_grid("2.3", [_la(beta_pct=b) for b in (0.0, 25.0, 50.0, 75.0, 100.0)]),
    "2.4": _build_24,
}


def build_test(test_id: str) -> list[SweepPoint]:
    """The full sweep grid of one campaign test."""
    try:
        builder = _BUILDERS[test_id]
    except KeyError:
        raise ValueError(
            f"unknown test id {test_id!r}; known: {', '.join(sorted(_BUILDERS))}"
        ) from None
    return builder()


# --- measured-testbed fixture ----------------------------------------------

# signal strengths measured at seven stations from the AP and the extender
TESTBED_RSSI = {
    1: (-43.0, -66.0),
    2: (-31.0, -69.0),
    3: (-38.0, -67.0),
    4: (-59.0, -41.0),
    5: (-65.0, -35.0),
    6: (-41.0, -51.0),
    7: (-46.0, -52.0),
}
TESTBED1_STAS = (1, 2, 3, 4, 5)
TESTBED2_STAS = (1, 2, 3, 6, 7)
TESTBED_BACKHAUL_RSSI = -70.0


def _sta_node_id(sta_no: int) -> int:
    return STA_ID_BASE + sta_no - 1


@dataclass(frozen=True)
class BenchFixture:
    """Measured RSSIs plus the associations observed on the real testbeds.

    ``expected_associations`` is keyed by (case label, total demand in Mbps);
    the RSSI-based cases do not depend on demand and use None.
    """

    rssi_matrix: dict[tuple[int, int], float]
    expected_associations: dict[tuple[str, Optional[float]], dict[int, int]]


def bench_fixture() -> BenchFixture:
    matrix: dict[tuple[int, int], float] = {}
    for sta_no, (rssi_ap, rssi_ext) in TESTBED_RSSI.items():
        sid = _sta_node_id(sta_no)
        matrix[(sid, 0)] = rssi_ap
        matrix[(sid, 1)] = rssi_ext

    def assoc(stas: Sequence[int], on_ext: Sequence[int]) -> dict[int, int]:
        return {
            _sta_node_id(s): (1 if s in on_ext else 0) for s in stas
        }

    expected: dict[tuple[str, Optional[float]], dict[int, int]] = {
        ("testbed1_only_ap_rssi", None): assoc(TESTBED1_STAS, ()),
        ("testbed1_rssi", None): assoc(TESTBED1_STAS, (4, 5)),
        ("testbed2_rssi", None): assoc(TESTBED2_STAS, ()),
        ("testbed2_load_aware", 5.0): assoc(TESTBED2_STAS, (7,)),
        ("testbed2_load_aware", 37.5): assoc(TESTBED2_STAS, (3, 7)),
        ("testbed2_load_aware", 50.0): assoc(TESTBED2_STAS, (3, 7)),
        ("testbed2_load_aware", 75.0): assoc(TESTBED2_STAS, (3, 7)),
        ("testbed2_load_aware", 100.0): assoc(TESTBED2_STAS, (2,)),
    }
    return BenchFixture(rssi_matrix=matrix, expected_associations=expected)


def fixture_topology(
    stas: Sequence[int] = TESTBED2_STAS,
    with_extender: bool = True,
    capable: bool = True,
) -> tuple[Topology, dict[tuple[int, int, Band], float]]:
    """Topology plus link overrides realising the measured matrix.

    Wall attenuation in the real flat makes the matrix impossible to embed in
    open space, so every access link and the backhaul link carry explicit
    RSSI overrides; positions are only placeholders.
    """
    nodes = [Node(0, NodeKind.AP, (0.0, 0.0), _serving_radios(1))]
    parents: dict[int, int] = {}
    overrides: dict[tuple[int, int, Band], float] = {}
    if with_extender:
        nodes.append(Node(1, NodeKind.EXTENDER, (10.0, 0.0), _serving_radios(6)))
        parents[1] = 0
        overrides[(1, 0, Band.GHZ_5)] = TESTBED_BACKHAUL_RSSI
    for sta_no in stas:
        sid = _sta_node_id(sta_no)
        nodes.append(
            Node(sid, NodeKind.STA, (0.0, float(sta_no)), (_sta_radio(),),
                 supports_11kv=capable)
        )
        rssi_ap, rssi_ext = TESTBED_RSSI[sta_no]
        overrides[(sid, 0, Band.GHZ_2_4)] = rssi_ap
        if with_extender:
            overrides[(sid, 1, Band.GHZ_2_4)] = rssi_ext
    topo = Topology(nodes=make_node_map(nodes), backhaul_parent=parents)
    return topo, overrides
