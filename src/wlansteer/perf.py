"""Airtime-based channel model.

Every uplink is a flow of fixed-length packets.  One transmission costs

    T = DIFS + avg_backoff_slots * slot + preamble + L / phy_rate + SIFS + ACK

and a channel is a single contention domain: all transmitters on the same
channel hear each other, so channel utilization is just the sum of offered
airtime,

    U_c = sum_f (offered_f / L) * T_f.

A channel is congested when U_c exceeds 1.  Overloaded channels serve every
flow a proportional share, so each hop on channel c delivers the fraction
min(1, 1/U_c) of what it was offered, and queueing delay per hop grows as
T / (1 - U_c), capped at a large constant so that averages stay finite.

Traffic of stations associated to an extender additionally crosses every
backhaul hop towards the AP; each backhaul link carries one aggregate flow.
External (neighbouring-network) flows occupy airtime but are excluded from
throughput and delay aggregates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Optional

from .model import (
    DEFAULT_BAND_MHZ,
    Band,
    ChannelId,
    ExternalLoad,
    Node,
    NodeKind,
    Topology,
    TrafficProfile,
    backhaul_path,
)
from .radio import (
    DEFAULT_MCS_TABLES,
    DEFAULT_PROPAGATION,
    McsTable,
    PropagationParams,
    mcs_for_rssi,
    rssi_dbm,
)


@dataclass(frozen=True)
class MacOverheads:
    """Fixed per-transmission costs, all in microseconds except the slot count."""

    difs_us: float
    sifs_us: float
    slot_us: float
    avg_backoff_slots: float
    preamble_us: float
    ack_us: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    @property
    def total_us(self) -> float:
        return (
            self.difs_us
            + self.avg_backoff_slots * self.slot_us
            + self.preamble_us
            + self.sifs_us
            + self.ack_us
        )


DEFAULT_OVERHEADS = {
    Band.GHZ_2_4: MacOverheads(
        difs_us=28.0, sifs_us=10.0, slot_us=9.0,
        avg_backoff_slots=7.5, preamble_us=40.0, ack_us=32.0,
    ),
    Band.GHZ_5: MacOverheads(
        difs_us=34.0, sifs_us=16.0, slot_us=9.0,
        avg_backoff_slots=7.5, preamble_us=40.0, ack_us=32.0,
    ),
}

CONGESTED_HOP_DELAY_MS = 10000.0


class HopKind(enum.Enum):
    ACCESS = "access"
    BACKHAUL = "backhaul"
    EXTERNAL = "external"


@dataclass(frozen=True)
class Flow:
    """One packet stream on one channel.  External flows carry no node ids."""

    src: Optional[int]
    dst: Optional[int]
    channel: ChannelId
    offered_bps: float
    phy_rate_bps: float
    kind: HopKind

    def __post_init__(self) -> None:
        if self.offered_bps < 0:
            raise ValueError("offered load must be non-negative")
        if self.phy_rate_bps <= 0:
            raise ValueError("phy rate must be positive")


@dataclass(frozen=True)
class EngineParams:
    """Physics bundle shared by every sweep point of a run."""

    propagation: PropagationParams = DEFAULT_PROPAGATION
    mcs_tables: Mapping[Band, McsTable] = field(
        default_factory=lambda: dict(DEFAULT_MCS_TABLES)
    )
    overheads: Mapping[Band, MacOverheads] = field(
        default_factory=lambda: dict(DEFAULT_OVERHEADS)
    )
    band_mhz: Mapping[Band, float] = field(
        default_factory=lambda: dict(DEFAULT_BAND_MHZ)
    )
    congested_hop_delay_ms: float = CONGESTED_HOP_DELAY_MS

    def __post_init__(self) -> None:
        for band, mhz in self.band_mhz.items():
            # path_loss_db is defined below 100 GHz, and from 1 MHz up its
            # frequency term only shrinks a link budget (see radio._BOUNDS)
            if not 1.0 <= mhz < 100000.0:
                raise ValueError(f"band_mhz.{band.value} must lie in [1, 100000) MHz,"
                                 f" got {mhz!r}")
        if self.congested_hop_delay_ms <= 0:
            raise ValueError("congested_hop_delay_ms must be positive")


@dataclass(frozen=True, kw_only=True)
class SimEnv(EngineParams):
    """Everything the channel model needs besides the topology itself: the
    physics bundle plus the demand.

    ``rssi_overrides`` pins individual links to measured values, keyed by
    (node a, node b, band) in either order; links without an override fall
    back to the propagation model.
    """

    traffic: TrafficProfile
    external: tuple[ExternalLoad, ...] = ()
    rssi_overrides: Mapping[tuple[int, int, Band], float] = field(default_factory=dict)
    # per-deployment memo {(rx, tx, band): (rssi, rate)} where rate is None
    # for links below the lowest MCS and _RATE_UNSET until first needed.
    # Positions must not change while a cache is attached.
    link_cache: Optional[dict[tuple[int, int, Band], tuple[float, object]]] = None


# placeholder for "rate not memoized yet" (None already means no usable MCS)
_RATE_UNSET: object = object()


def _computed_rssi(env: SimEnv, t: Topology, rx_id: int, tx_id: int, band: Band) -> float:
    ov = env.rssi_overrides.get((rx_id, tx_id, band))
    if ov is None:
        ov = env.rssi_overrides.get((tx_id, rx_id, band))
    if ov is not None:
        return ov
    rx = t.node(rx_id)
    tx = t.node(tx_id)
    radio = next((r for r in tx.radios if r.band is band), None)
    if radio is None:
        raise ValueError(f"node {tx_id} has no {band.value} GHz radio")
    return rssi_dbm(
        radio, tx.position, rx.position, env.propagation, env.band_mhz[band]
    )


def _computed_rate(
    env: SimEnv, t: Topology, rx_id: int, tx_id: int, band: Band, rssi: float
) -> Optional[float]:
    rx_ss = min(r.spatial_streams for r in t.node(rx_id).radios)
    tx_ss = min(r.spatial_streams for r in t.node(tx_id).radios)
    got = mcs_for_rssi(env.mcs_tables[band], rssi, min(rx_ss, tx_ss))
    return None if got is None else got[1]


def link_rssi(env: SimEnv, t: Topology, rx_id: int, tx_id: int, band: Band) -> float:
    """Signal received at ``rx_id`` from ``tx_id`` on ``band``."""
    if env.link_cache is not None:
        hit = env.link_cache.get((rx_id, tx_id, band))
        if hit is not None:
            return hit[0]
    return _computed_rssi(env, t, rx_id, tx_id, band)


def link_rate(env: SimEnv, t: Topology, rx_id: int, tx_id: int, band: Band) -> float:
    key = (rx_id, tx_id, band)
    hit = None if env.link_cache is None else env.link_cache.get(key)
    rssi, rate = hit or (_computed_rssi(env, t, rx_id, tx_id, band), _RATE_UNSET)
    if rate is _RATE_UNSET:
        rate = _computed_rate(env, t, rx_id, tx_id, band, rssi)
        if hit is not None:  # links outside the cache stay out of it
            env.link_cache[key] = (rssi, rate)
    if rate is None:
        raise below_mcs_error(tx_id, rx_id, rssi)
    return rate


def below_mcs_error(tx_id: int, rx_id: int, rssi: float) -> ValueError:
    """The error of a link whose RSSI lies below the lowest MCS."""
    return ValueError(
        f"link {tx_id}->{rx_id} at {rssi:.1f} dBm is below the lowest MCS; "
        "table floor must cover the association sensitivity"
    )


def with_link_cache(t: Topology, env: SimEnv) -> SimEnv:
    """Environment copy carrying precomputed per-link signal and rate.

    Associations may change afterwards; node positions and radios may not.
    """
    cache: dict[tuple[int, int, Band], tuple[float, object]] = {}
    serving = t.serving_nodes()
    for sta in t.stations():
        for target in serving:
            band = t.node(target).access_radio.channel.band
            rssi = _computed_rssi(env, t, sta, target, band)
            cache[(sta, target, band)] = (rssi, _RATE_UNSET)
    for ext in t.extenders():
        parent = t.backhaul_parent.get(ext)
        if parent is None:
            continue
        band = t.node(ext).backhaul_radio.channel.band
        rssi = _computed_rssi(env, t, ext, parent, band)
        cache[(ext, parent, band)] = (rssi, _RATE_UNSET)
    return replace(env, link_cache=cache)


def flow_airtime_s(flow: Flow, packet_length_bits: int, o: MacOverheads) -> float:
    """Airtime of one packet of this flow, in seconds."""
    return o.total_us * 1e-6 + packet_length_bits / flow.phy_rate_bps


def build_flows(t: Topology, env: SimEnv, skip_sta: Optional[int] = None) -> list[Flow]:
    """Expand topology plus demand into per-channel flows.

    One access flow per associated station, one aggregate flow per backhaul
    link, then the external loads.  ``skip_sta`` removes that station's
    traffic everywhere (used when scoring a candidate move without the
    station's own contribution).
    """
    per_sta = env.traffic.per_sta_load_bps
    flows: list[Flow] = []
    through: dict[int, float] = {}
    access_ch = {j: t.nodes[j].access_radio.channel for j in t.serving_nodes()}
    uplink = {j: [c for c, _ in backhaul_path(t, j)] for j in access_ch}

    for sta, parent_id in sorted(t.associations.items()):
        ch = access_ch[parent_id]
        # rated even when skipped: a link below the lowest MCS fails in station order
        rate = link_rate(env, t, sta, parent_id, ch.band)
        if sta == skip_sta:
            continue
        flows.append(Flow(sta, parent_id, ch, per_sta, rate, HopKind.ACCESS))
        # the station's load rides every backhaul hop of its serving node
        for child in uplink[parent_id]:
            through[child] = through.get(child, 0.0) + per_sta

    for ext in t.extenders():
        parent_id = t.backhaul_parent[ext]
        ch = t.nodes[ext].backhaul_radio.channel
        rate = link_rate(env, t, ext, parent_id, ch.band)
        flows.append(
            Flow(ext, parent_id, ch, through.get(ext, 0.0), rate, HopKind.BACKHAUL)
        )

    for x in env.external:
        flows.append(Flow(None, None, x.channel, x.load_bps, x.phy_rate_bps, HopKind.EXTERNAL))
    return flows


def topology_channels(t: Topology, env: SimEnv) -> list[ChannelId]:
    """Every channel in play, including idle ones (their load is zero)."""
    chans = set()
    for i in t.serving_nodes():
        n = t.node(i)
        chans.add(n.access_radio.channel)
        chans.add(n.backhaul_radio.channel)
    for x in env.external:
        chans.add(x.channel)
    return sorted(chans)


def channel_utilization(
    flows: list[Flow], env: SimEnv, channels: Optional[list[ChannelId]] = None
) -> dict[ChannelId, float]:
    L = env.traffic.packet_length_bits
    fixed_s = {b: o.total_us * 1e-6 for b, o in env.overheads.items()}
    util: dict[ChannelId, float] = {c: 0.0 for c in channels or []}
    for f in flows:
        airtime = fixed_s[f.channel.band] + L / f.phy_rate_bps
        util[f.channel] = util.get(f.channel, 0.0) + (f.offered_bps / L) * airtime
    return util


def busy_fractions(
    t: Topology, env: SimEnv, skip_sta: Optional[int] = None
) -> dict[ChannelId, float]:
    """Observed occupation per channel, clamped to [0, 1]."""
    flows = build_flows(t, env, skip_sta=skip_sta)
    util = channel_utilization(flows, env, topology_channels(t, env))
    return {c: min(1.0, u) for c, u in util.items()}


@dataclass(frozen=True)
class StaPerf:
    delivered_bps: float
    delay_ms: float


@dataclass(frozen=True)
class ChannelState:
    channel: ChannelId
    utilization: float
    busy_fraction: float


@dataclass(frozen=True)
class PerfReport:
    per_sta: Mapping[int, StaPerf]
    per_channel: Mapping[ChannelId, ChannelState]
    network_throughput_pct: float
    avg_delay_ms: float
    congested: bool
    n_sta: int
    unassociated: tuple[int, ...]


def _hop_delay_ms(airtime_s: float, util: float, cap_ms: float) -> float:
    if util >= 1.0:
        return cap_ms
    return min(cap_ms, airtime_s * 1e3 / (1.0 - util))


def evaluate(t: Topology, env: SimEnv) -> PerfReport:
    """Steady-state throughput and delay for the current association state."""
    L = env.traffic.packet_length_bits
    flows = build_flows(t, env)
    util = channel_utilization(flows, env, topology_channels(t, env))
    share = {c: (min(1.0, 1.0 / u) if u > 0 else 1.0) for c, u in util.items()}

    backhaul_by_src = {f.src: f for f in flows if f.kind is HopKind.BACKHAUL}
    access_by_src = {f.src: f for f in flows if f.kind is HopKind.ACCESS}
    uplink = {
        j: [c for c, _ in backhaul_path(t, j)] for j in t.serving_nodes()
    }

    per_sta: dict[int, StaPerf] = {}
    unassociated: list[int] = []
    delivered_sum = 0.0
    offered_sum = 0.0
    delay_sum = 0.0
    for sta in t.stations():
        parent_id = t.associations.get(sta)
        if parent_id is None:
            unassociated.append(sta)
            continue
        hops = [access_by_src[sta]]
        for child in uplink[parent_id]:
            hops.append(backhaul_by_src[child])
        frac = 1.0
        delay_ms = 0.0
        for f in hops:
            o = env.overheads[f.channel.band]
            at = flow_airtime_s(f, L, o)
            frac *= share[f.channel]
            delay_ms += _hop_delay_ms(at, util[f.channel], env.congested_hop_delay_ms)
        delivered = env.traffic.per_sta_load_bps * frac
        per_sta[sta] = StaPerf(delivered_bps=delivered, delay_ms=delay_ms)
        delivered_sum += delivered
        offered_sum += env.traffic.per_sta_load_bps
        delay_sum += delay_ms

    n_assoc = len(per_sta)
    thr = 100.0 if offered_sum == 0 else 100.0 * delivered_sum / offered_sum
    report = PerfReport(
        per_sta=per_sta,
        per_channel={
            c: ChannelState(c, u, min(1.0, u)) for c, u in sorted(util.items())
        },
        network_throughput_pct=thr,
        avg_delay_ms=delay_sum / n_assoc if n_assoc else 0.0,
        congested=any(u > 1.0 for u in util.values()),
        n_sta=len(t.stations()),
        unassociated=tuple(unassociated),
    )
    return report
