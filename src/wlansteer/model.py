"""Domain model: nodes, radios, topology and traffic demand.

A network is a single gateway AP (node id 0), zero or more repeaters
("extenders") that reach the AP over a dedicated 5 GHz backhaul tree, and
client stations on 2.4 GHz access links.  Topology objects are treated as
immutable values: every mutation helper returns an updated copy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Optional


class Band(enum.Enum):
    """Frequency band of a radio."""

    GHZ_2_4 = "2.4"
    GHZ_5 = "5"


# nominal centre frequencies in MHz
DEFAULT_BAND_MHZ = {Band.GHZ_2_4: 2400.0, Band.GHZ_5: 5000.0}


class NodeKind(enum.Enum):
    AP = "ap"
    EXTENDER = "extender"
    STA = "sta"


@dataclass(frozen=True)
class ChannelId:
    """A channel is identified by band plus channel number."""

    band: Band
    number: int

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise ValueError(f"channel number must be positive, got {self.number}")

    def __lt__(self, other: "ChannelId") -> bool:
        if not isinstance(other, ChannelId):
            return NotImplemented
        return (self.band.value, self.number) < (other.band.value, other.number)

    def __str__(self) -> str:  # used in exports and log payloads
        return f"{self.number}@{self.band.value}"


@dataclass(frozen=True)
class RadioConfig:
    band: Band
    channel: ChannelId
    tx_power_dbm: float = 20.0
    sensitivity_dbm: float = -90.0
    spatial_streams: int = 2

    def __post_init__(self) -> None:
        if not (1 <= self.spatial_streams <= 4):
            raise ValueError("spatial_streams must be in 1..4")
        if self.sensitivity_dbm >= self.tx_power_dbm:
            raise ValueError("sensitivity must lie below tx power")
        if self.channel.band is not self.band:
            raise ValueError("radio channel band mismatch")


Position = tuple[float, float]


@dataclass(frozen=True)
class Node:
    """One device.  APs and extenders carry an access radio and a backhaul
    radio on distinct bands; stations carry a single access radio."""

    node_id: int
    kind: NodeKind
    position: Position
    radios: tuple[RadioConfig, ...]
    supports_11kv: bool = False
    _access: RadioConfig = field(init=False, repr=False, compare=False)
    _backhaul: Optional[RadioConfig] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        if self.kind in (NodeKind.AP, NodeKind.EXTENDER):
            if len(self.radios) != 2 or self.radios[0].band is self.radios[1].band:
                raise ValueError(
                    f"node {self.node_id}: AP/extender needs two radios on distinct bands"
                )
            if self.supports_11kv:
                raise ValueError(f"node {self.node_id}: capability flag is for stations")
            access = next(
                (r for r in self.radios if r.band is Band.GHZ_2_4), self.radios[0]
            )
            backhaul = next(
                (r for r in self.radios if r.band is Band.GHZ_5), self.radios[1]
            )
        else:
            if len(self.radios) != 1:
                raise ValueError(f"node {self.node_id}: station carries exactly one radio")
            access, backhaul = self.radios[0], None
        object.__setattr__(self, "_access", access)
        object.__setattr__(self, "_backhaul", backhaul)

    @property
    def access_radio(self) -> RadioConfig:
        """The client-facing radio (the station's only radio)."""
        return self._access

    @property
    def backhaul_radio(self) -> RadioConfig:
        if self._backhaul is None:
            raise ValueError(f"node {self.node_id}: stations have no backhaul radio")
        return self._backhaul


# most extenders on one backhaul path to the AP
MAX_CHAIN = 2


@dataclass(frozen=True)
class Topology:
    """Nodes plus association state.

    ``associations`` maps station id to its serving AP/extender.
    ``backhaul_parent`` maps extender id to its uplink AP/extender and must
    form a tree rooted at the AP with at most ``MAX_CHAIN`` extenders on any
    root path.
    """

    nodes: Mapping[int, Node]
    associations: Mapping[int, int] = field(default_factory=dict)
    backhaul_parent: Mapping[int, int] = field(default_factory=dict)

    def node(self, node_id: int) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ValueError(f"unknown node id {node_id}") from None

    # the three id tuples are memoized on first use (node sets never change
    # after construction, only associations do); memo attributes are not
    # dataclass fields, so equality, repr and replace() ignore them
    def _ids(self, attr: str, kinds: tuple[NodeKind, ...]) -> tuple[int, ...]:
        try:
            return getattr(self, attr)
        except AttributeError:
            got = tuple(
                sorted(i for i, n in self.nodes.items() if n.kind in kinds)
            )
            object.__setattr__(self, attr, got)
            return got

    def stations(self) -> tuple[int, ...]:
        return self._ids("_memo_stations", (NodeKind.STA,))

    def extenders(self) -> tuple[int, ...]:
        return self._ids("_memo_extenders", (NodeKind.EXTENDER,))

    def serving_nodes(self) -> tuple[int, ...]:
        """AP and extenders, AP first."""
        return self._ids("_memo_serving", (NodeKind.AP, NodeKind.EXTENDER))


def validate_topology(t: Topology) -> list[str]:
    """Return one message per invariant violation; empty list means valid."""
    problems: list[str] = []
    ap = t.nodes.get(0)
    if ap is None or ap.kind is not NodeKind.AP:
        problems.append("node 0 must exist and be the AP")
    for i, n in sorted(t.nodes.items()):
        if n.node_id != i:
            problems.append(f"node {i}: key does not match node_id {n.node_id}")
        if n.kind is NodeKind.AP and i != 0:
            problems.append(f"node {i}: only node 0 may be an AP")

    for sta, parent in sorted(t.associations.items()):
        sn = t.nodes.get(sta)
        pn = t.nodes.get(parent)
        if sn is None or sn.kind is not NodeKind.STA:
            problems.append(f"association {sta}->{parent}: {sta} is not a station")
        if pn is None or pn.kind is NodeKind.STA:
            problems.append(f"association {sta}->{parent}: target {parent} cannot serve")

    for ext in t.extenders():
        if ext not in t.backhaul_parent:
            problems.append(f"extender {ext}: missing backhaul parent")
    for child, parent in sorted(t.backhaul_parent.items()):
        cn = t.nodes.get(child)
        if cn is None or cn.kind is not NodeKind.EXTENDER:
            problems.append(f"backhaul {child}->{parent}: {child} is not an extender")
            continue
        pn = t.nodes.get(parent)
        if pn is None or pn.kind is NodeKind.STA:
            problems.append(f"backhaul {child}->{parent}: invalid parent {parent}")
            continue
        try:
            hops = len(backhaul_path(t, child))
        except ValueError as error:  # a cycle, a dangling node or a missing parent
            problems.append(f"backhaul path from {child}: {error}")
            continue
        if hops > MAX_CHAIN:
            problems.append(
                f"extender {child}: chain of {hops} extenders exceeds limit {MAX_CHAIN}"
            )
    return problems


def backhaul_path(t: Topology, node_id: int) -> list[tuple[int, int]]:
    """Ordered uplink hops (child, parent) from ``node_id`` to the AP.

    The AP itself yields an empty path.  Raises on stations, unknown ids and
    cyclic trees.
    """
    n = t.node(node_id)
    if n.kind is NodeKind.STA:
        raise ValueError(f"node {node_id} is a station, not part of the backhaul tree")
    path: list[tuple[int, int]] = []
    cur = node_id
    seen = set()
    while t.node(cur).kind is not NodeKind.AP:
        if cur in seen:
            raise ValueError(f"backhaul cycle at extender {cur}")
        seen.add(cur)
        parent = t.backhaul_parent.get(cur)
        if parent is None:
            raise ValueError(f"extender {cur} has no backhaul parent")
        path.append((cur, parent))
        cur = parent
    return path


def set_association(t: Topology, sta_id: int, parent_id: int) -> Topology:
    """Reassociate one station; returns the updated topology.

    Signal-strength feasibility is the caller's concern, kinds are checked
    here.
    """
    sn = t.node(sta_id)
    pn = t.node(parent_id)
    if sn.kind is not NodeKind.STA:
        raise ValueError(f"node {sta_id} is not a station")
    if pn.kind is NodeKind.STA:
        raise ValueError(f"node {parent_id} cannot serve stations")
    return replace(t, associations={**t.associations, sta_id: parent_id})


@dataclass(frozen=True)
class TrafficProfile:
    """Uplink demand: every associated station offers the same load."""

    packet_length_bits: int
    per_sta_load_bps: float
    total_load_bps: float

    def __post_init__(self) -> None:
        if self.packet_length_bits <= 0:
            raise ValueError("packet_length_bits must be positive")
        if self.per_sta_load_bps < 0:
            raise ValueError("per-station load must be non-negative")

    @classmethod
    def for_stations(
        cls, per_sta_load_bps: float, n_sta: int, packet_length_bits: int = 12000
    ) -> "TrafficProfile":
        return cls(
            packet_length_bits=packet_length_bits,
            per_sta_load_bps=per_sta_load_bps,
            total_load_bps=per_sta_load_bps * n_sta,
        )


@dataclass(frozen=True)
class ExternalLoad:
    """Traffic of a neighbouring network sharing a channel.

    It occupies airtime on ``channel`` but is not part of the network under
    study, so it never appears in throughput or delay aggregates.
    """

    channel: ChannelId
    load_bps: float
    phy_rate_bps: float = 65e6

    def __post_init__(self) -> None:
        if self.load_bps < 0:
            raise ValueError("external load must be non-negative")
        if self.phy_rate_bps <= 0:
            raise ValueError("external phy rate must be positive")


def make_node_map(nodes: Iterable[Node]) -> dict[int, Node]:
    out: dict[int, Node] = {}
    for n in nodes:
        if n.node_id in out:
            raise ValueError(f"duplicate node id {n.node_id}")
        out[n.node_id] = n
    return out
