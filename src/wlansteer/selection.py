"""AP/extender selection mechanisms.

Two policies decide which serving node a station attaches to:

* the stock rule: highest received signal strength wins;
* a channel-load-aware rule that scores every in-range serving node j for
  station i as

      score = alpha * (w_ij + load(access channel of j))
              + (1 - alpha) * sum of load(channel of k) over j's backhaul hops

  where w_ij is the received signal normalised into [0, 1] (0 at the
  transmit power, 1 at the station sensitivity) and load() is the observed
  busy fraction of a channel.  Lower scores are better: the rule prefers
  strong links on quiet channels reached over quiet backhaul.

alpha trades the access term against the backhaul term.  Ties break towards
the AP, then towards the lower node id.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from numbers import Real
from typing import Any, Mapping, Optional

from .model import ChannelId, NodeKind, Topology, backhaul_path, set_association
from .perf import SimEnv, busy_fractions, link_rssi


class Mechanism(enum.Enum):
    RSSI_BASED = "rssi"
    LOAD_AWARE = "loadaware"


@dataclass(frozen=True)
class SelectionConfig:
    mechanism: Mechanism = Mechanism.RSSI_BASED
    alpha: float = 0.5
    beta_pct: float = 100.0
    passes: int = 1
    include_self_load: bool = True

    def __post_init__(self) -> None:
        for name in ("alpha", "beta_pct"):
            if isinstance(value := getattr(self, name), bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if not (0.0 <= self.beta_pct <= 100.0):
            raise ValueError("beta_pct must lie in [0, 100]")
        if self.passes < 1:
            raise ValueError("passes must be at least 1")


def weighted_rssi(rssi_dbm: float, tx_power_dbm: float, sensitivity_dbm: float) -> float:
    """Normalise a received level into [0, 1]; 0 at tx power, 1 at sensitivity."""
    if sensitivity_dbm >= tx_power_dbm:
        raise ValueError("sensitivity must lie below tx power")
    clamped = min(max(rssi_dbm, sensitivity_dbm), tx_power_dbm)
    return (clamped - tx_power_dbm) / (sensitivity_dbm - tx_power_dbm)


@dataclass(frozen=True)
class CandidateScore:
    sta: int
    target: int
    rssi_dbm: float
    weighted_rssi: float
    access_load: float
    backhaul_load_sum: float
    alpha: float
    score: float


@dataclass(frozen=True)
class CandidateEntry:
    target: int
    channel: ChannelId
    score: float


@dataclass(frozen=True)
class CandidateList:
    sta: int
    entries: tuple[CandidateEntry, ...]
    details: tuple[CandidateScore, ...]


def score(
    t: Topology,
    sta: int,
    target: int,
    rssi: float,
    loads: Mapping[ChannelId, float],
    cfg: SelectionConfig,
) -> CandidateScore:
    """Score one candidate serving node for one station (lower is better)."""
    target_node = t.node(target)
    access_ch = target_node.access_radio.channel
    w = weighted_rssi(
        rssi,
        target_node.access_radio.tx_power_dbm,
        t.node(sta).access_radio.sensitivity_dbm,
    )
    c_access = loads.get(access_ch, 0.0)
    c_backhaul = 0.0
    for child, _ in backhaul_path(t, target):
        ch = t.node(child).backhaul_radio.channel
        c_backhaul += loads.get(ch, 0.0)
    a = cfg.alpha
    y = a * (w + c_access) + (1.0 - a) * c_backhaul
    return CandidateScore(
        sta=sta,
        target=target,
        rssi_dbm=rssi,
        weighted_rssi=w,
        access_load=c_access,
        backhaul_load_sum=c_backhaul,
        alpha=a,
        score=y,
    )


def candidate_list(t: Topology, sta: int, scores: list[CandidateScore]) -> CandidateList:
    """``sta``'s candidate list from the scores of its in-range serving
    nodes: best first, ties to the AP, then to the lower node id."""
    scores = sorted(scores, key=lambda s: (s.score, t.nodes[s.target].kind is not NodeKind.AP,
                                           s.target))
    entries = tuple(CandidateEntry(s.target, t.nodes[s.target].access_radio.channel, s.score)
                    for s in scores)
    return CandidateList(sta=sta, entries=entries, details=tuple(scores))


def rank_candidates(
    t: Topology,
    env: SimEnv,
    sta: int,
    cfg: SelectionConfig,
    loads: Optional[Mapping[ChannelId, float]] = None,
) -> CandidateList:
    """All in-range serving nodes for ``sta``, best first by load-aware score,
    each with its score breakdown.

    The ranking reads ``cfg.alpha`` and never ``cfg.mechanism``: the stock
    rule is ``initial_association``'s.  Serving nodes whose signal sits below
    the station sensitivity never appear.
    """
    sens = t.node(sta).access_radio.sensitivity_dbm
    if loads is None:
        loads = busy_fractions(t, env)
    scores = []
    for target in t.serving_nodes():
        band = t.node(target).access_radio.channel.band
        rssi = link_rssi(env, t, sta, target, band)
        if rssi >= sens:
            scores.append(score(t, sta, target, rssi, loads, cfg))
    return candidate_list(t, sta, scores)


def initial_association(t: Topology, env: SimEnv, log: Any = None) -> Topology:
    """Attach every station to its strongest in-range serving node.

    Stations hearing nobody stay unassociated.  This is both the stock
    mechanism's final answer and the load-aware mechanism's starting point.
    ``log``, when given, is told of each association and the station's
    802.11k/v support through ``log.associated(sta, target, supports_11kv)``.
    """
    serving = t.serving_nodes()
    bands = {j: t.nodes[j].access_radio.channel.band for j in serving}
    ties = {j: 0 if t.nodes[j].kind is NodeKind.AP else 1 for j in serving}
    assoc = dict(t.associations)
    for sta in t.stations():
        sens = t.nodes[sta].access_radio.sensitivity_dbm
        best = None
        for target in serving:
            rssi = link_rssi(env, t, sta, target, bands[target])
            if rssi < sens:
                continue
            key = (-rssi, ties[target], target)
            if best is None or key < best[0]:
                best = (key, target)
        if best is not None:
            assoc[sta] = best[1]
            if log is not None:
                log.associated(sta, best[1], t.nodes[sta].supports_11kv)
        else:
            assoc.pop(sta, None)
    return replace(t, associations=assoc)


def capable_count(beta_pct: float, n_sta: int) -> int:
    """Half-up rounding of the capable-station share."""
    return int(beta_pct * n_sta / 100.0 + 0.5)


@dataclass(frozen=True)
class Move:
    sta: int
    old_parent: int
    new_parent: int


def reassociation_pass(
    t: Topology,
    env: SimEnv,
    cfg: SelectionConfig,
    capable: Optional[frozenset[int]] = None,
    log: Any = None,
) -> tuple[Topology, list[Move]]:
    """Run the load-aware steering pass over all capable stations.

    Associated capable stations are visited in ascending id.  Before each
    station's decision the channel loads are computed from the current
    association state, without the station's own airtime when
    ``include_self_load`` is off, and the decision applies at once, so
    earlier moves are visible to later ones.

    ``log``, when given, observes the pass as the 802.11k/v exchange: for
    each station ``log.measured(t, env, cl, loads)`` with its candidate list
    and the loads it was scored on, then, when it has a candidate,
    ``log.steered(sta, old_parent, new_parent, supports_11kv)``.
    """
    if cfg.mechanism is Mechanism.RSSI_BASED:
        return t, []
    if capable is None:
        capable = frozenset(
            s for s in t.stations() if t.node(s).supports_11kv
        )
    order = [s for s in sorted(capable) if t.associations.get(s) is not None]
    moves: list[Move] = []
    for _ in range(cfg.passes):
        for sta in order:
            skip = None if cfg.include_self_load else sta
            loads = busy_fractions(t, env, skip_sta=skip)
            cl = rank_candidates(t, env, sta, cfg, loads)
            if log is not None:
                log.measured(t, env, cl, loads)
            if not cl.entries:
                continue
            current, best = t.associations[sta], cl.entries[0].target
            if log is not None:
                log.steered(sta, current, best, t.nodes[sta].supports_11kv)
            if best != current:
                t = set_association(t, sta, best)
                moves.append(Move(sta=sta, old_parent=current, new_parent=best))
    return t, moves
