"""The 802.11k/v frame exchange, as an observer of the steering pass.

``EventLog`` records the frames that carry the steering decisions, and
decides nothing itself: the engine's batched kernel (``runner._Batch``)
calls its hooks for each traced deployment, and ``run_mechanism`` passes it
to ``selection.initial_association`` and ``selection.reassociation_pass``
for one topology.  The exchange has four stages:

Stage 1: stations associate by signal strength (plain association frames).
Stage 2: the AP asks capable stations for neighbour measurements and asks
         every serving node for the observed occupation of its channels.
Stage 3: the AP answers each capable station with a steering request carrying
         the ranked candidate list.
Stage 4: the station accepts and reassociates to the first entry.

Stages 2 to 4 run for one capable station at a time, in ascending id and
once per pass, each on the loads that the moves before it left.  The stock
mechanism stops after stage 1 and exchanges no measurement or steering frames
at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Union

from .model import Band, ChannelId, Topology
from .perf import SimEnv
from .selection import (
    CandidateList,
    SelectionConfig,
    initial_association,
    reassociation_pass,
)

MEASUREMENT_DURATION_MS = 50.0
AP_ID = 0


# --- frames -----------------------------------------------------------------


@dataclass(frozen=True)
class AssocRequest:
    sta: int
    target: int


@dataclass(frozen=True)
class AssocResponse:
    target: int
    sta: int
    accepted: bool
    supports_11kv_echo: bool


@dataclass(frozen=True)
class BeaconRequest:
    channels: tuple[ChannelId, ...]
    mode: str = "active"


@dataclass(frozen=True)
class BeaconReportEntry:
    bssid: int
    frequency_mhz: float
    channel: ChannelId
    rssi_dbm: float


@dataclass(frozen=True)
class BeaconReport:
    entries: tuple[BeaconReportEntry, ...]


@dataclass(frozen=True)
class ChannelLoadRequest:
    channel: ChannelId


@dataclass(frozen=True)
class ChannelLoadReport:
    channel: ChannelId
    busy_fraction: float
    measurement_duration_ms: float = MEASUREMENT_DURATION_MS


@dataclass(frozen=True)
class BtmRequest:
    sta: int
    candidates: CandidateList


@dataclass(frozen=True)
class BtmResponse:
    sta: int
    accept: bool


Frame = Union[
    AssocRequest,
    AssocResponse,
    BeaconRequest,
    BeaconReport,
    ChannelLoadRequest,
    ChannelLoadReport,
    BtmRequest,
    BtmResponse,
]

@dataclass(frozen=True)
class LogEntry:
    step: int
    stage: int
    src: int
    dst: int
    frame: Frame


@dataclass
class EventLog:
    """Frame log; the ``associated``, ``measured`` and ``steered`` hooks
    write the frames of the association and steering decisions they are
    handed."""

    entries: list[LogEntry] = field(default_factory=list)

    def append(self, stage: int, src: int, dst: int, frame: Frame) -> None:
        self.entries.append(LogEntry(len(self.entries), stage, src, dst, frame))

    def frames_for(self, node_id: int) -> list[LogEntry]:
        return [e for e in self.entries if node_id in (e.src, e.dst)]

    def measurement_frames(self) -> list[LogEntry]:
        """The 802.11k/v frames: every frame but plain association."""
        return [
            e for e in self.entries
            if not isinstance(e.frame, (AssocRequest, AssocResponse))
        ]

    def _associate(self, stage: int, sta: int, target: int, supports_11kv: bool) -> None:
        self.append(stage, sta, target, AssocRequest(sta=sta, target=target))
        self.append(stage, target, sta, AssocResponse(
            target=target, sta=sta, accepted=True, supports_11kv_echo=supports_11kv))

    def associated(self, sta: int, target: int, supports_11kv: bool) -> None:
        """Stage 1: ``sta``, which supports 802.11k/v or not, joined its
        strongest serving node."""
        self._associate(1, sta, target, supports_11kv)

    def measured(
        self,
        t: Topology,
        env: SimEnv,
        cl: CandidateList,
        loads: Mapping[ChannelId, float],
    ) -> None:
        """Stages 2 and 3 for the station ``cl`` ranks.

        ``t`` gives only the serving nodes and their radios, and ``env`` the
        band frequencies.  The station reports every serving node it hears,
        with the RSSI its ranking used; every serving radio reports the
        occupation of its channel from ``loads``; then the station, when it
        has a candidate, receives its ranked list.
        """
        scan_channels = tuple(
            sorted({t.node(i).access_radio.channel for i in t.serving_nodes()})
        )
        self.append(2, AP_ID, cl.sta, BeaconRequest(channels=scan_channels))
        entries = []
        # serving-node order, which is id order
        for s in sorted(cl.details, key=lambda s: s.target):
            ch = t.node(s.target).access_radio.channel
            entries.append(
                BeaconReportEntry(
                    bssid=s.target,
                    frequency_mhz=env.band_mhz[ch.band],
                    channel=ch,
                    rssi_dbm=s.rssi_dbm,
                )
            )
        self.append(2, cl.sta, AP_ID, BeaconReport(entries=tuple(entries)))
        for node_id in t.serving_nodes():
            for radio in t.node(node_id).radios:
                ch = radio.channel
                if node_id != AP_ID:
                    self.append(2, AP_ID, node_id, ChannelLoadRequest(channel=ch))
                self.append(
                    2,
                    node_id,
                    AP_ID,
                    ChannelLoadReport(channel=ch, busy_fraction=loads.get(ch, 0.0)),
                )
        if cl.entries:
            self.append(3, AP_ID, cl.sta, BtmRequest(sta=cl.sta, candidates=cl))

    def steered(self, sta: int, old_parent: int, new_parent: int, supports_11kv: bool) -> None:
        """Stage 4: ``sta`` accepts; it reassociates only when it moves."""
        self.append(4, sta, AP_ID, BtmResponse(sta=sta, accept=True))
        if new_parent != old_parent:
            self._associate(4, sta, new_parent, supports_11kv)


def _fields(value):
    """``json.dumps``'s encoder for what it cannot write itself: a frame or
    nested dataclass as an object of its fields, a band as its value.  A
    frame's instance dict holds its fields and nothing else."""
    if isinstance(value, Band):
        return value.value
    return vars(value)


def export_events(log: EventLog, path: str) -> None:
    """One JSON record per line: step, stage, endpoints, frame type, payload."""
    with open(path, "w", encoding="utf-8") as fh:
        for e in log.entries:
            rec = {
                "step": e.step,
                "stage": e.stage,
                "src": e.src,
                "dst": e.dst,
                "frame": type(e.frame).__name__,
                "fields": e.frame,
            }
            fh.write(json.dumps(rec, sort_keys=True, default=_fields) + "\n")


def run_mechanism(
    t: Topology, env: SimEnv, cfg: SelectionConfig
) -> tuple[Topology, EventLog]:
    """Full association cycle for either mechanism, with frame log."""
    log = EventLog()
    t = initial_association(t, env, log)
    t, _ = reassociation_pass(t, env, cfg, log=log)
    return t, log
