"""Campaign execution: sweep grids in, per-deployment rows and aggregates out.

A run walks the sweep points of one campaign test, regenerates every
deployment from its (seed, index) substream, applies the configured steering
mechanism and scores the result.  Outputs are byte-stable: the same grid and
seed produce identical CSV/JSON no matter how many worker processes are used,
because randomness is keyed to the deployment index alone and results are
merged in grid order.

Sweep points that read the same inputs of ``deployment_draw`` (and have the
same ``k``) form a draw group: every demand step of a curve replays the same
stations.  A group is walked in slices of deployments.  Each deployment is
drawn once, and each transmitter's RSSI column over the slice's stations is
computed once (``_Columns``, keyed by position, tx power and frequency, so
that link geometries with the same AP or extender share it).  A link
geometry of the group (``_Geometry``: what ``build_topology`` reads, the
engine parameters and the packet length) stacks its columns into the slice's
RSSI table, strongest-signal associations and airtimes just before its
first batch, and drops them after its last, so a slice holds one geometry's
links at a time.  Each batch is one numpy kernel (``_Batch``) that steers
and evaluates the geometry's points that share the pass flags together, on
rows of (point, deployment) pairs laid out point-major, so that a point's
rows are one contiguous run.  It computes what ``initial_association``,
``reassociation_pass`` and ``evaluate`` compute, to the last bit; those
functions stay the single-topology interface and the kernel's oracle.

A worker pool gets (draw group, contiguous deployment range) tasks, one range
per worker; each range holds all of the group's points, so all cost the same.
A group with fewer deployments than workers is dealt out by its points too.
The pool lives for the whole process: the first run on more than one worker
starts it, later runs with the same worker count reuse its processes (and
the modules they have imported), a run with another count replaces it, and
it is closed at exit.  Only a process that makes several runs gains: one
that makes a single run, as ``wlansteer run`` does, starts the pool once
and closes it at exit.

Results are columnar.  Each task returns, per point, a block: the point's
constant fields once, then a column each of throughput, delay and congestion
and one int8 serving index per station and deployment.  The parent joins
each point's blocks in deployment order and sums its aggregate over them in
that order, as a single process would.  ``RunResult.rows`` and
``evaluate_point``'s rows are a ``ResultRows`` that builds each ``ResultRow``
only when it is read.  The exports read blocks too, and turn a plain list of
rows into blocks first; a run writes both row files in one walk.  Each
distinct constant is spelled once per export, each row's floats once for
both files, and each distinct association vector once, joined from pieces
made per layout, for the consecutive points that share it.

The 802.11k/v frame trace observes the kernel: a traced batch gives each row
an ``EventLog``, which gets the row's frames from the arrays its decisions
are made on, so no deployment is steered twice.  Logs wait for their batch
to end, so a traced task walks slices of 32 rows, not ``_ROWS``.
"""

from __future__ import annotations

import atexit
import csv
import io
import json
import math
import multiprocessing
import operator
import os
from array import array
from bisect import bisect_right
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate, chain
from typing import Optional, Sequence

import numpy as np

from .model import Position, backhaul_path
from .perf import EngineParams, SimEnv, below_mcs_error, link_rate, topology_channels
from .radio import PropagationParams, rssi_column
from .selection import CandidateScore, Mechanism, candidate_list, capable_count
from .protocol import EventLog, export_events
from .scenarios import (
    STA_ID_BASE,
    SweepPoint,
    add_stations,
    build_test,
    build_topology,
    deployment_draw,
    draw_key,
    topology_key,
)


@dataclass(frozen=True)
class ResultRow:
    """Outcome of one deployment under one sweep point."""

    test_id: str
    rssi_ap_e_dbm: Optional[float]
    n_ext: int
    channel_plan: str
    b_ext_bps: float
    deployment_index: int
    mechanism: str
    alpha: float
    beta_pct: float
    b_t_bps: float
    throughput_pct: float
    avg_delay_ms: float
    congested: bool
    associations: dict[int, Optional[int]]


@dataclass(frozen=True)
class Aggregate:
    """Deployment-averaged outcome of one sweep point."""

    test_id: str
    rssi_ap_e_dbm: Optional[float]
    n_ext: int
    channel_plan: str
    b_ext_bps: float
    mechanism: str
    alpha: float
    beta_pct: float
    b_t_bps: float
    k: int
    mean_throughput_pct: float
    mean_delay_ms: float
    congested_pct: float
    association_rate_pct: float


# what rows.csv and results.json write of each row besides its associations
_ROW_FIELDS = tuple(f.name for f in fields(ResultRow) if f.name != "associations")
# the rows.csv header of ten-station deployments, as in every shipped grid
ROW_COLUMNS = _ROW_FIELDS + tuple(f"sta_{i}" for i in range(STA_ID_BASE, STA_ID_BASE + 10))
AGGREGATE_COLUMNS = tuple(f.name for f in fields(Aggregate))

# the row fields each deployment sets; the others are its sweep point's
_PER_ROW = ("deployment_index", "throughput_pct", "avg_delay_ms", "congested")
_CONSTANT = tuple(f for f in _ROW_FIELDS if f not in _PER_ROW)
_constant = operator.attrgetter(*_CONSTANT)


class _Block:
    """Consecutive rows that differ only in what each deployment sets, held
    as columns.  ``const`` maps each ``_CONSTANT`` field to its value and
    ``nodes`` gives the serving node of each serving index.  Row ``i`` is
    deployment ``first + i``: float64 throughput and delay, a congestion byte
    and an int8 serving index per station of ``sta_ids``, -1 when
    unassociated.  A block made with room for ``rows`` rows holds zeros there
    until ``put`` writes them; sized once, its columns never grow in between
    the kernel's arrays, which would leave the heap fragmented."""

    def __init__(self, const: dict, sta_ids: tuple[int, ...], nodes: list, first: int,
                 rows: int = 0):
        self.const, self.sta_ids, self.nodes, self.first = const, sta_ids, nodes, first
        self.thr, self.delay = array("d", bytes(8 * rows)), array("d", bytes(8 * rows))
        self.congested, self.serving = bytearray(rows), array("b", bytes(rows * len(sta_ids)))

    def __len__(self) -> int:
        return len(self.thr)

    def append(self, thr: float, delay: float, congested: bool, serving: list[int]) -> None:
        self.thr.append(thr)
        self.delay.append(delay)
        self.congested.append(congested)
        self.serving.extend(serving)

    def put(self, i: int, thr, delay, congested, serving) -> None:
        """Write rows ``i`` on from numpy columns: float64 throughput and
        delay, bool congestion and int8 serving indices ``(rows, n_sta)``."""
        j, n = i + len(thr), len(self.sta_ids)
        memoryview(self.thr)[i:j], memoryview(self.delay)[i:j] = thr, delay
        self.congested[i:j] = congested.tobytes()
        memoryview(self.serving)[i * n : j * n] = serving.reshape(-1)

    def extend(self, other: _Block) -> None:
        """Add the rows of the deployment range that follows."""
        self.thr.extend(other.thr)
        self.delay.extend(other.delay)
        self.congested.extend(other.congested)
        self.serving.extend(other.serving)

    def vectors(self) -> list[bytes]:
        """Each row's serving indices as bytes, -1 as 0xff."""
        raw, n = self.serving.tobytes(), len(self.sta_ids)
        return [raw[i * n : (i + 1) * n] for i in range(len(self))]

    def row(self, i: int) -> ResultRow:
        n, nodes = len(self.sta_ids), self.nodes
        serving = self.serving[i * n : (i + 1) * n]
        return ResultRow(
            **self.const, deployment_index=self.first + i,
            throughput_pct=self.thr[i], avg_delay_ms=self.delay[i],
            congested=bool(self.congested[i]),
            associations={sid: (nodes[j] if j >= 0 else None)
                          for sid, j in zip(self.sta_ids, serving)},
        )


def _blocks(rows: Sequence[ResultRow]) -> list[_Block]:
    """A run's blocks, or a list's rows cut into blocks wherever a row stops
    sharing the last one's constant fields (by type and repr), station ids
    or deployment sequence.  The columns hold throughput and delay as floats
    and congestion as a flag, as a run makes them, so a hand-built row's
    throughput ``100`` reads back, and is exported, as ``100.0``."""
    if isinstance(rows, ResultRows):
        return rows.blocks
    blocks: list[_Block] = []
    last = None
    for row in rows:
        const, sta_ids = _constant(row), tuple(sorted(row.associations))
        key = (tuple(map(type, const)), tuple(map(repr, const)), sta_ids)
        if (key, row.deployment_index) != last:
            blocks.append(_Block(dict(zip(_CONSTANT, const)), sta_ids, [], row.deployment_index))
        block = blocks[-1]
        nodes = [row.associations[sid] for sid in sta_ids]
        block.nodes.extend({n for n in nodes if n is not None}.difference(block.nodes))
        serving = [-1 if n is None else block.nodes.index(n) for n in nodes]
        block.append(row.throughput_pct, row.avg_delay_ms, bool(row.congested), serving)
        last = (key, row.deployment_index + 1)
    return blocks


class ResultRows(Sequence):
    """A run's rows in (point, deployment) order, held as blocks of columns;
    each ``ResultRow`` is built when it is read."""

    def __init__(self, blocks: list[_Block]) -> None:
        self.blocks = blocks
        self._ends = list(accumulate(map(len, blocks)))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError("row index out of range")
        i %= len(self)
        b = bisect_right(self._ends, i)
        return self.blocks[b].row(i - self._ends[b] + len(self.blocks[b]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (ResultRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


# the most worker processes a run may start, the same on every machine so
# that a config that validates on one validates on all
MAX_WORKERS = 64


@dataclass
class RunConfig:
    """What to run and how; None leaves the grid's own value untouched.

    ``mechanism``, ``channel_plan``, ``n_ext`` and ``b_t_bps`` filter the
    grid; ``alpha``, ``beta_pct``, ``k`` and ``seed`` rewrite it.
    """

    test_id: str
    alpha: Optional[float] = None
    beta_pct: Optional[float] = None
    k: Optional[int] = None
    seed: Optional[int] = None
    mechanism: Optional[Mechanism] = None
    channel_plan: Optional[str] = None
    n_ext: Optional[int] = None
    b_t_bps: Optional[tuple[float, ...]] = None
    workers: int = 1
    out_dir: Optional[str] = None
    emit_events: bool = False
    params: EngineParams = field(default_factory=EngineParams)

    def __post_init__(self) -> None:
        # each message opens with the field's name, which config and cli
        # turn into the key or the flag that set it
        for name, value in (("k", self.k), ("workers", self.workers)):
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")
        if isinstance(self.mechanism, str):
            self.mechanism = Mechanism(self.mechanism)
        if self.b_t_bps is not None:
            self.b_t_bps = tuple(float(b) for b in self.b_t_bps)


@dataclass(frozen=True)
class RunResult:
    points: tuple[SweepPoint, ...]
    rows: Sequence[ResultRow]  # a ResultRows when run() made it
    aggregates: tuple[Aggregate, ...]


def _b_t_matches(value: float, wanted: Sequence[float]) -> bool:
    return any(math.isclose(value, w, rel_tol=1e-9, abs_tol=0.5) for w in wanted)


def apply_overrides(points: Sequence[SweepPoint], cfg: RunConfig) -> list[SweepPoint]:
    """The points ``cfg`` keeps, rewritten: each distinct ``ScenarioSpec``
    once, and a point that no rewrite touches not at all."""
    retune = {f: v for f, v in (("alpha", cfg.alpha), ("beta_pct", cfg.beta_pct)) if v is not None}
    respec = {f: v for f, v in (("k", cfg.k), ("seed", cfg.seed)) if v is not None}
    specs: dict = {}
    out = []
    for point in points:
        if cfg.mechanism is not None and point.selection.mechanism is not cfg.mechanism:
            continue
        if cfg.channel_plan is not None and point.scenario.channel_plan != cfg.channel_plan:
            continue
        if cfg.n_ext is not None and point.scenario.n_extenders != cfg.n_ext:
            continue
        if cfg.b_t_bps is not None and not _b_t_matches(point.b_t_bps, cfg.b_t_bps):
            continue
        if respec and point.scenario not in specs:
            specs[point.scenario] = replace(point.scenario, **respec)
        changes = {"scenario": specs[point.scenario]} if respec else {}
        if retune and point.selection.mechanism is Mechanism.LOAD_AWARE:
            changes["selection"] = replace(point.selection, **retune)
        out.append(replace(point, **changes) if changes else point)
    return out


class _Geometry:
    """What the deployments of every sweep point on one link geometry share.

    A link geometry is what ``build_topology`` reads, plus the engine
    parameters and the packet length; the station count comes with the draw
    group.  Fixed here: serving nodes in AP-first order, tx powers, MCS
    tables, station sensitivities and spatial streams, and the backhaul
    links: their airtimes, and which serving nodes' traffic rides each.
    Channels are columns 1 and up, in sorted ``topology_channels`` order
    (external loads aside).  Tables by serving index have a last row, which
    index -1 (unassociated) reads: column 0, a sentinel channel that only
    ever holds 0.0, and no backhaul hops.
    """

    def __init__(self, point: SweepPoint, params: EngineParams) -> None:
        spec = point.scenario
        self.base = build_topology(spec, point.rssi_ap_e_dbm, params.propagation,
                                   band_mhz=params.band_mhz)
        # traffic only fixes the packet length here; frame traces read the band table
        self.env = env = SimEnv(
            traffic=point.traffic,
            **{f.name: getattr(params, f.name) for f in fields(EngineParams)},
        )
        # station radios as add_stations makes them; positions come per deployment
        t = add_stations(self.base, [(0.0, 0.0)] * spec.n_sta)
        stations = [t.nodes[sid] for sid in t.stations()]
        self.serving = serving = list(t.serving_nodes())
        self.channels = chans = {c: i + 1 for i, c in enumerate(topology_channels(t, env))}
        self.L = L = env.traffic.packet_length_bits
        self.cap_ms = env.congested_hop_delay_ms
        self.fixed_s = fixed_s = {b: o.total_us * 1e-6 for b, o in env.overheads.items()}

        radios = [t.nodes[j].access_radio for j in serving]
        self.tx = [
            (t.nodes[j].position, r.tx_power_dbm, env.band_mhz[r.channel.band])
            for j, r in zip(serving, radios)
        ]
        self.tx_power = np.array([r.tx_power_dbm for r in radios])
        self.sens = np.array([[n.access_radio.sensitivity_dbm] for n in stations])
        sta_ss = [min(r.spatial_streams for r in n.radios) for n in stations]
        # per serving node: MCS thresholds, a rate column per station, fixed airtime
        self.mcs = []
        for j, r in zip(serving, radios):
            table = env.mcs_tables[r.channel.band]
            ss = min(x.spatial_streams for x in t.nodes[j].radios)
            rates = [[e.rate_bps_1ss if min(a, ss) == 1 else e.rate_bps_2ss for a in sta_ss]
                     for e in table.entries]
            self.mcs.append((np.array(table.thresholds), np.array(rates), fixed_s[r.channel.band]))

        exts = t.extenders()
        uplink = [[exts.index(c) for c, _ in backhaul_path(t, j)] for j in serving] + [[]]
        self.bh_ch, self.bh_air, self.below_backhaul = [], [], None
        for ext in exts:
            ch = t.nodes[ext].backhaul_radio.channel
            try:
                rate = link_rate(env, t, ext, t.backhaul_parent[ext], ch.band)
            except ValueError as error:  # below the lowest MCS; links raises it
                self.below_backhaul, rate = self.below_backhaul or error, math.nan
            self.bh_ch.append(chans[ch])
            self.bh_air.append(fixed_s[ch.band] + L / rate)
        self.acc = np.array([chans[r.channel] for r in radios] + [0])
        H = max(map(len, uplink))
        hops = np.array([
            [(self.bh_ch[e], self.bh_air[e]) for e in up] + [(0, 0.0)] * (H - len(up))
            for up in uplink
        ]).reshape(len(uplink), H, 2)
        self.hop_ch, self.hop_air = hops[:, :, 0].astype(np.intp), hops[:, :, 1]
        self.uses = np.array([[e in up for up in uplink] for e in range(len(exts))],
                             dtype=bool).reshape(len(exts), len(uplink))

    def links(self, columns: _Columns) -> tuple:
        """What no demand changes, for the station positions of a slice's
        deployments, as arrays over (deployment, station[, serving index]):
        the RSSI table, stacked from the slice's ``columns``, and its in-range
        mask; each station's strongest in-range serving index, -1 when
        unassociated; the airtime of each pair, NaN below the lowest MCS,
        with a last column of 0.0 that index -1 reads; and each station's
        access airtime.  A link below the lowest MCS raises ``evaluate``'s
        error for the slice's first deployment that has one."""
        rssi = np.stack([columns[tx] for tx in self.tx], axis=1)
        rssi = rssi.reshape(columns.deployments, len(self.sens), len(self.tx))
        in_range = rssi >= self.sens
        # argmax keeps the first maximum: ties go to the lower serving index
        strongest = np.where(in_range, rssi, -np.inf).argmax(axis=2)
        parent = np.where(in_range.any(axis=2), strongest, -1)
        air = np.zeros(parent.shape + (len(self.serving) + 1,))
        sta = np.arange(parent.shape[1])
        for j, (thresholds, rates, fixed) in enumerate(self.mcs):
            idx = np.searchsorted(thresholds, rssi[:, :, j], side="right") - 1
            air[:, :, j] = np.where(idx >= 0, fixed + self.L / rates[idx, sta], np.nan)
        access = np.take_along_axis(air, parent[:, :, None], axis=2)[:, :, 0]
        below = np.argwhere(np.isnan(access))[:1]
        # evaluate rates a deployment's access links before its backhaul
        # links, and a backhaul link below the lowest MCS fails the first
        if self.below_backhaul is not None and not (len(below) and below[0, 0] == 0):
            raise self.below_backhaul
        for d, s in below:
            j = parent[d, s]
            raise below_mcs_error(self.serving[j], STA_ID_BASE + s, rssi[d, s, j])
        return rssi, in_range, parent, air, access


class _Columns(dict):
    """The RSSI columns of one slice of deployments by transmitter (position,
    tx power, frequency), each over the slice's stations, deployment-major.
    A column is made when a link geometry first asks for it, and every
    geometry with that transmitter shares it."""

    def __init__(self, positions: Sequence[Sequence[Position]],
                 propagation: PropagationParams) -> None:
        super().__init__()
        self.deployments = len(positions)
        self.points = [xy for stations in positions for xy in stations]
        self.propagation = propagation

    def __missing__(self, tx: tuple) -> np.ndarray:
        column = self[tx] = np.array(rssi_column(*tx, self.points, self.propagation))
        return column


class _Batch:
    """The points of one link geometry that share the pass flags, steered and
    evaluated at once on rows of (point, deployment) pairs, point-major: row
    ``p * D + d`` is point ``p`` on deployment ``d`` of a slice, and
    ``members`` holds the points' (grid index, point, block) triples.

    Rows compute what ``initial_association``, ``reassociation_pass`` and
    ``evaluate`` compute, to the last bit.  Elementwise float64 arithmetic
    rounds as scalar Python does, so it is enough that every sum over
    stations, hops and flows runs in the scalar order, as an ordered loop
    over columns and never as a numpy reduction.  A term that does not apply
    to a row adds 0.0 or multiplies by 1.0, which is exact: every sum starts
    at +0.0 and no term is negative.
    """

    def __init__(self, geom: _Geometry, members: Sequence[tuple]) -> None:
        self.geom, self.members = geom, members
        points = [point for _, point, _ in members]
        self.selection = points[0].selection  # its pass flags
        L, n_sta, fixed = geom.L, len(geom.sens), geom.fixed_s
        per_sta = [point.traffic.per_sta_load_bps for point in points]
        self.per_sta = np.array(per_sta)
        self.opb = np.array([load / L for load in per_sta])
        self.alpha = np.array([point.selection.alpha for point in points])
        self.n_capable = np.array([capable_count(point.selection.beta_pct, n_sta)
                                   for point in points])
        # through-load of a backhaul link carrying n stations, summed one
        # station at a time as build_flows does
        through = [list(accumulate([load] * n_sta, initial=0.0)) for load in per_sta]
        self.through = [np.array([[(b / L) * air for b in t] for t in through])
                        for air in geom.bh_air]
        # one channel map for the batch, its points' external loads included
        chans = {**geom.channels, None: 0}
        for point in points:
            for x in point.external:
                chans.setdefault(x.channel, len(chans))
        self.n_columns = len(chans)
        # external loads by slot; a point with fewer adds 0.0 to column 0
        slots = max(len(point.external) for point in points)
        pads = [[(chans[x.channel],
                  (x.load_bps / L) * (fixed[x.channel.band] + L / x.phy_rate_bps))
                 for x in point.external] + [(0, 0.0)] * (slots - len(point.external))
                for point in points]
        self.external = [
            (np.array([ch for ch, _ in slot]), np.array([x for _, x in slot]))
            for slot in zip(*pads)
        ]

    def run(self, links: tuple, rank: np.ndarray, logs: Optional[list] = None) -> tuple:
        """Throughput %, mean delay (ms) and congestion flag of every row as
        ``(R,)`` arrays and its serving indices ``(R, n_sta)``, for a slice's
        ``links`` and the rank of each station in its deployment's
        permutation ``(D, n_sta)``.  ``logs``, when given, holds an
        ``EventLog`` per row, which gets the row's 802.11k/v frames."""
        _, _, parent, _, access = links
        D, P = len(parent), len(self.members)
        point, dep = np.repeat(np.arange(P), D), np.tile(np.arange(D), P)
        # station s is in capable_set_for's set iff it comes within the
        # first capable_count entries of the deployment's permutation
        capable = rank[dep] < self.n_capable[point][:, None]
        parent, air = parent[dep], access[dep]
        if logs is not None:  # stage 1: the strongest-signal parents
            for log, row, flags in zip(logs, parent.tolist(), capable.tolist()):
                for s, j in enumerate(row):
                    if j >= 0:
                        log.associated(STA_ID_BASE + s, self.geom.serving[j], flags[s])
        term = self.opb[point][:, None] * air
        if self.selection.mechanism is Mechanism.LOAD_AWARE and capable.any():
            self._steer(links, point, dep, parent, air, term, capable, logs)
        return self._evaluate(point, parent, air, term) + (parent,)

    def _util(self, point, parent, term, skip: int = -1) -> np.ndarray:
        """Each row's channel utilization, summed as ``build_flows`` lists
        flows: access by station, backhaul by extender, then external."""
        util = np.zeros((len(point), self.n_columns))
        flat = util.reshape(-1)
        base = np.arange(len(point)) * self.n_columns
        cell = base[:, None] + self.geom.acc[parent]
        for s in range(parent.shape[1]):
            if s != skip:
                flat[cell[:, s]] += term[:, s]
        on = self.geom.uses[:, parent] & (np.arange(parent.shape[1]) != skip)
        for e, n_on in enumerate(np.count_nonzero(on, axis=2)):
            util[:, self.geom.bh_ch[e]] += self.through[e][point, n_on]
        for chs, loads in self.external:
            flat[base + chs[point]] += loads[point]
        return util

    def _steer(self, links, point, dep, parent, air, term, capable, logs) -> None:
        """``reassociation_pass`` on every row, in place: stations in
        ascending index, each capable associated one scored as
        ``rank_candidates`` scores, on loads that every earlier move has
        updated; out of range never wins, and the first minimum does, as the
        lowest serving index wins ties there.  A row with a log gets each
        station's stages 2 to 4 from the arrays its move is chosen on."""
        geom = self.geom
        rssi, in_range, _, air_tab, _ = links
        tx, sens = geom.tx_power, geom.sens
        if (in_range & (sens >= tx)).any():
            raise ValueError("sensitivity must lie below tx power")
        with np.errstate(divide="ignore", invalid="ignore"):  # out of range
            w = (np.minimum(np.maximum(rssi, sens), tx) - tx) / (sens - tx)  # weighted_rssi
        J = len(geom.serving)
        acc, hops = geom.acc[:J], geom.hop_ch[:J]
        a, opb = self.alpha[point][:, None], self.opb[point]

        def loads(skip=-1):
            return np.minimum(1.0, self._util(point, parent, term, skip))

        # with the station's own airtime in, the loads hold until a move
        shared = None
        for _ in range(self.selection.passes):
            for s in range(parent.shape[1]):
                current = parent[:, s]
                active = capable[:, s] & (current >= 0)
                if not active.any():
                    continue
                if not self.selection.include_self_load:
                    load = loads(s)
                else:
                    load = shared = loads() if shared is None else shared
                c_backhaul = np.zeros((len(point), J))
                for h in range(hops.shape[1]):
                    c_backhaul = c_backhaul + load[:, hops[:, h]]
                y = a * (w[dep, s] + load[:, acc]) + (1.0 - a) * c_backhaul
                best = np.where(in_range[dep, s], y, np.inf).argmin(axis=1)
                if logs is not None:  # before the moves apply
                    sta = STA_ID_BASE + s
                    terms = np.stack([rssi[dep, s], w[dep, s], load[:, acc], c_backhaul], axis=2)
                    for r in np.flatnonzero(active).tolist():
                        alpha = self.members[point[r]][1].selection.alpha
                        cl = candidate_list(geom.base, sta, [
                            CandidateScore(sta, geom.serving[j], *terms[r, j].tolist(), alpha,
                                           y[r, j].item())
                            for j in np.flatnonzero(in_range[dep[r], s])])
                        logs[r].measured(geom.base, geom.env, cl,
                                         dict(zip(geom.channels, load[r, 1:].tolist())))
                        # an associated station hears its parent, so cl has entries
                        logs[r].steered(sta, geom.serving[current[r]], geom.serving[best[r]], True)
                move = active & (best != current)
                if not move.any():
                    continue
                new_air = air_tab[dep, s, best]
                for r in np.flatnonzero(move & np.isnan(new_air))[:1]:
                    j = best[r]
                    raise below_mcs_error(geom.serving[j], STA_ID_BASE + s, rssi[dep[r], s, j])
                parent[:, s] = np.where(move, best, current)
                air[:, s] = np.where(move, new_air, air[:, s])
                term[:, s] = np.where(move, opb * new_air, term[:, s])
                shared = None

    def _evaluate(self, point, parent, air, term) -> tuple:
        """``evaluate``'s network throughput %, mean delay and congestion flag."""
        geom = self.geom
        util = self._util(point, parent, term)
        with np.errstate(over="ignore"):  # a subnormal load: 1.0 / u is inf, as in Python
            share = np.minimum(1.0, np.divide(1.0, util, out=np.ones_like(util),
                                              where=util > 0.0))
        cap = geom.cap_ms
        frac, delay = np.ones(parent.shape), np.zeros(parent.shape)
        # each station's access hop, then its serving node's backhaul hops
        for h in range(-1, geom.hop_ch.shape[1]):
            ch = geom.acc[parent] if h < 0 else geom.hop_ch[parent, h]
            at = air if h < 0 else geom.hop_air[parent, h]
            u = np.take_along_axis(util, ch, axis=1)
            frac *= np.take_along_axis(share, ch, axis=1)
            wait = np.divide(at * 1e3, 1.0 - u, out=np.full(u.shape, cap), where=u < 1.0)
            delay += np.minimum(cap, wait, out=wait)
        assoc = parent >= 0
        per_sta = self.per_sta[point]
        delivered_sta = per_sta[:, None] * frac
        delivered, offered, delay_sum = (np.zeros(len(point)) for _ in range(3))
        for s in range(parent.shape[1]):
            m = assoc[:, s]
            delivered = delivered + np.where(m, delivered_sta[:, s], 0.0)
            offered = np.where(m, offered + per_sta, offered)
            delay_sum = delay_sum + np.where(m, delay[:, s], 0.0)
        n_assoc = np.count_nonzero(assoc, axis=1)
        thr = np.divide(100.0 * delivered, offered, out=np.full(len(point), 100.0),
                        where=offered != 0.0)
        avg_delay = np.divide(delay_sum, n_assoc, out=np.zeros(len(point)), where=n_assoc > 0)
        return thr, avg_delay, (util[:, 1:] > 1.0).any(axis=1)


# rows a batch holds at once: a task walks its deployments in slices of this
# many rows over its widest batch, which bounds its memory
_ROWS = 2048


def _draw_groups(points: Sequence[SweepPoint]) -> list[list[int]]:
    """Indices of the points that share one deployment draw, in grid order."""
    groups: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        key = (draw_key(point.scenario), point.scenario.k)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _evaluate_range(
    points: Sequence[tuple[int, SweepPoint]],
    params: EngineParams,
    events_dir: Optional[str],
    lo: int,
    hi: int,
) -> list[_Block]:
    """One block per point of ``points``, which are (grid index, point) pairs
    sharing one deployment draw, holding deployments ``lo`` to ``hi - 1``.

    The walk goes by slices of deployments: each is drawn once, each
    transmitter's RSSI column made once, and then geometry by geometry, the
    links are built and each of the geometry's batches steers and evaluates
    its rows.
    """
    spec = points[0][1].scenario
    sta_ids = tuple(STA_ID_BASE + i for i in range(spec.n_sta))
    # each link geometry, with its points by pass flags
    geoms: dict[tuple, tuple[_Geometry, dict]] = {}
    blocks: list[_Block] = []
    for pi, point in points:
        key = (
            topology_key(point.scenario, point.rssi_ap_e_dbm),
            point.traffic.packet_length_bits,
        )
        if key not in geoms:
            geoms[key] = _Geometry(point, params), {}
        geom, members = geoms[key]
        sel = point.selection
        const = dict(
            test_id=point.test_id, rssi_ap_e_dbm=point.rssi_ap_e_dbm,
            n_ext=point.scenario.n_extenders, channel_plan=point.scenario.channel_plan,
            b_ext_bps=point.b_ext_bps, mechanism=sel.mechanism.value, alpha=sel.alpha,
            beta_pct=sel.beta_pct, b_t_bps=point.b_t_bps,
        )
        block = _Block(const, sta_ids, geom.serving, lo, hi - lo)
        # stock points form their own batch, which skips the pass
        flags = sel.mechanism is Mechanism.LOAD_AWARE and (sel.passes, sel.include_self_load)
        members.setdefault(flags, []).append((pi, point, block))
        blocks.append(block)
    batches = [(geom, [_Batch(geom, m) for m in members.values()])
               for geom, members in geoms.values()]
    width = _ROWS if events_dir is None else min(_ROWS, 32)  # logs wait for their batch
    step = max(1, width // max(len(b.members) for _, bs in batches for b in bs))
    for first in range(lo, hi, step):
        draws = [deployment_draw(spec, dep, params.propagation, band_mhz=params.band_mhz)
                 for dep in range(first, min(first + step, hi))]
        columns = _Columns([pos for pos, _ in draws], params.propagation)
        rank, D = np.argsort([perm for _, perm in draws], axis=1), len(draws)
        for geom, geom_batches in batches:
            # a geometry's links live only while its batches run
            links = geom.links(columns)
            for batch in geom_batches:
                logs = None if events_dir is None else [
                    EventLog() for _ in range(len(batch.members) * D)]
                thr, delay, congested, serving = batch.run(links, rank, logs)
                serving = serving.astype(np.int8)
                for p, (pi, point, block) in enumerate(batch.members):
                    rows = slice(p * D, (p + 1) * D)
                    block.put(first - lo, thr[rows], delay[rows], congested[rows], serving[rows])
                    for d, log in enumerate(logs[rows] if logs is not None else ()):
                        name = f"t{point.test_id}_p{pi:04d}_d{first + d:05d}.ndjson"
                        export_events(log, os.path.join(events_dir, name))
            del links
    return blocks


def _aggregate(point: SweepPoint, block: _Block) -> Aggregate:
    """Mean outcome of one point's block, each sum a float loop in deployment
    order (numpy sums pairwise, and ``sum`` compensates from Python 3.12)."""
    spec = point.scenario
    thr_sum = delay_sum = assoc_sum = 0.0
    for thr in block.thr:
        thr_sum += thr
    for delay in block.delay:
        delay_sum += delay
    n, serving = spec.n_sta, block.serving.tobytes()
    for i in range(0, len(serving), n):  # a row's unassociated stations are 0xff
        assoc_sum += (n - serving.count(0xFF, i, i + n)) / n
    k = spec.k
    return Aggregate(
        **block.const,
        k=k,
        mean_throughput_pct=thr_sum / k,
        mean_delay_ms=delay_sum / k,
        congested_pct=100.0 * block.congested.count(1) / k,
        association_rate_pct=100.0 * assoc_sum / k,
    )


def evaluate_point(
    point_index: int,
    point: SweepPoint,
    params: EngineParams,
    events_dir: Optional[str] = None,
) -> tuple[ResultRows, Aggregate]:
    """All deployments of one sweep point, plus their aggregate: the batch
    of one point, whose rows are its deployments."""
    (block,) = _evaluate_range(((point_index, point),), params, events_dir, 0, point.scenario.k)
    return ResultRows([block]), _aggregate(point, block)


# the process-wide pool, as (workers, pool): see the module docstring
_pool: Optional[tuple] = None


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.close()
        pool.join()


def _starmap(workers: int, tasks: list) -> list:
    """``_evaluate_range`` over ``tasks`` on the pool of ``workers``
    processes, started on first use."""
    global _pool
    if _pool is not None and _pool[0] != workers:
        pool, _pool = _pool[1], None
        pool.terminate()  # which also joins its handler threads
    if _pool is None:
        _pool = workers, multiprocessing.Pool(workers)
        # registered after multiprocessing's own exit hook, so it runs first
        atexit.unregister(_close_pool)
        atexit.register(_close_pool)
    try:
        return _pool[1].starmap(_evaluate_range, tasks)
    except Exception:
        raise  # a task's own error: the pool stays usable
    except BaseException:
        # an interrupt may leave tasks running: the next run starts afresh
        pool, _pool = _pool[1], None
        pool.terminate()
        raise


def run(cfg: RunConfig) -> RunResult:
    if cfg.emit_events and cfg.out_dir is None:
        raise ValueError("emit_events needs out_dir, the directory its traces go to")
    points = apply_overrides(build_test(cfg.test_id), cfg)
    if not points:
        wanted = {f: getattr(cfg, f) for f in ("mechanism", "channel_plan", "n_ext", "b_t_bps")}
        raise ValueError(f"test {cfg.test_id} has no sweep point with " + ", ".join(
            f"{f}={getattr(v, 'value', v)}" for f, v in wanted.items() if v is not None))
    events_dir = os.path.join(cfg.out_dir, "events") if cfg.emit_events else None
    if cfg.out_dir is not None:
        os.makedirs(events_dir or cfg.out_dir, exist_ok=True)
    tasks = []
    for group in _draw_groups(points):
        k = points[group[0]].scenario.k
        n = min(k, cfg.workers)
        bounds = [k * c // n for c in range(n + 1)]
        # a group with fewer deployments than workers is dealt out by points
        # too, every parts-th point to a task, so that a run of costly ones spreads
        parts = min(len(group), math.ceil(cfg.workers / n))
        for first in range(parts):
            members = tuple((i, points[i]) for i in group[first::parts])
            tasks.extend(
                (members, cfg.params, events_dir, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])
            )
    if cfg.workers > 1 and len(tasks) > 1:
        results = _starmap(cfg.workers, tasks)
    else:
        results = [_evaluate_range(*t) for t in tasks]
    # one block per point: its ranges come in deployment order
    blocks: list[Optional[_Block]] = [None] * len(points)
    for task, task_blocks in zip(tasks, results):
        for (i, _), block in zip(task[0], task_blocks):
            if blocks[i] is None:
                blocks[i] = block
            else:
                blocks[i].extend(block)
    rows = ResultRows(blocks)
    aggregates = [_aggregate(point, block) for point, block in zip(points, blocks)]
    if cfg.out_dir is not None:
        export_aggregates_csv(aggregates, os.path.join(cfg.out_dir, "aggregates.csv"))
        out = os.path.join(cfg.out_dir, "rows.csv"), os.path.join(cfg.out_dir, "results.json")
        _export_rows(blocks, aggregates, *out)
    return RunResult(points=tuple(points), rows=rows, aggregates=tuple(aggregates))


# --- exports ----------------------------------------------------------------

_FLAGS = ("false", "true")
# distinct association vectors an export holds encoded, which bounds its
# memory; the consecutive points of one geometry come well within it
_ENCODED_VECTORS = 1 << 14


def export_rows_csv(rows: Sequence[ResultRow], path: str) -> None:
    _export_rows(_blocks(rows), (), path, None)


def export_aggregates_csv(aggs: Sequence[Aggregate], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_COLUMNS)
        writer.writerows(map(operator.attrgetter(*AGGREGATE_COLUMNS), aggs))


def export_json(rows: Sequence[ResultRow], aggs: Sequence[Aggregate], path: str) -> None:
    _export_rows(_blocks(rows), aggs, None, path)


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# a row's record in results.json, keys sorted: "{i}" is _CONSTANT[i], and a
# NUL (json writes \u0000) cuts it where associations, avg_delay_ms,
# congested, deployment_index and throughput_pct go
_RECORD = "{{%s}}" % ",".join(
    f'"{f}":' + (f"{{{_CONSTANT.index(f)}}}" if f in _CONSTANT else "\0")
    for f in sorted((*_ROW_FIELDS, "associations"))
)


def _layout(sta_ids: tuple[int, ...], nodes: list, columns: list[int]) -> tuple:
    """rows.csv's and results.json's text of a layout's association vector.
    Each joins pieces listed per station by serving index, unassociated from
    ``len(nodes)`` on (0xff, index -1, too): a CSV cell per station, led by
    the commas of the ``columns`` it skips, and a JSON ``"sid":node`` per
    station in ``str(sid)`` order."""
    unassociated, ids = 256 - len(nodes), set(sta_ids)
    cells, gap = [], ""
    for sid in columns:  # ascending, as each block's sta_ids
        if sid in ids:
            cells.append([f"{gap},{node}" for node in nodes] + [f"{gap},none"] * unassociated)
            gap = ""
        else:
            gap += ","
    order = sorted(range(len(sta_ids)), key=lambda s: str(sta_ids[s]))
    keys = [f"{_encode(str(sta_ids[s]))}:" for s in order]
    pieces = [[key + _encode(node) for node in nodes] + [key + "null"] * unassociated
              for key in keys]

    def csv_text(vector: bytes) -> str:
        return "".join(map(list.__getitem__, cells, vector)) + gap

    def json_text(vector: bytes) -> str:
        return "{" + ",".join(map(list.__getitem__, pieces, map(vector.__getitem__, order))) + "}"

    return csv_text, json_text


def _texts(vectors: list[bytes], known: dict, spell) -> map:
    """The text ``spell`` gives each of ``vectors``, spelling only those
    ``known`` does not hold yet."""
    for vector in set(vectors).difference(known):
        known[vector] = spell(vector)
    return map(known.__getitem__, vectors)


def _export_rows(blocks: Sequence[_Block], aggs: Sequence[Aggregate],
                 csv_path: Optional[str], json_path: Optional[str]) -> None:
    """Write rows.csv to ``csv_path`` and results.json to ``json_path``, each
    when given, in one walk that slices each block's serving column once.
    rows.csv has a line per row: its fields, then a ``sta_<id>`` column per
    station id of any block, holding the serving node, ``none`` when the
    station is unassociated, or nothing when the row has no such station.
    results.json is ``{"aggregates": [...], "rows": [...]}`` as ``json.dumps``
    writes it with sorted keys and no spaces, a row's associations keyed by
    station id as a string.  Each file spells a vector once, from its
    layout's pieces, while consecutive blocks share their stations and nodes
    (one geometry's stock points share one vector per deployment)."""
    columns = sorted({sid for block in blocks for sid in block.sta_ids})
    # the file's dialect: what csv quotes depends on the line terminator too
    line = io.StringIO()
    line_writer = csv.writer(line, lineterminator="\n")
    spelled: dict = {}

    def spell(value) -> tuple[str, str]:
        """A constant's rows.csv cell and results.json text, made once per
        type and repr: -0.0 == 0.0, True == 1 and 2 == 2.0 spell apart."""
        key = (type(value), repr(value))
        if key not in spelled:
            line.seek(0)
            line.truncate()
            text = _encode(value)
            # flags as json has them; csv writes one lone empty field as ""
            line_writer.writerow((text if isinstance(value, bool) else value, None))
            spelled[key] = line.getvalue()[:-2], text
        return spelled[key]

    with ExitStack() as files:
        rows_csv = csv_path and files.enter_context(open(csv_path, "w", newline=""))
        results = json_path and files.enter_context(open(json_path, "w"))
        if rows_csv:
            header = _ROW_FIELDS + tuple(f"sta_{i}" for i in columns)
            csv.writer(rows_csv, lineterminator="\n").writerow(header)
        if results:
            results.write('{"aggregates":')
            results.write(_encode([{c: getattr(a, c) for c in AGGREGATE_COLUMNS} for a in aggs]))
            results.write(',"rows":[')
        layout = None
        for b, block in enumerate(blocks):
            if (block.sta_ids, block.nodes) != layout \
                    or max(len(csv_texts), len(json_texts)) > _ENCODED_VECTORS:
                layout, csv_texts, json_texts = (block.sta_ids, block.nodes), {}, {}
                csv_spell, json_spell = _layout(block.sta_ids, block.nodes, columns)
            vectors = block.vectors()
            cells, consts = zip(*map(spell, map(block.const.__getitem__, _CONSTANT)))
            deps = range(block.first, block.first + len(block))
            thr, delay = list(map(repr, block.thr)), list(map(repr, block.delay))
            if rows_csv:
                # _ROW_FIELDS: five constants, the deployment index, four
                # constants, then throughput, delay and congestion
                head, mid = ",".join(cells[:5]), ",".join(cells[5:])
                rows_csv.write("".join([
                    f"{head},{dep},{mid},{t},{d},{_FLAGS[c]}{text}\n"
                    for dep, t, d, c, text in zip(
                        deps, thr, delay, block.congested,
                        _texts(vectors, csv_texts, csv_spell),
                    )
                ]))
            if results:
                q0, q1, q2, q3, q4, q5 = _RECORD.format(*consts).split("\0")
                if not all(map(math.isfinite, chain(block.thr, block.delay))):
                    thr, delay = map(_encode, block.thr), map(_encode, block.delay)
                results.write("," * (b > 0) + ",".join([
                    f"{q0}{text}{q1}{d}{q2}{_FLAGS[c]}{q3}{dep}{q4}{t}{q5}"
                    for text, d, c, dep, t in zip(
                        _texts(vectors, json_texts, json_spell),
                        delay, block.congested, deps, thr,
                    )
                ]))
        if results:
            results.write("]}\n")


# --- derived summaries ------------------------------------------------------

RANGE_CRITERIA = ("thr99", "delay10", "no_congestion")


def _satisfies(a: Aggregate, criterion: str) -> bool:
    if criterion == "thr99":
        return a.mean_throughput_pct >= 99.0
    if criterion == "delay10":
        return a.mean_delay_ms <= 10.0
    if criterion == "no_congestion":
        return a.congested_pct == 0.0
    raise ValueError(f"unknown criterion {criterion!r}; known: {RANGE_CRITERIA}")


def operational_range(aggs: Sequence[Aggregate], criterion: str) -> float:
    """Largest swept total demand (bps) still meeting the criterion, else 0.

    The caller passes the aggregates of a single demand curve; the value is
    literal, no interpolation between grid steps.
    """
    passing = [a.b_t_bps for a in aggs if _satisfies(a, criterion)]
    return max(passing) if passing else 0.0
