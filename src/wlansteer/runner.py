"""Campaign execution: sweep grids in, per-deployment rows and aggregates out.

A run walks the sweep points of one campaign test, regenerates every
deployment from its (seed, index) substream, applies the configured steering
mechanism and scores the result.  Outputs are byte-stable: the same grid and
seed produce identical CSV/JSON no matter how many worker processes are used,
because randomness is keyed to the deployment index alone and results are
merged in grid order.

Sweep points that read the same inputs of ``draw_slice`` (and have the same
``k``) form a draw group: every demand step of a curve replays the same
stations.  A group is walked in slices of deployments.  A slice's
deployments are drawn once, all at once (``draw_slice``, the one station
draw, in one numpy pass), and each transmitter's RSSI column over the
slice's stations is computed once (``_Columns``, keyed by position, tx power
and frequency, so that link geometries with the same AP or extender share
it).  A link geometry of the group (``_Geometry``: what
``build_topology`` reads, the engine parameters and the packet length) stacks
its columns into the slice's RSSI table, strongest-signal associations and
airtimes just before its first batch, and drops them after its last, so a
slice holds one geometry's links at a time.  Each batch is one numpy kernel
(``_Batch``) that steers and evaluates the geometry's points of one
mechanism on rows of (point, deployment) pairs, point-major.  Its numpy
calls go per batch, station and hop, not per row: all rows' loads are one
ordered ``bincount``, and a move sums again only the loads of the rows it
moved.  It computes what ``initial_association``, ``reassociation_pass`` and
``evaluate`` compute, to the last bit; they stay the kernel's oracle.

A worker pool gets (draw group, contiguous deployment range) tasks, one range
per worker; each range holds all of the group's points, so all cost the same.
A group with fewer deployments than workers is dealt out by its points too.
The pool lives for the whole process: the first run on more than one worker
starts it, later runs with the same worker count reuse its processes (and
the modules they have imported), a run with another count replaces it, and
it is closed at exit.  Only a process that makes several runs gains: one
that makes a single run, as ``wlansteer run`` does, starts the pool once
and closes it at exit.

Results are one table.  A task yields each kernel batch's rows of a slice
as soon as the batch has run, with int8 serving indices, and the parent
copies each into one block that holds every point of the run, in grid
order, by every deployment.  It then sums each point's aggregate as a left
fold in deployment order, as a single process would, into four mean
columns on the block.  ``RunResult.rows`` and ``RunResult.aggregates`` (and
``evaluate_point``'s) are a ``ResultRows`` and an ``Aggregates`` over that
block: each indexes it by ``divmod`` and builds a ``ResultRow`` or
``Aggregate`` only when it is read.  The exports write whole blocks, a
run's one or a plain list of rows cut into one-point blocks, and spell each
distinct constants tuple and association vector once (see ``_export``); a
run writes its three files in one walk.

The 802.11k/v frame trace observes the kernel: a traced batch gives each row
an ``EventLog``, which gets the row's frames from the arrays its decisions
are made on, so no deployment is steered twice.  Logs wait for their batch
to end, so a traced task cuts its batches to 32 points and walks slices of
32 rows, not ``_ROWS``.
"""

from __future__ import annotations

import atexit
import csv
import io
import json
import math
import multiprocessing
import numbers
import operator
import os
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from itertools import chain, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .model import backhaul_path
from .perf import EngineParams, SimEnv, below_mcs_error, link_rate, topology_channels
from .radio import PropagationParams, rssi_column
from .selection import CandidateScore, Mechanism, SelectionConfig, candidate_list, capable_count
from .protocol import EventLog, export_events
from .scenarios import (
    STA_ID_BASE,
    STATION_RADIO,
    TEST_IDS,
    AreaKind,
    ScenarioSpec,
    SweepPoint,
    build_test,
    build_topology,
    draw_key,
    draw_slice,
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


def _constants(point: SweepPoint) -> tuple:
    """A sweep point's ``_CONSTANT`` values, in that order."""
    spec, sel = point.scenario, point.selection
    return (point.test_id, point.rssi_ap_e_dbm, spec.n_extenders, spec.channel_plan,
            point.b_ext_bps, sel.mechanism.value, sel.alpha, sel.beta_pct, point.b_t_bps)


class _Block:
    """Results as a table of points by deployments: row ``p`` is a point and
    column ``d`` deployment ``first + d``.  A run's block holds all of its
    points in grid order by all of its deployments; a list of rows becomes
    one-point blocks.  ``consts`` holds each point's ``_CONSTANT`` values and
    ``nodes`` the serving node of each serving index.  Columns: float64
    throughput and delay and bool congestion ``(P, D)``, and an int8 serving
    index per station of ``sta_ids`` ``(P, D, n_sta)``, -1 when unassociated.
    A run's block gets ``means``, ``_aggregate``'s four columns."""

    def __init__(self, consts: Sequence[tuple], sta_ids: tuple[int, ...], nodes: list,
                 first: int, thr, delay, congested, serving) -> None:
        self.consts, self.sta_ids, self.nodes, self.first = consts, sta_ids, nodes, first
        self.thr, self.delay, self.congested, self.serving = thr, delay, congested, serving
        self.deployments = thr.shape[1]

    def row(self, p: int, d: int) -> ResultRow:
        return ResultRow(
            **dict(zip(_CONSTANT, self.consts[p])), deployment_index=self.first + d,
            throughput_pct=self.thr[p, d].item(), avg_delay_ms=self.delay[p, d].item(),
            congested=bool(self.congested[p, d]),
            associations={sid: (self.nodes[j] if j >= 0 else None)
                          for sid, j in zip(self.sta_ids, self.serving[p, d].tolist())},
        )

    def aggregate(self, p: int) -> Aggregate:
        return Aggregate(*self.consts[p], self.deployments, *(m[p] for m in self.means))


def _blocks(rows: Sequence[ResultRow]) -> list[_Block]:
    """A run's block, or a list's rows cut into one-point blocks wherever a
    row stops sharing the last one's constant fields (by type and repr),
    station ids or deployment sequence.  The columns hold throughput and
    delay as floats and congestion as a flag, as a run makes them, so a
    hand-built row's throughput ``100`` reads back, and is exported, as
    ``100.0``."""
    if isinstance(rows, ResultRows):
        return [rows.block]
    cuts, last = [], None
    for row in rows:
        const, sta_ids = _constant(row), tuple(sorted(row.associations))
        key = (tuple(map(type, const)), tuple(map(repr, const)), sta_ids)
        if (key, row.deployment_index) != last:
            cuts.append((const, sta_ids, row.deployment_index, [], []))
        nodes, cut = cuts[-1][3], cuts[-1][4]
        got = [row.associations[sid] for sid in sta_ids]
        nodes.extend({n for n in got if n is not None}.difference(nodes))
        cut.append((row.throughput_pct, row.avg_delay_ms, bool(row.congested),
                    [-1 if n is None else nodes.index(n) for n in got]))
        last = (key, row.deployment_index + 1)
    dtypes = (float, float, bool, np.int8)  # throughput, delay, congestion, serving
    return [_Block((const,), sta_ids, nodes, first,
                   *(np.array([column], dtype=t) for column, t in zip(zip(*cut), dtypes)))
            for const, sta_ids, first, nodes, cut in cuts]


class _Table(Sequence):
    """Items of a block, point by point.  Item ``i`` is built when it is
    read, by ``item(i)``, and none to take the length."""

    def __init__(self, block: _Block) -> None:
        self.block = block

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = operator.index(i)
        if not -len(self) <= i < len(self):
            raise IndexError(f"{type(self).__name__} index out of range")
        return self.item(i % len(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_Table, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class ResultRows(_Table):
    """A run's rows in (point, deployment) order: a ``ResultRow`` per
    deployment of each point."""

    def __len__(self) -> int:
        return len(self.block.consts) * self.block.deployments

    def item(self, i: int) -> ResultRow:
        return self.block.row(*divmod(i, self.block.deployments))


class Aggregates(_Table):
    """A run's aggregates in grid order: an ``Aggregate`` per point, from its
    block's ``means``."""

    def __len__(self) -> int:
        return len(self.block.consts)

    def item(self, i: int) -> Aggregate:
        return self.block.aggregate(i)


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
        if self.test_id not in TEST_IDS:
            raise ValueError(f"test_id {self.test_id!r} is an unknown test id; known: "
                             + ", ".join(sorted(TEST_IDS)))
        # a rewrite passes the check of the field it rewrites
        SelectionConfig(**_given(alpha=self.alpha, beta_pct=self.beta_pct))
        ScenarioSpec(AreaKind.CIRCLE_DMAX, **_given(k=self.k, seed=self.seed))
        if isinstance(self.workers, bool) or not isinstance(self.workers, numbers.Integral):
            raise ValueError("workers must be an integer")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}")
        if self.mechanism is not None:
            try:
                self.mechanism = Mechanism(self.mechanism)
            except ValueError:
                raise ValueError("mechanism must be rssi or loadaware") from None
        if self.b_t_bps is not None:
            rates = tuple(self.b_t_bps) if isinstance(self.b_t_bps, Iterable) \
                and not isinstance(self.b_t_bps, str) else (None,)
            if not all(isinstance(b, numbers.Real) and not isinstance(b, bool) for b in rates):
                raise ValueError("b_t_bps must be a sequence of numbers")
            self.b_t_bps = tuple(map(float, rates))


def _given(**fields) -> dict:
    """The fields that are not None."""
    return {f: v for f, v in fields.items() if v is not None}


@dataclass(frozen=True)
class RunResult:
    points: tuple[SweepPoint, ...]
    rows: Sequence[ResultRow]  # a ResultRows when run() made it
    aggregates: Sequence[Aggregate]  # an Aggregates when run() made it


def _b_t_matches(value: float, wanted: Sequence[float]) -> bool:
    return any(math.isclose(value, w, rel_tol=1e-9, abs_tol=0.5) for w in wanted)


def apply_overrides(points: Sequence[SweepPoint], cfg: RunConfig) -> list[SweepPoint]:
    """The points ``cfg`` keeps, rewritten: each distinct ``ScenarioSpec``
    object once (a grid's curve shares one), and a point that no rewrite
    touches not at all."""
    retune = _given(alpha=cfg.alpha, beta_pct=cfg.beta_pct)
    respec = _given(k=cfg.k, seed=cfg.seed)
    specs: dict = {}  # by id: ``points`` holds every spec while the dict lives
    out = []
    for point in points:
        scenario, selection = point.scenario, point.selection
        if cfg.mechanism is not None and selection.mechanism is not cfg.mechanism:
            continue
        if cfg.channel_plan is not None and scenario.channel_plan != cfg.channel_plan:
            continue
        if cfg.n_ext is not None and scenario.n_extenders != cfg.n_ext:
            continue
        if cfg.b_t_bps is not None and not _b_t_matches(point.b_t_bps, cfg.b_t_bps):
            continue
        if respec:
            if id(scenario) not in specs:
                specs[id(scenario)] = replace(scenario, **respec)
            scenario = specs[id(scenario)]
        if retune and selection.mechanism is Mechanism.LOAD_AWARE:
            selection = replace(selection, **retune)
        if scenario is not point.scenario or selection is not point.selection:
            # the constructor, which costs half what ``replace`` does
            point = SweepPoint(point.test_id, scenario, selection, point.traffic,
                               point.external, point.rssi_ap_e_dbm)
        out.append(point)
    return out


class _Geometry:
    """What the deployments of every sweep point on one link geometry share.

    A link geometry is what ``build_topology`` reads, plus the engine
    parameters and the packet length; the station count comes with the draw
    group.  Fixed here: serving nodes in AP-first order, tx powers, the access
    band's MCS table, station sensitivities and spatial streams (every station's
    radio is ``STATION_RADIO``), and the backhaul links: their airtimes, and
    which serving nodes' traffic rides each.
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
        t, n = self.base, spec.n_sta
        self.serving = serving = list(t.serving_nodes())
        if serving != list(range(1 + spec.n_extenders)):  # as the result table numbers them
            raise ValueError(f"a layout must number its serving nodes 0 to {spec.n_extenders}")
        self.channels = chans = {c: i + 1 for i, c in enumerate(topology_channels(t, env))}
        self.L = L = env.traffic.packet_length_bits
        self.cap_ms = env.congested_hop_delay_ms
        self.fixed_s = fixed_s = {b: o.total_us * 1e-6 for b, o in env.overheads.items()}

        radios = [t.nodes[j].access_radio for j in serving]
        if len(bands := {r.channel.band for r in radios}) > 1:  # one MCS table and frequency
            raise ValueError(f"access radios on {len(bands)} bands; a layout takes one")
        (band,) = bands
        self.tx = [(t.nodes[j].position, r.tx_power_dbm, env.band_mhz[band])
                   for j, r in zip(serving, radios)]
        self.tx_power = np.array([r.tx_power_dbm for r in radios])
        # stations differ only by their positions, which come per deployment
        self.sens = np.full((n, 1), STATION_RADIO.sensitivity_dbm)
        table = env.mcs_tables[band]
        self.thresholds = np.array(table.thresholds)
        # by (serving index, thresholds passed, station), flat, the airtime: NaN below the lowest
        streams = np.minimum([STATION_RADIO.spatial_streams] * n,
                             [[min(x.spatial_streams for x in t.nodes[j].radios)]
                              for j in serving])
        rates = np.array([[math.nan] * 2]
                         + [[e.rate_bps_1ss, e.rate_bps_2ss] for e in table.entries])
        air = fixed_s[band] + L / rates[:, (streams != 1).astype(np.intp)].transpose(1, 0, 2)
        self.air = air.reshape(-1)
        self.air_at = np.arange(len(serving)) * len(rates) * n + np.arange(n)[:, None]

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
        self.hop_ch, self.hop_air = hops[:, :, 0].T.astype(np.intp), hops[:, :, 1].T  # (H, J + 1)
        self.uses = np.array([[e in up for e in range(len(exts))] for up in uplink],
                             dtype=np.intp).reshape(len(uplink), len(exts))

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
        # each pair's count of MCS thresholds at or below its RSSI, as bisect_right counts
        passed = np.searchsorted(self.thresholds, rssi, side="right")
        air = np.zeros(parent.shape + (len(self.tx) + 1,))
        air[:, :, :-1] = self.air.take(passed * len(self.sens) + self.air_at)
        access = air[np.arange(len(parent))[:, None], np.arange(parent.shape[1]), parent]
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

    def __init__(self, positions: np.ndarray, propagation: PropagationParams) -> None:
        super().__init__()
        self.deployments = len(positions)
        self.points = positions.reshape(-1, 2).tolist()
        self.propagation = propagation

    def __missing__(self, tx: tuple) -> np.ndarray:
        column = self[tx] = np.array(rssi_column(*tx, self.points, self.propagation))
        return column


class _Batch:
    """The points of one link geometry and mechanism, steered and evaluated
    at once on rows of (point, deployment) pairs, point-major: row
    ``p * D + d`` is point ``p`` on deployment ``d`` of a slice, and
    ``members`` holds the points' (grid index, point) pairs.

    Rows compute what ``initial_association``, ``reassociation_pass`` and
    ``evaluate`` compute, to the last bit.  Elementwise float64 arithmetic
    rounds as scalar Python does, so it is enough that every sum over
    stations, hops and flows runs in the scalar order: ``np.bincount`` (a
    row's loads), ``np.add.accumulate`` or a loop over rows; never ``np.sum``
    or ``np.add.reduce``, pairwise along a contiguous axis of 8 or more.  A
    term that does not apply adds 0.0 or multiplies by 1.0, which is exact:
    every sum starts at +0.0 and no term is negative.
    """

    def __init__(self, geom: _Geometry, members: Sequence[tuple]) -> None:
        self.geom, self.members = geom, members
        points = [point for _, point in members]
        self.steer = points[0].selection.mechanism is Mechanism.LOAD_AWARE
        L, n_sta, fixed = geom.L, len(geom.sens), geom.fixed_s
        self.per_sta = per_sta = np.array([point.traffic.per_sta_load_bps for point in points])
        self.opb = per_sta / L
        # offered load of n stations, summed one station at a time from +0.0
        # as evaluate and build_flows do: a left fold, by point and n
        self.offered = np.add.accumulate(
            np.where(np.arange(n_sta + 1) > 0, per_sta[:, None], 0.0), axis=1)
        # through-load of each backhaul link carrying n stations (E, P, n + 1)
        self.through = (self.offered / L) * np.array(geom.bh_air)[:, None, None]
        # by point, on one channel map: the columns of the backhaul links, then of
        # the external loads by slot, and those loads (fewer add 0.0 to column 0)
        chans = {**geom.channels, None: 0}
        ext = np.zeros((len(points), max(len(point.external) for point in points), 2))
        for p, point in enumerate(points):
            for slot, x in enumerate(point.external):
                ext[p, slot] = chans.setdefault(x.channel, len(chans)), (x.load_bps / L) * (
                    fixed[x.channel.band] + L / x.phy_rate_bps)
        self.n_columns = len(chans)
        self.cells = np.concatenate([np.broadcast_to(geom.bh_ch, (len(points), len(geom.bh_ch))),
                                     ext[:, :, 0]], axis=1).astype(np.intp)
        self.external = ext[:, :, 1]

    def run(self, links: tuple, rank: np.ndarray, logs: Optional[list] = None) -> tuple:
        """Throughput %, mean delay (ms) and congestion flag of every row as
        ``(R,)`` arrays and its serving indices ``(R, n_sta)``, for a slice's
        ``links`` and the rank of each station in its deployment's
        permutation ``(D, n_sta)``.  ``logs``, when given, holds an
        ``EventLog`` per row, which gets the row's 802.11k/v frames."""
        _, _, parent, _, access = links
        D, P = len(parent), len(self.members)
        point, dep = np.repeat(np.arange(P), D), np.tile(np.arange(D), P)
        parent, air = parent[dep], access[dep]
        if self.steer or logs is not None:
            # station s is in capable_set_for's set iff it comes within the
            # first capable_count entries of the deployment's permutation
            n_capable = [capable_count(p.selection.beta_pct, rank.shape[1]) for _, p in self.members]
            capable = rank[dep] < np.array(n_capable)[point][:, None]
        if logs is not None:  # stage 1: the strongest-signal parents
            for log, row, flags in zip(logs, parent.tolist(), capable.tolist()):
                for s, j in enumerate(row):
                    if j >= 0:
                        log.associated(STA_ID_BASE + s, self.geom.serving[j], flags[s])
        term = self.opb[point][:, None] * air
        if self.steer and capable.any():
            self._steer(links, point, dep, parent, air, term, capable, logs)
        return self._evaluate(point, parent, air, term) + (parent,)

    def _util(self, point, parent, term) -> np.ndarray:
        """Each row's channel utilization: one ``np.bincount`` of its flows in
        ``build_flows``'s order."""
        R, C, uses = len(point), self.n_columns, self.geom.uses
        J = len(uses)  # stations per row unassociated and by serving index, then by extender
        n_on = np.bincount((np.arange(R)[:, None] * J + 1 + parent).reshape(-1),
                           minlength=R * J).reshape(R, J)[:, 1:] @ uses[:-1]
        through = self.through[np.arange(uses.shape[1]), point[:, None], n_on]
        cells = np.concatenate([self.geom.acc[parent], self.cells[point]], axis=1)
        cells += (np.arange(R) * C)[:, None]
        terms = np.concatenate([term, through, self.external[point]], axis=1)
        return np.bincount(cells.reshape(-1), weights=terms.reshape(-1),
                           minlength=R * C).reshape(R, C)

    def _steer(self, links, point, dep, parent, air, term, capable, logs) -> None:
        """``reassociation_pass`` on every row, in place: stations in
        ascending index, each capable associated one scored as
        ``rank_candidates`` scores, on loads that count its own airtime and
        that every earlier move has updated; out of range never wins, and
        the first minimum does, as the lowest serving index wins ties there.
        A row with a log gets each station's stages 2 to 4 from the arrays
        its move is chosen on."""
        geom = self.geom
        rssi, in_range, _, air_tab, _ = links
        tx, sens = geom.tx_power, geom.sens
        if (in_range & (sens >= tx)).any():
            raise ValueError("sensitivity must lie below tx power")
        with np.errstate(divide="ignore", invalid="ignore"):  # out of range
            w = (np.minimum(np.maximum(rssi, sens), tx) - tx) / (sens - tx)  # weighted_rssi
        w, heard = w[dep], in_range[dep]  # by row
        J = len(geom.serving)
        acc, hops = geom.acc[:J], geom.hop_ch[:, :J]
        alpha = np.array([p.selection.alpha for _, p in self.members])
        a, opb = alpha[point][:, None], self.opb[point]
        load = None  # each row's, from the first active station on; redone for rows that move
        for s in range(parent.shape[1]):
            current = parent[:, s]
            active = capable[:, s] & (current >= 0)
            if not active.any():
                continue
            if load is None:
                load = np.minimum(1.0, self._util(point, parent, term))
            c_backhaul = reduce(operator.add, (load[:, hop] for hop in hops),
                                np.zeros((len(point), J)))
            y = a * (w[:, s] + load[:, acc]) + (1.0 - a) * c_backhaul
            best = np.where(heard[:, s], y, np.inf).argmin(axis=1)
            if logs is not None:  # before the moves apply
                sta = STA_ID_BASE + s
                terms = np.stack([rssi[dep, s], w[:, s], load[:, acc], c_backhaul], axis=2)
                for r in np.flatnonzero(active).tolist():
                    alpha = self.members[point[r]][1].selection.alpha
                    cl = candidate_list(geom.base, sta, [
                        CandidateScore(sta, geom.serving[j], *terms[r, j].tolist(), alpha,
                                       y[r, j].item())
                        for j in np.flatnonzero(heard[r, s])])
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
            # only the rows that moved change their loads
            m = np.flatnonzero(move)
            load[m] = np.minimum(1.0, self._util(point[m], parent[m], term[m]))

    def _evaluate(self, point, parent, air, term) -> tuple:
        """``evaluate``'s network throughput %, mean delay and congestion flag."""
        geom = self.geom
        util = self._util(point, parent, term)
        with np.errstate(over="ignore"):  # a subnormal load: 1.0 / u is inf, as in Python
            share = np.minimum(1.0, np.divide(1.0, util, out=np.ones_like(util),
                                              where=util > 0.0))
        cap, base = geom.cap_ms, (np.arange(len(point)) * util.shape[1])[:, None]
        frac, delay = np.ones(parent.shape), np.zeros(parent.shape)
        # each station's access hop, then its serving node's backhaul hops
        for h in range(-1, len(geom.hop_ch)):
            cell = (geom.acc if h < 0 else geom.hop_ch[h])[parent] + base
            at = air if h < 0 else geom.hop_air[h][parent]
            u = util.take(cell)
            frac = frac * share.take(cell)
            wait = np.divide(at * 1e3, 1.0 - u, out=np.full(u.shape, cap), where=u < 1.0)
            delay = delay + np.minimum(cap, wait, out=wait)
        # delivered load and delay, folded over the associated stations (n, 2, R)
        assoc = parent >= 0
        n_assoc = np.count_nonzero(assoc, axis=1)
        terms = np.where(assoc, np.stack([self.per_sta[point][:, None] * frac, delay]), 0.0)
        delivered, delay_sum = reduce(operator.add, terms.transpose(2, 0, 1),
                                      np.zeros((2, len(point))))
        offered = self.offered[point, n_assoc]
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
) -> Iterator[tuple]:
    """The rows of ``points``, which are (grid index, point) pairs sharing one
    deployment draw, on deployments ``lo`` to ``hi - 1``: a part per kernel
    batch and slice, yielded as soon as the batch has run.  A part is the
    batch's grid indices, the slice's first deployment, and its rows,
    point-major: throughput, delay and congestion ``(P * D,)`` and int8
    serving indices ``(P * D, n_sta)``.  Load-aware points take the grids'
    one pass; other pass settings are refused before a slice is drawn.

    The walk goes by slices of deployments: each is drawn once, each
    transmitter's RSSI column made once, and then geometry by geometry, the
    links are built and each of the geometry's batches steers and evaluates
    its rows.
    """
    spec = points[0][1].scenario
    # each link geometry, with its points by mechanism
    geoms: dict[tuple, tuple[_Geometry, dict]] = {}
    for pi, point in points:
        sel = point.selection
        if sel.mechanism is Mechanism.LOAD_AWARE:  # stock points ignore the pass settings
            for name, value in (("passes", 1), ("include_self_load", True)):
                if getattr(sel, name) != value:
                    raise ValueError(f"{name} must be {value}; see selection.reassociation_pass")
        key = (
            topology_key(point.scenario, point.rssi_ap_e_dbm),
            point.traffic.packet_length_bits,
        )
        if key not in geoms:
            geoms[key] = _Geometry(point, params), {}
        # stock points form their own batch, which skips the pass
        geoms[key][1].setdefault(sel.mechanism, []).append((pi, point))
    # a traced batch's logs wait for it to end, so it runs at most 32 points
    width = _ROWS if events_dir is None else min(_ROWS, 32)
    # each batch with its points' grid indices, one list that every part shares
    batches = [(geom, [(_Batch(geom, part), [pi for pi, _ in part]) for m in members.values()
                       for part in (m[i : i + width] for i in range(0, len(m), width))])
               for geom, members in geoms.values()]
    step = max(1, width // max(len(index) for _, bs in batches for _, index in bs))
    for first in range(lo, hi, step):
        positions, perms = draw_slice(spec, first, min(first + step, hi), params.propagation,
                                      band_mhz=params.band_mhz)
        columns = _Columns(positions, params.propagation)
        rank, D = np.argsort(perms, axis=1), len(perms)
        for geom, geom_batches in batches:
            # a geometry's links live only while its batches run
            links = geom.links(columns)
            for batch, index in geom_batches:
                logs = None if events_dir is None else [
                    EventLog() for _ in range(len(batch.members) * D)]
                thr, delay, congested, serving = batch.run(links, rank, logs)
                for r, log in enumerate(logs or ()):
                    pi, point = batch.members[r // D]
                    name = f"t{point.test_id}_p{pi:04d}_d{first + r % D:05d}.ndjson"
                    export_events(log, os.path.join(events_dir, name))
                yield index, first, thr, delay, congested, serving.astype(np.int8)
            del links


def _listed(*task) -> list:
    """``_evaluate_range``'s parts as a list, which a pool worker can send."""
    return list(_evaluate_range(*task))


def _aggregate(block: _Block) -> list[list[float]]:
    """Each point's mean throughput, delay, congestion % and association
    rate % over the block's deployments, as four columns.  Each sum is a
    left fold in deployment order, as a float loop from +0.0 makes it:
    ``np.add.accumulate``, then + 0.0, which turns a sum of -0.0 terms into
    the loop's +0.0 (numpy's reductions sum pairwise, and ``sum``
    compensates from Python 3.12).  The points are folded ``4 * _ROWS //
    deployments`` at a time: few enough rows that the temporaries stay far
    below the block, enough that numpy's cost per call is spread."""
    k, n = block.deployments, len(block.sta_ids)
    step = max(1, 4 * _ROWS // k)
    means = []
    for a in range(0, len(block.consts), step):
        cut = slice(a, a + step)
        assoc = (n - np.count_nonzero(block.serving[cut] < 0, axis=2)) / n
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as in Python
            thr, delay, assoc = [np.add.accumulate(x, axis=1)[:, -1] + 0.0
                                 for x in (block.thr[cut], block.delay[cut], assoc)]
        congested = np.count_nonzero(block.congested[cut], axis=1)
        means.append((thr / k, delay / k, 100.0 * congested / k, 100.0 * assoc / k))
    return [np.concatenate(column).tolist() for column in zip(*means)]


def _in_grid_order(points: Sequence[tuple[int, SweepPoint]], parts: Iterable[tuple]) -> _Block:
    """One block of ``points``, (grid index, point) pairs in grid order, by
    all their deployments, which share ``k`` and the station count.  Each of
    ``parts`` (``_evaluate_range``'s) is copied in as it comes; then the
    block's ``means`` are summed.  Serving index j is node j, as
    ``_Geometry`` checks, up to the widest layout's AP and extenders."""
    spec = points[0][1].scenario
    P, k, n = len(points), spec.k, spec.n_sta
    if any((p.scenario.k, p.scenario.n_sta) != (k, n) for _, p in points):
        raise ValueError("the points of a run must share k and n_sta")
    at = {pi: r for r, (pi, _) in enumerate(points)}
    nodes = list(range(1 + max(p.scenario.n_extenders for _, p in points)))
    block = _Block([_constants(p) for _, p in points], tuple(range(STA_ID_BASE, STA_ID_BASE + n)),
                   nodes, 0, np.zeros((P, k)), np.zeros((P, k)), np.zeros((P, k), dtype=bool),
                   np.zeros((P, k, n), dtype=np.int8))
    for index, first, thr, delay, congested, serving in parts:
        rows, D = [at[pi] for pi in index], len(thr) // len(index)
        cut = slice(first, first + D)
        block.thr[rows, cut], block.delay[rows, cut] = thr.reshape(-1, D), delay.reshape(-1, D)
        block.congested[rows, cut] = congested.reshape(-1, D)
        block.serving[rows, cut] = serving.reshape(-1, D, n)
    block.means = _aggregate(block)
    return block


def evaluate_point(
    point_index: int,
    point: SweepPoint,
    params: EngineParams,
    events_dir: Optional[str] = None,
) -> tuple[ResultRows, Aggregate]:
    """All deployments of one sweep point, plus their aggregate: the batch
    of one point, whose rows are its deployments."""
    members = ((point_index, point),)
    block = _in_grid_order(members, _evaluate_range(members, params, events_dir, 0,
                                                    point.scenario.k))
    return ResultRows(block), block.aggregate(0)


# the process-wide pool, as (workers, pool): see the module docstring
_pool: Optional[tuple] = None


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.close()
        pool.join()


def _starmap(workers: int, tasks: list) -> Iterator[list]:
    """The parts of each of ``tasks``, a list per task, from the pool of
    ``workers`` processes, started on first use."""
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
        results = _pool[1].starmap(_listed, tasks)
    except Exception:
        raise  # a task's own error: the pool stays usable
    except BaseException:
        # an interrupt may leave tasks running: the next run starts afresh
        pool, _pool = _pool[1], None
        pool.terminate()
        raise
    # each task's list taken out as it is read, so that it is freed once copied
    return map(results.pop, repeat(0, len(results)))


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
    pooled = cfg.workers > 1 and len(tasks) > 1
    results = _starmap(cfg.workers, tasks) if pooled else (_evaluate_range(*t) for t in tasks)
    block = _in_grid_order(tuple(enumerate(points)), chain.from_iterable(results))
    aggregates = Aggregates(block)
    if cfg.out_dir is not None:
        _export([block], aggregates, *(os.path.join(cfg.out_dir, name) for name in
                                       ("rows.csv", "aggregates.csv", "results.json")))
    return RunResult(points=tuple(points), rows=ResultRows(block), aggregates=aggregates)


# --- exports ----------------------------------------------------------------

_FLAGS = ("false", "true")
# distinct association vectors an export holds encoded, which bounds its
# memory; the consecutive points of one geometry come well within it
_ENCODED_VECTORS = 1 << 14
# rows an export spells at once, which bounds the text it holds
_EXPORT_ROWS = 512


def export_rows_csv(rows: Sequence[ResultRow], path: str) -> None:
    _export(_blocks(rows), (), rows_csv=path)


def export_aggregates_csv(aggs: Sequence[Aggregate], path: str) -> None:
    _export((), aggs, aggregates_csv=path)


def export_json(rows: Sequence[ResultRow], aggs: Sequence[Aggregate], path: str) -> None:
    _export(_blocks(rows), aggs, results_json=path)


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _record(names: Sequence[str]) -> str:
    """A record of results.json with the keys ``names``, sorted: "{i}" is
    _CONSTANT[i], and a NUL (json writes \\u0000) cuts it where each other
    field goes."""
    return "{{%s}}" % ",".join(
        f'"{f}":' + (f"{{{_CONSTANT.index(f)}}}" if f in _CONSTANT else "\0")
        for f in sorted(names))


# cut where associations, avg_delay_ms, congested, deployment_index and throughput_pct go
_RECORD = _record((*_ROW_FIELDS, "associations"))
# cut where association_rate_pct, congested_pct, k, mean_delay_ms and mean_throughput_pct go
_AGGREGATE_RECORD = _record(AGGREGATE_COLUMNS)
# an aggregate's fields after its _CONSTANT ones: k and the four means
_aggregate_tail = operator.attrgetter(*AGGREGATE_COLUMNS[len(_CONSTANT):])


def _aggregate_columns(aggs: Sequence[Aggregate]) -> list[list]:
    """``aggs`` as six columns: their ``_CONSTANT`` tuples, ``k`` and the four
    means.  An ``Aggregates`` reads them from its block, any other sequence
    from its ``Aggregate``s' fields."""
    if isinstance(aggs, Aggregates):
        return [aggs.block.consts, [aggs.block.deployments] * len(aggs), *aggs.block.means]
    return [list(map(_constant, aggs)), *map(list, zip(*map(_aggregate_tail, aggs)))] \
        if len(aggs) else [[]] * 6


def _speller(texts: list[str], leads: list[str], end: str, order: Sequence[int]):
    """A function that spells a list of association vectors at once: it
    gathers each vector's pieces from a table and joins them.  Station
    ``order[k]``'s piece for serving index ``j`` is ``leads[k]``, then
    ``texts[j]``, or ``texts[-1]`` when unassociated (``len(texts) - 1`` and
    up: 0xff, index -1, too), then ``end`` after the last station's."""
    table = np.array([[f"{lead}{text}{tail}" for text in texts]
                      for lead, tail in zip(leads, [""] * (len(leads) - 1) + [end])], dtype=object)
    rows, n = np.arange(len(order)), len(order)

    def spell(vectors: list[bytes]) -> list[str]:
        serving = np.frombuffer(b"".join(vectors), dtype=np.uint8).reshape(len(vectors), n)
        served = np.minimum(serving[:, order], len(texts) - 1)
        return list(map("".join, table[rows, served].tolist()))

    return spell


def _csv_speller(sta_ids: tuple[int, ...], nodes: list, columns: list[int]):
    """rows.csv's text of a layout's association vectors: a cell per
    station, led by the commas of the ``columns`` it skips, and the commas
    of the columns after the last."""
    leads, gap, ids = [], "", set(sta_ids)
    for sid in columns:  # ascending, as each block's sta_ids
        if sid in ids:
            leads.append(gap + ",")
            gap = ""
        else:
            gap += ","
    return _speller([*map(str, nodes), "none"], leads, gap, range(len(sta_ids)))


def _json_speller(sta_ids: tuple[int, ...], nodes: list):
    """results.json's text of a layout's association vectors: ``"sid":node``
    per station in ``str(sid)`` order, in braces."""
    order = sorted(range(len(sta_ids)), key=lambda s: str(sta_ids[s]))
    leads = [("," if k else "{") + _encode(str(sta_ids[s])) + ":" for k, s in enumerate(order)]
    return _speller([*map(_encode, nodes), "null"], leads, "}", order)


def _texts(vectors: list[bytes], known: dict, spell) -> map:
    """The text ``spell`` gives each of ``vectors``, spelling those that
    ``known`` does not hold yet in one call."""
    misses = list(set(vectors).difference(known))
    if misses:
        known.update(zip(misses, spell(misses)))
    return map(known.__getitem__, vectors)


def _joined(template: str, columns: Sequence[Sequence[str]]) -> list[str]:
    """``template.format(*row)`` for each row of the text ``columns``, joined a column at a time:
    the template's text, cut by SOH around each field's column index."""
    pieces = template.format(*(f"\1{i}\1" for i in range(len(columns)))).split("\1")
    return list(map("".join, zip(*(columns[int(p)] if k % 2 else repeat(p)
                                   for k, p in enumerate(pieces)))))


def _export(blocks: Sequence[_Block], aggs: Sequence[Aggregate], rows_csv: Optional[str] = None,
            aggregates_csv: Optional[str] = None, results_json: Optional[str] = None) -> None:
    """Write each file whose path is given: rows.csv and results.json from
    the rows of ``blocks`` (a run's one block, or ``_blocks``' one-point
    blocks of a list), aggregates.csv and the aggregates of results.json
    from ``aggs``.

    rows.csv has a line per row: its fields, then a ``sta_<id>`` column per
    station id of any block, holding the serving node, ``none`` when the
    station is unassociated, or nothing when the row has no such station.
    results.json is ``{"aggregates": [...], "rows": [...]}`` as ``json.dumps``
    writes it with sorted keys and no spaces, a row's associations keyed by
    station id as a string.  Each distinct constants tuple, of a block's
    points or of the aggregates, is spelled once for all three files, a
    column at a time, and so are the aggregates' ``k`` and means; each
    point's pieces of a row are made once.  A block's rows are written in
    slices of at most ``_EXPORT_ROWS``, one comprehension per file, and each
    file spells a vector once, from its layout's pieces, while consecutive
    slices share their stations and nodes (a run's block has one layout, and
    one geometry's stock points share one vector per deployment)."""
    columns = sorted({sid for block in blocks for sid in block.sta_ids})
    # the file's dialect: what csv quotes depends on the line terminator too
    line = io.StringIO()
    line_writer = csv.writer(line, lineterminator="\n")
    spelled: dict = {}

    def rule(value) -> tuple[str, str]:
        """A value's rows.csv cell and results.json text, made once per type
        and repr: -0.0 == 0.0, True == 1 and 2 == 2.0 spell apart."""
        key = (type(value), repr(value))
        if key not in spelled:
            line.seek(0)
            line.truncate()
            json_text = _encode(value)
            # flags as json has them; csv writes one lone empty field as ""
            line_writer.writerow((json_text if isinstance(value, bool) else value, None))
            spelled[key] = line.getvalue()[:-2], json_text
        return spelled[key]

    def column(values: Sequence) -> tuple:
        """The cells and the json texts of ``values``: finite floats by one
        ``map(repr)``, each distinct object of any other column by ``rule``."""
        if set(map(type, values)) <= {float} and all(map(math.isfinite, values)):
            texts = list(map(repr, values))
            return texts, texts
        ids = list(map(id, values))
        distinct = dict(zip(ids, values))  # ``values`` holds each object
        if len(distinct) == 1:  # as a grid's curve has its test id, plan and mechanism
            cell, text = rule(values[0])
            return [cell] * len(ids), [text] * len(ids)
        by_id = dict(zip(distinct, map(rule, distinct.values())))
        return tuple(zip(*map(by_id.__getitem__, ids)))

    # every block's points' constants, then the aggregates' and their k and means
    consts = [c for block in blocks for c in block.consts]
    agg_consts, *tail = _aggregate_columns(aggs)
    # each distinct constants tuple spelled once for all three files, a column at a time
    distinct = {id(c): c for c in chain(consts, agg_consts)}
    cells, texts = zip(*map(column, list(zip(*distinct.values())) or [()] * len(_CONSTANT)))
    # _ROW_FIELDS: five constants, the deployment index, four constants, then
    # throughput, delay and congestion; AGGREGATE_COLUMNS: the nine, then the tail
    cuts = dict(zip(distinct, zip(map(",".join, zip(*cells[:5])),
                                  map(",".join, zip(*cells[5:])))))

    def pieces(template: str, of: list) -> list:
        """The ``template`` record of each constants tuple of ``of``, cut at its NULs."""
        records = dict(zip(distinct, _joined(template, texts)))
        return [records[id(c)].split("\0") for c in of]

    with ExitStack() as files:
        rows_out, aggs_out, results = (path and files.enter_context(open(path, "w", newline=""))
                                       for path in (rows_csv, aggregates_csv, results_json))
        tail = [column(values) for values in tail] if aggs_out or results else ()
        if aggs_out:
            aggs_out.write(",".join(AGGREGATE_COLUMNS) + "\n" + "".join([
                f"{head},{mid},{k},{thr},{delay},{c},{assoc}\n"
                for (head, mid), k, thr, delay, c, assoc in zip(
                    map(cuts.__getitem__, map(id, agg_consts)), *(cell for cell, _ in tail))]))
        if results:
            results.write('{"aggregates":[' + ",".join([
                f"{q0}{assoc}{q1}{c}{q2}{k}{q3}{delay}{q4}{thr}{q5}"
                for (q0, q1, q2, q3, q4, q5), k, thr, delay, c, assoc in zip(
                    pieces(_AGGREGATE_RECORD, agg_consts), *(text for _, text in tail))])
                + '],"rows":[')
        del tail  # before the rows' texts are made
        if rows_out:
            rows_out.write(",".join(_ROW_FIELDS + tuple(f"sta_{i}" for i in columns)) + "\n")
        # each row point's pieces, for the files written
        heads = rows_out and [cuts[id(c)] for c in consts]
        records = results and pieces(_RECORD, consts)
        layout, sep, at = None, "", 0  # at: the block's first point in heads and records
        for block in blocks:
            D, n = block.deployments, len(block.sta_ids)
            thr_rows, delay_rows = block.thr.reshape(-1), block.delay.reshape(-1)
            congested, serving = block.congested.reshape(-1), block.serving.reshape(-1, n)
            for a in range(0, len(thr_rows), _EXPORT_ROWS):
                b = min(a + _EXPORT_ROWS, len(thr_rows))
                if (block.sta_ids, block.nodes) != layout \
                        or max(len(csv_texts), len(json_texts)) > _ENCODED_VECTORS:
                    layout, csv_texts, json_texts = (block.sta_ids, block.nodes), {}, {}
                    csv_spell = rows_out and _csv_speller(block.sta_ids, block.nodes, columns)
                    json_spell = results and _json_speller(block.sta_ids, block.nodes)
                # each row's point in heads and records, its deployment and its vector
                point, dep = np.divmod(np.arange(a, b), D)
                points, deps = (point + at).tolist(), (dep + block.first).tolist()
                vectors = serving[a:b].view(np.dtype((np.void, n))).ravel().tolist()
                flags = list(map(_FLAGS.__getitem__, congested[a:b].tolist()))
                thr = list(map(repr, thr_rows[a:b].tolist()))
                delay = list(map(repr, delay_rows[a:b].tolist()))
                if rows_out:
                    rows_out.write("".join([
                        f"{head},{dep},{mid},{t},{d},{c}{text}\n"
                        for (head, mid), dep, t, d, c, text in zip(
                            map(heads.__getitem__, points), deps, thr, delay, flags,
                            _texts(vectors, csv_texts, csv_spell))
                    ]))
                if results:
                    if not np.isfinite([thr_rows[a:b], delay_rows[a:b]]).all():
                        thr = list(map(_encode, thr_rows[a:b].tolist()))
                        delay = list(map(_encode, delay_rows[a:b].tolist()))
                    results.write(sep + ",".join([
                        f"{q0}{text}{q1}{d}{q2}{c}{q3}{dep}{q4}{t}{q5}"
                        for (q0, q1, q2, q3, q4, q5), text, d, c, dep, t in zip(
                            map(records.__getitem__, points),
                            _texts(vectors, json_texts, json_spell), delay, flags, deps, thr)
                    ]))
                    sep = ","
            at += len(block.consts)
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
