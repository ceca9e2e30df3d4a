"""Campaign execution: sweep grids in, per-deployment rows and aggregates out.

A run walks the sweep points of one campaign test, regenerates every
deployment from its (seed, index) substream, applies the configured steering
mechanism and scores the result.  Outputs are byte-stable: the same grid and
seed produce identical CSV/JSON no matter how many worker processes are used,
because randomness is keyed to the deployment index alone and results are
merged in grid order.

Sweep points that read the same inputs of ``deployment_draw`` (and have the
same ``k``) form a draw group: every demand step of a curve replays the same
stations.  A group is walked deployment-major.  Each deployment is drawn
once; each link geometry of the group (``_Geometry``: what
``build_topology`` reads, the engine parameters and the packet length)
computes its RSSI table, strongest-signal association and access airtimes
once; then each point (``_Demand``) does only what its demand and selection
change: utilization terms, the load-aware pass on its own copy of the
association, the evaluation and its results.  This flat kernel on plain lists
computes what ``initial_association``, ``reassociation_pass`` and
``evaluate`` compute, to the last bit; those functions remain the
single-topology interface and the oracle the tests hold the kernel to.

A worker pool gets (draw group, contiguous deployment range) tasks, a few
ranges per worker, so that points of unequal cost share the load; a group
with fewer deployments than that is cut into slices of its points as well.

Results are columnar.  Each task returns, per point, a block: the point's
constant fields once, then a column each of throughput, delay and congestion
and one int8 serving index per station and deployment.  The parent joins
each point's blocks in deployment order and sums its aggregate over them in
that order, as a single process would.  ``RunResult.rows`` and
``evaluate_point``'s rows are a ``ResultRows`` that builds each ``ResultRow``
only when it is read.  The exports read blocks too, and turn a plain list of
rows into blocks first: a block's constant cells are encoded once, and each
distinct association vector once for the consecutive points that share it.

Only the 802.11k/v frame trace still builds a ``Topology`` and a link-cached
``SimEnv`` per deployment: it runs ``initial_association`` and
``reassociation_pass`` once more, through ``protocol.run_mechanism``, with
an ``EventLog`` recording their frames, and checks that they land where the
kernel's serving indices say.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import operator
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate, count
from typing import Optional, Sequence

from .model import NodeKind, Position, backhaul_path
from .perf import EngineParams, SimEnv, link_rate, topology_channels, with_link_cache
from .radio import mcs_for_rssi, path_loss_db
from .selection import Mechanism, weighted_rssi
from .protocol import export_events, run_mechanism
from .scenarios import (
    STA_ID_BASE,
    SweepPoint,
    add_stations,
    build_test,
    build_topology,
    capable_set_for,
    deployment_draw,
    draw_key,
    topology_key,
)

# what rows.csv and results.json write of each row besides its associations
_ROW_FIELDS = (
    "test_id",
    "rssi_ap_e_dbm",
    "n_ext",
    "channel_plan",
    "b_ext_bps",
    "deployment_index",
    "mechanism",
    "alpha",
    "beta_pct",
    "b_t_bps",
    "throughput_pct",
    "avg_delay_ms",
    "congested",
)

# the rows.csv header of ten-station deployments, as in every shipped grid
ROW_COLUMNS = _ROW_FIELDS + tuple(
    f"sta_{i}" for i in range(STA_ID_BASE, STA_ID_BASE + 10)
)

AGGREGATE_COLUMNS = (
    "test_id",
    "rssi_ap_e_dbm",
    "n_ext",
    "channel_plan",
    "b_ext_bps",
    "mechanism",
    "alpha",
    "beta_pct",
    "b_t_bps",
    "k",
    "mean_throughput_pct",
    "mean_delay_ms",
    "congested_pct",
    "association_rate_pct",
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
    unassociated."""

    def __init__(self, const: dict, sta_ids: tuple[int, ...], nodes: list, first: int):
        self.const, self.sta_ids, self.nodes, self.first = const, sta_ids, nodes, first
        self.thr, self.delay, self.congested = array("d"), array("d"), bytearray()
        self.serving = array("b")

    def __len__(self) -> int:
        return len(self.thr)

    def append(self, thr: float, delay: float, congested: bool, serving: list[int]) -> None:
        self.thr.append(thr)
        self.delay.append(delay)
        self.congested.append(congested)
        self.serving.extend(serving)

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

    def associations(self, serving) -> dict[int, Optional[int]]:
        """A row's associations from its serving indices."""
        nodes = self.nodes
        return {sid: (nodes[j] if j >= 0 else None) for sid, j in zip(self.sta_ids, serving)}

    def row(self, i: int) -> ResultRow:
        n = len(self.sta_ids)
        return ResultRow(
            **self.const, deployment_index=self.first + i,
            throughput_pct=self.thr[i], avg_delay_ms=self.delay[i],
            congested=bool(self.congested[i]),
            associations=self.associations(self.serving[i * n : (i + 1) * n]),
        )


def _blocks(rows: Sequence[ResultRow]) -> list[_Block]:
    """A run's blocks, or a list's rows cut into blocks wherever a row stops
    sharing the last one's constant fields (by value and type), station ids
    or deployment sequence.  The columns hold throughput and delay as floats
    and congestion as a flag, as a run makes them, so a hand-built row's
    throughput ``100`` reads back, and is exported, as ``100.0``."""
    if isinstance(rows, ResultRows):
        return rows.blocks
    blocks: list[_Block] = []
    last = None
    for row in rows:
        const, sta_ids = _constant(row), tuple(sorted(row.associations))
        key = (const, tuple(map(type, const)), sta_ids)
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
        sel = point.selection
        if sel.mechanism is Mechanism.LOAD_AWARE:
            if cfg.alpha is not None:
                sel = replace(sel, alpha=cfg.alpha)
            if cfg.beta_pct is not None:
                sel = replace(sel, beta_pct=cfg.beta_pct)
        spec = point.scenario
        if cfg.k is not None:
            spec = replace(spec, k=cfg.k)
        if cfg.seed is not None:
            spec = replace(spec, seed=cfg.seed)
        out.append(replace(point, selection=sel, scenario=spec))
    return out


class _Geometry:
    """What the deployments of every sweep point on one link geometry share.

    A link geometry is what ``build_topology`` reads, plus the engine
    parameters and the packet length; the station count comes with the draw
    group.  Fixed here: serving nodes in AP-first order, access and backhaul
    channels as indices into the sorted ``topology_channels`` list (external
    loads aside), tx powers, MCS tables, station sensitivities and spatial
    streams, backhaul paths and the airtimes of the fixed backhaul links.
    ``links`` then gives, once per deployment, what no demand changes: the
    RSSI table, the strongest-signal association, the access airtime of each
    associated station and, for steering, each station's in-range candidates
    with their weighted RSSI.
    """

    def __init__(self, point: SweepPoint, params: EngineParams) -> None:
        spec = point.scenario
        self.propagation = params.propagation
        self.base = build_topology(spec, point.rssi_ap_e_dbm, params.propagation)
        # traffic only fixes the packet length here; frame traces put each
        # point's own traffic and external loads back
        self.env = env = SimEnv(
            traffic=point.traffic,
            **{f.name: getattr(params, f.name) for f in fields(EngineParams)},
        )
        # station radios as add_stations makes them; positions come per deployment
        t = add_stations(self.base, [(0.0, 0.0)] * spec.n_sta)
        stations = [t.nodes[sid] for sid in t.stations()]
        self.serving = serving = sorted(
            t.serving_nodes(), key=lambda j: (t.nodes[j].kind is not NodeKind.AP, j)
        )
        self.channels = chans = {c: i for i, c in enumerate(topology_channels(t, env))}
        self.L = L = env.traffic.packet_length_bits
        self.cap_ms = env.congested_hop_delay_ms
        self.fixed_s = fixed_s = {b: o.total_us * 1e-6 for b, o in env.overheads.items()}

        radios = [t.nodes[j].access_radio for j in serving]
        self.acc_ch = [chans[r.channel] for r in radios]
        self.tx = [
            (t.nodes[j].position, r.tx_power_dbm, env.band_mhz[r.channel.band])
            for j, r in zip(serving, radios)
        ]
        self.access_mcs = [env.mcs_tables[r.channel.band] for r in radios]
        self.access_fixed_s = [fixed_s[r.channel.band] for r in radios]
        self.sens = [n.access_radio.sensitivity_dbm for n in stations]
        sta_ss = [min(r.spatial_streams for r in n.radios) for n in stations]
        srv_ss = [min(r.spatial_streams for r in t.nodes[j].radios) for j in serving]
        self.streams = [[min(a, b) for b in srv_ss] for a in sta_ss]

        exts = t.extenders()
        uplink = [[exts.index(c) for c, _ in backhaul_path(t, j)] for j in serving]
        self.backhaul = []
        bh_hop = []
        for e, ext in enumerate(exts):
            ch = t.nodes[ext].backhaul_radio.channel
            rate = link_rate(env, t, ext, t.backhaul_parent[ext], ch.band)
            air = fixed_s[ch.band] + L / rate
            users = [j for j, up in enumerate(uplink) if e in up]
            self.backhaul.append((chans[ch], users, air))
            bh_hop.append((air, chans[ch]))
        self.bh_hops = [[bh_hop[e] for e in up] for up in uplink]

    def airtime(self, s: int, j: int, rssi: float) -> float:
        """Airtime of one packet of station ``s`` to serving ``j``."""
        got = mcs_for_rssi(self.access_mcs[j], rssi, self.streams[s][j])
        if got is None:
            raise ValueError(
                f"link {self.serving[j]}->{STA_ID_BASE + s} at {rssi:.1f} dBm is below"
                " the lowest MCS; table floor must cover the association sensitivity"
            )
        return self.access_fixed_s[j] + self.L / got[1]

    def links(self, positions: Sequence[Position], steer: bool) -> tuple:
        """RSSI table, each station's strongest in-range serving index (-1 when
        unassociated), its access airtime (0.0 when unassociated) and, when
        ``steer``, its (serving index, weighted RSSI) candidates in index order
        (else None)."""
        p = self.propagation
        rssi = [
            [
                tx_power - path_loss_db(f, math.hypot(tx[0] - x, tx[1] - y), p)
                for tx, tx_power, f in self.tx
            ]
            for x, y in positions
        ]
        parent: list[int] = []
        for s, row in enumerate(rssi):
            sens = self.sens[s]
            best, best_r = -1, 0.0
            for j, r in enumerate(row):
                if r >= sens and (best < 0 or r > best_r):
                    best, best_r = j, r
            parent.append(best)
        air = [
            self.airtime(s, j, rssi[s][j]) if j >= 0 else 0.0
            for s, j in enumerate(parent)
        ]
        candidates = None
        if steer:
            candidates = [
                [
                    (j, weighted_rssi(r, self.tx[j][1], sens))
                    for j, r in enumerate(row)
                    if r >= sens
                ]
                for row, sens in zip(rssi, self.sens)
            ]
        return rssi, parent, air, candidates


class _Demand:
    """One sweep point's demand on its link geometry.

    It holds what the demand and the selection change: the per-station load,
    the through-load terms of the backhaul links, the external loads and the
    selection.  ``deployment`` then repeats ``initial_association``,
    ``reassociation_pass`` and ``evaluate`` on a deployment's shared links
    with the same scalar calls and the same float operation order as those
    functions, summing utilization over access flows by station id, then
    backhaul flows by extender id, then external loads.  So every number it
    returns is bit for bit the one the ``Topology`` path gives.
    """

    def __init__(self, point: SweepPoint, geom: _Geometry) -> None:
        self.point = point
        self.geom = geom
        self.selection = sel = point.selection
        self.steer = sel.mechanism is Mechanism.LOAD_AWARE
        L = geom.L
        self.per_sta = per_sta = point.traffic.per_sta_load_bps
        self.offered_per_bit = per_sta / L
        # through-load of a backhaul link carrying n stations, summed one
        # station at a time as build_flows does
        through = [0.0]
        for _ in geom.sens:
            through.append(through[-1] + per_sta)
        self.backhaul = [
            (ch, users, [(b / L) * air for b in through])
            for ch, users, air in geom.backhaul
        ]
        chans = dict(geom.channels)
        self.external = []
        for x in point.external:
            ch = chans.setdefault(x.channel, len(chans))
            air = geom.fixed_s[x.channel.band] + L / x.phy_rate_bps
            self.external.append((ch, (x.load_bps / L) * air))
        self.n_channels = len(chans)

    def _util(self, parent: list[int], term: list[float], skip: int = -1) -> list[float]:
        """Channel utilization, as ``channel_utilization(build_flows(...))``."""
        util = [0.0] * self.n_channels
        count = [0] * len(self.geom.serving)
        acc_ch = self.geom.acc_ch
        for s, j in enumerate(parent):
            if j >= 0 and s != skip:
                util[acc_ch[j]] += term[s]
                count[j] += 1
        for ch, users, terms in self.backhaul:
            util[ch] += terms[sum(count[j] for j in users)]
        for ch, x in self.external:
            util[ch] += x
        return util

    def _loads(self, parent: list[int], term: list[float], skip: int = -1) -> list[float]:
        return [min(1.0, u) for u in self._util(parent, term, skip)]

    def _best(self, candidates: list[tuple[int, float]], loads: list[float]) -> int:
        """Lowest-scoring candidate serving index, as ``rank_candidates`` ranks."""
        a = self.selection.alpha
        geom = self.geom
        best, best_y = -1, 0.0
        for j, w in candidates:
            c_backhaul = 0.0
            for _, ch in geom.bh_hops[j]:
                c_backhaul += loads[ch]
            y = a * (w + loads[geom.acc_ch[j]]) + (1.0 - a) * c_backhaul
            if best < 0 or y < best_y:
                best, best_y = j, y
        return best

    def _reassociate(self, links, parent, air, term, order) -> None:
        """``reassociation_pass`` over the capable station indices ``order``."""
        sel = self.selection
        rssi, _, _, candidates = links
        for _ in range(sel.passes):
            start, start_term = list(parent), list(term)
            snapshot = None
            if not sel.refresh_loads and sel.include_self_load:
                snapshot = self._loads(parent, term)
            fresh = None
            for s in order:
                current = parent[s]
                if current < 0:
                    continue
                if sel.refresh_loads:
                    if sel.include_self_load:
                        if fresh is None:
                            fresh = self._loads(parent, term)
                        loads = fresh
                    else:
                        loads = self._loads(parent, term, s)
                elif sel.include_self_load:
                    loads = snapshot
                else:
                    loads = self._loads(start, start_term, s)
                best = self._best(candidates[s], loads)
                if best >= 0 and best != current:
                    parent[s] = best
                    air[s] = self.geom.airtime(s, best, rssi[s][best])
                    term[s] = self.offered_per_bit * air[s]
                    fresh = None

    def deployment(
        self, links: tuple, capable: frozenset[int]
    ) -> tuple[float, float, bool, list[int]]:
        """Throughput %, mean delay (ms), congestion flag and each station's
        serving index (-1 when unassociated) for one deployment.

        The serving indices are the shared list of ``links`` itself when no
        station was steered."""
        _, parent, air, _ = links
        opb = self.offered_per_bit
        term = [opb * a for a in air]
        if self.steer and capable:
            # the links are shared with the geometry's other points
            parent, air = list(parent), list(air)
            order = sorted(sid - STA_ID_BASE for sid in capable)
            self._reassociate(links, parent, air, term, order)
        return self._evaluate(parent, air, term) + (parent,)

    def _evaluate(self, parent, air, term) -> tuple[float, float, bool]:
        """``evaluate``'s network throughput %, mean delay and congestion flag."""
        util = self._util(parent, term)
        share = [(min(1.0, 1.0 / u) if u > 0 else 1.0) for u in util]
        geom = self.geom
        cap = geom.cap_ms
        delivered_sum = offered_sum = delay_sum = 0.0
        n_assoc = 0
        for s, j in enumerate(parent):
            if j < 0:
                continue
            frac = 1.0
            delay_ms = 0.0
            for at, ch in [(air[s], geom.acc_ch[j])] + geom.bh_hops[j]:
                frac *= share[ch]
                u = util[ch]
                delay_ms += cap if u >= 1.0 else min(cap, at * 1e3 / (1.0 - u))
            delivered_sum += self.per_sta * frac
            offered_sum += self.per_sta
            delay_sum += delay_ms
            n_assoc += 1
        thr = 100.0 if offered_sum == 0 else 100.0 * delivered_sum / offered_sum
        avg_delay = delay_sum / n_assoc if n_assoc else 0.0
        return thr, avg_delay, any(u > 1.0 for u in util)

    def trace(
        self,
        positions: Sequence[Position],
        capable: frozenset[int],
        parent: list[int],
        path: str,
    ) -> None:
        """Write the deployment's 802.11k/v frame trace through ``run_mechanism``.

        The trace must describe the outcome the row reports, so an
        association map that differs from the kernel's serving indices
        ``parent`` is an error.
        """
        point = self.point
        env = replace(self.geom.env, traffic=point.traffic, external=tuple(point.external))
        topo = add_stations(self.geom.base, positions, capable)
        steered, log = run_mechanism(topo, with_link_cache(topo, env), self.selection)
        serving = self.geom.serving
        want = {STA_ID_BASE + s: serving[j] for s, j in enumerate(parent) if j >= 0}
        if dict(steered.associations) != want:
            raise RuntimeError(f"frame trace {path} disagrees with the deployment's row")
        export_events(log, path)


# tasks per worker and draw group: enough for a pool to even out sweep points
# of unequal cost, few enough that each task amortizes its set-up
_CHUNKS_PER_WORKER = 4


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

    The walk is deployment-major: one draw per deployment, one ``links`` per
    link geometry, then each point's demand-dependent work.
    """
    spec = points[0][1].scenario
    sta_ids = tuple(STA_ID_BASE + i for i in range(spec.n_sta))
    geoms: dict[tuple, tuple[_Geometry, list]] = {}
    blocks: list[_Block] = []
    for pi, point in points:
        key = (
            topology_key(point.scenario, point.rssi_ap_e_dbm),
            point.traffic.packet_length_bits,
        )
        if key not in geoms:
            geoms[key] = (_Geometry(point, params), [])
        geom, members = geoms[key]
        sel = point.selection
        const = dict(
            test_id=point.test_id, rssi_ap_e_dbm=point.rssi_ap_e_dbm,
            n_ext=point.scenario.n_extenders, channel_plan=point.scenario.channel_plan,
            b_ext_bps=point.b_ext_bps, mechanism=sel.mechanism.value, alpha=sel.alpha,
            beta_pct=sel.beta_pct, b_t_bps=point.b_t_bps,
        )
        block = _Block(const, sta_ids, geom.serving, lo)
        members.append((pi, _Demand(point, geom), block))
        blocks.append(block)
    walks = [
        (geom, any(demand.steer for _, demand, _ in members), members)
        for geom, members in geoms.values()
    ]
    for dep in range(lo, hi):
        positions, perm = deployment_draw(spec, dep, params.propagation)
        for geom, steer, members in walks:
            links = geom.links(positions, steer)
            for pi, demand, block in members:
                point = demand.point
                capable: frozenset[int] = frozenset()
                if demand.steer or events_dir is not None:
                    capable = capable_set_for(spec, perm, point.selection.beta_pct)
                thr, avg_delay, congested, parent = demand.deployment(links, capable)
                if events_dir is not None:
                    demand.trace(
                        positions,
                        capable,
                        parent,
                        os.path.join(
                            events_dir,
                            f"t{point.test_id}_p{pi:04d}_d{dep:05d}.ndjson",
                        ),
                    )
                block.append(thr, avg_delay, congested, parent)
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
    for vector in block.vectors():
        assoc_sum += (spec.n_sta - vector.count(0xFF)) / spec.n_sta
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
    """All deployments of one sweep point, plus their aggregate."""
    (block,) = _evaluate_range(((point_index, point),), params, events_dir, 0, point.scenario.k)
    return ResultRows([block]), _aggregate(point, block)


def run(cfg: RunConfig) -> RunResult:
    points = apply_overrides(build_test(cfg.test_id), cfg)
    events_dir = None
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        if cfg.emit_events:
            events_dir = os.path.join(cfg.out_dir, "events")
            os.makedirs(events_dir, exist_ok=True)
    tasks = []
    wanted = cfg.workers * _CHUNKS_PER_WORKER if cfg.workers > 1 else 1
    for group in _draw_groups(points):
        k = points[group[0]].scenario.k
        n = min(k, wanted)
        bounds = [k * c // n for c in range(n + 1)]
        # a group with fewer deployments than wanted ranges is cut by points too
        size = math.ceil(len(group) / math.ceil(wanted / n))
        for first in range(0, len(group), size):
            members = tuple((i, points[i]) for i in group[first : first + size])
            tasks.extend(
                (members, cfg.params, events_dir, lo, hi)
                for lo, hi in zip(bounds, bounds[1:])
            )
    if cfg.workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(cfg.workers) as pool:
            results = pool.starmap(_evaluate_range, tasks)
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
        export_rows_csv(rows, os.path.join(cfg.out_dir, "rows.csv"))
        export_aggregates_csv(aggregates, os.path.join(cfg.out_dir, "aggregates.csv"))
        export_json(rows, aggregates, os.path.join(cfg.out_dir, "results.json"))
    return RunResult(points=tuple(points), rows=rows, aggregates=tuple(aggregates))


# --- exports ----------------------------------------------------------------

_FLAGS = ("false", "true")
# distinct association vectors an export holds encoded, which bounds its
# memory; the consecutive points of one geometry come well within it
_ENCODED_VECTORS = 1 << 14


def _encoded(blocks: Sequence[_Block], encode):
    """Each block with the text ``encode(associations)`` of each row.  A
    vector is encoded once while consecutive blocks share their stations and
    nodes, as one geometry's stock points share one vector per deployment."""
    layout, texts = None, {}
    for block in blocks:
        if (block.sta_ids, block.nodes) != layout or len(texts) > _ENCODED_VECTORS:
            layout, texts = (block.sta_ids, block.nodes), {}
        vectors = block.vectors()
        for vector in set(vectors).difference(texts):
            texts[vector] = encode(block.associations(array("b", vector)))
        yield block, map(texts.__getitem__, vectors)


def export_rows_csv(rows: Sequence[ResultRow], path: str) -> None:
    """One line per row: its fields, then a ``sta_<id>`` column per station
    id found in any row, holding the serving node, ``none`` when the station
    is unassociated, or nothing when the row has no such station."""
    blocks = _blocks(rows)
    sta_ids = sorted({sid for block in blocks for sid in block.sta_ids})

    def cells(assoc: dict) -> str:
        return "".join(
            "," if sid not in assoc else ",none" if assoc[sid] is None else f",{assoc[sid]}"
            for sid in sta_ids
        )

    # the file's dialect: what csv quotes depends on the line terminator too
    line = io.StringIO()
    line_writer = csv.writer(line, lineterminator="\n")

    def constant_cells(const: dict, names: Sequence[str]) -> str:
        """The cells of ``names`` as the file's writer writes them, then a comma."""
        line.seek(0)
        line.truncate()
        line_writer.writerow([const[f] for f in names])
        return line.getvalue()[:-1] + ","

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_ROW_FIELDS + tuple(f"sta_{i}" for i in sta_ids))
        for block, texts in _encoded(blocks, cells):
            # _ROW_FIELDS: five constants, the deployment index, four
            # constants, then throughput, delay and congestion
            head = constant_cells(block.const, _CONSTANT[:5])
            mid = constant_cells(block.const, _CONSTANT[5:])
            fh.write("".join([
                f"{head}{dep},{mid}{t!r},{d!r},{_FLAGS[c]}{text}\n"
                for dep, t, d, c, text in zip(
                    count(block.first), block.thr, block.delay, block.congested, texts
                )
            ]))


def export_aggregates_csv(aggs: Sequence[Aggregate], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AGGREGATE_COLUMNS)
        writer.writerows(map(operator.attrgetter(*AGGREGATE_COLUMNS), aggs))


_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_record(const: dict) -> list[str]:
    """``_encode`` of a row's record cut where each per-row value goes.  In
    sorted key order associations and avg_delay_ms follow alpha, congested
    and deployment_index come before mechanism, and throughput_pct is last."""
    text = _encode(const)
    a, m = text.index(',"b_ext_bps":'), text.index(',"mechanism":')
    return [
        text[:a] + ',"associations":', ',"avg_delay_ms":',
        text[a:m] + ',"congested":', ',"deployment_index":',
        text[m:-1] + ',"throughput_pct":', "}",
    ]


def export_json(rows: Sequence[ResultRow], aggs: Sequence[Aggregate], path: str) -> None:
    """``{"aggregates": [...], "rows": [...]}`` as ``json.dumps`` writes it with
    sorted keys and no spaces, a row's associations keyed by station id as a
    string."""

    def associations(assoc: dict) -> str:
        return _encode({str(sid): node for sid, node in assoc.items()})

    with open(path, "w") as fh:
        fh.write('{"aggregates":')
        fh.write(_encode([{c: getattr(a, c) for c in AGGREGATE_COLUMNS} for a in aggs]))
        fh.write(',"rows":[')
        for b, (block, texts) in enumerate(_encoded(_blocks(rows), associations)):
            q0, q1, q2, q3, q4, q5 = _json_record(block.const)
            finite = all(map(math.isfinite, block.thr)) and all(map(math.isfinite, block.delay))
            spell = repr if finite else _encode  # json's float spellings
            fh.write("," * (b > 0) + ",".join([
                f"{q0}{text}{q1}{d}{q2}{_FLAGS[c]}{q3}{dep}{q4}{t}{q5}"
                for text, d, c, dep, t in zip(
                    texts, map(spell, block.delay), block.congested, count(block.first),
                    map(spell, block.thr),
                )
            ]))
        fh.write("]}\n")


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
