"""Traced walk of a sweep through the scalar per-deployment API.

``walk`` repeats what ``runner.evaluate_point`` does for every point, call by
call and in ``runner._steer``'s order, with a span around each call:

    runner.point
      scenarios.build_topology
      runner.deployment                      (one per deployment)
        scenarios.deployment_draw
        scenarios.capable_set_for
        scenarios.add_stations
        perf.with_link_cache
        selection.initial_association        (no events)
        selection.reassociation_pass         (no events, load-aware points)
        protocol.run_mechanism               (events)
        protocol.export_events               (events)
        perf.evaluate

It builds the same rows and aggregates, so its bundle must match the pinned
digests. Whatever a ``runner.point`` span does outside its children (the
environment, the row records, the sums) is the runner's own self time.

Layers the workload never calls are timed on a probe: after each point, its
first deployment is built again and handed to them under a root ``probe``
span, which stays outside the per-deployment wall. Probes call
``reassociation_pass`` only for load-aware points, unless the workload has
none, and then for every point, where it returns at once.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Optional, Sequence

from digests import events_name
from spans import Span, Tracer, self_times

from wlansteer.perf import SimEnv, evaluate, with_link_cache
from wlansteer.protocol import export_events, run_mechanism
from wlansteer.runner import Aggregate, EngineParams, ResultRow
from wlansteer.scenarios import (
    STA_ID_BASE,
    SweepPoint,
    add_stations,
    build_topology,
    capable_set_for,
    deployment_draw,
)
from wlansteer.selection import Mechanism, initial_association, reassociation_pass

ASSOC = "selection.initial_association"
STEER = "selection.reassociation_pass"
EXCHANGE = "protocol.run_mechanism"
EXPORT_EVENTS = "protocol.export_events"
STAGES = (
    "scenarios.build_topology",
    "scenarios.deployment_draw",
    "scenarios.capable_set_for",
    "scenarios.add_stations",
    "perf.with_link_cache",
    ASSOC,
    STEER,
    EXCHANGE,
    EXPORT_EVENTS,
    "perf.evaluate",
)


def _env(point: SweepPoint, params: EngineParams) -> SimEnv:
    return SimEnv(
        traffic=point.traffic,
        external=tuple(point.external),
        mcs_tables=params.mcs_tables,
        overheads=params.overheads,
        propagation=params.propagation,
        band_mhz=params.band_mhz,
        congested_hop_delay_ms=params.congested_hop_delay_ms,
    )


def _steer(tracer, counts, t, env, point, dep_id):
    if point.selection.mechanism is Mechanism.LOAD_AWARE:
        # capable stations the pass visits: those associated before it starts
        counts["visited"] += point.selection.passes * sum(
            1
            for s in t.stations()
            if t.nodes[s].supports_11kv and t.associations.get(s) is not None
        )
    with tracer.span(STEER, dep_id):
        steered, moves = reassociation_pass(t, env, point.selection)
    counts["moves"] += len(moves)
    return steered


def _steer_direct(tracer, counts, topo, env, point, dep_id, steer: bool):
    with tracer.span(ASSOC, dep_id):
        steered = initial_association(topo, env)
    if steer:
        steered = _steer(tracer, counts, steered, env, point, dep_id)
    return steered


def _exchange(tracer, counts, topo, env, point, dep_id, path: str):
    with tracer.span(EXCHANGE, dep_id):
        steered, log = run_mechanism(topo, env, point.selection)
    with tracer.span(EXPORT_EVENTS, dep_id):
        export_events(log, path)
    counts["frames"] += len(log.entries)
    counts["event_bytes"] += os.path.getsize(path)
    return steered


def walk(
    points: Sequence[SweepPoint],
    params: EngineParams,
    tracer: Tracer,
    counts: Counter,
    events_dir: Optional[str],
    probe_dir: str,
) -> tuple[list[ResultRow], list[Aggregate]]:
    """Rows and aggregates of every point, built call by call under spans."""
    any_la = any(p.selection.mechanism is Mechanism.LOAD_AWARE for p in points)
    rows: list[ResultRow] = []
    aggs: list[Aggregate] = []
    for pi, point in enumerate(points):
        spec = point.scenario
        la = point.selection.mechanism is Mechanism.LOAD_AWARE
        with tracer.span("runner.point", (pi, None)):
            with tracer.span("scenarios.build_topology", (pi, None)):
                base = build_topology(spec, point.rssi_ap_e_dbm, params.propagation)
            env = _env(point, params)
            sta_ids = [STA_ID_BASE + i for i in range(spec.n_sta)]
            thr_sum = delay_sum = assoc_sum = 0.0
            congested_n = 0
            for dep in range(spec.k):
                dep_id = (pi, dep)
                with tracer.span("runner.deployment", dep_id):
                    with tracer.span("scenarios.deployment_draw", dep_id):
                        positions, perm = deployment_draw(spec, dep, params.propagation)
                    with tracer.span("scenarios.capable_set_for", dep_id):
                        capable = capable_set_for(spec, perm, point.selection.beta_pct)
                    with tracer.span("scenarios.add_stations", dep_id):
                        topo = add_stations(base, positions, capable)
                    with tracer.span("perf.with_link_cache", dep_id):
                        dep_env = with_link_cache(topo, env)
                    counts["links"] += len(dep_env.link_cache)
                    if events_dir is not None:
                        path = os.path.join(events_dir, events_name(point.test_id, pi, dep))
                        steered = _exchange(tracer, counts, topo, dep_env, point, dep_id, path)
                    else:
                        steered = _steer_direct(tracer, counts, topo, dep_env, point, dep_id, la)
                    with tracer.span("perf.evaluate", dep_id):
                        report = evaluate(steered, dep_env)
                    assoc = {sid: steered.associations.get(sid) for sid in sta_ids}
                    rows.append(
                        ResultRow(
                            test_id=point.test_id,
                            rssi_ap_e_dbm=point.rssi_ap_e_dbm,
                            n_ext=spec.n_extenders,
                            channel_plan=spec.channel_plan,
                            b_ext_bps=point.b_ext_bps,
                            deployment_index=dep,
                            mechanism=point.selection.mechanism.value,
                            alpha=point.selection.alpha,
                            beta_pct=point.selection.beta_pct,
                            b_t_bps=point.b_t_bps,
                            throughput_pct=report.network_throughput_pct,
                            avg_delay_ms=report.avg_delay_ms,
                            congested=report.congested,
                            associations=assoc,
                        )
                    )
                    thr_sum += report.network_throughput_pct
                    delay_sum += report.avg_delay_ms
                    assoc_sum += sum(1 for v in assoc.values() if v is not None) / spec.n_sta
                    congested_n += 1 if report.congested else 0
            k = spec.k
            aggs.append(
                Aggregate(
                    test_id=point.test_id,
                    rssi_ap_e_dbm=point.rssi_ap_e_dbm,
                    n_ext=spec.n_extenders,
                    channel_plan=spec.channel_plan,
                    b_ext_bps=point.b_ext_bps,
                    mechanism=point.selection.mechanism.value,
                    alpha=point.selection.alpha,
                    beta_pct=point.selection.beta_pct,
                    b_t_bps=point.b_t_bps,
                    k=k,
                    mean_throughput_pct=thr_sum / k,
                    mean_delay_ms=delay_sum / k,
                    congested_pct=100.0 * congested_n / k,
                    association_rate_pct=100.0 * assoc_sum / k,
                )
            )
        probe_steer = not any_la or (la and events_dir is not None)
        _probe(tracer, counts, point, pi, base, env, params, events_dir, probe_dir, probe_steer)
    return rows, aggs


def _probe(tracer, counts, point, pi, base, env, params, events_dir, probe_dir, steer):
    """Time the layers the workload's path skips on the point's first deployment."""
    dep_id = (pi, 0)
    with tracer.span("probe", dep_id):
        positions, perm = deployment_draw(point.scenario, 0, params.propagation)
        capable = capable_set_for(point.scenario, perm, point.selection.beta_pct)
        topo = add_stations(base, positions, capable)
        dep_env = with_link_cache(topo, env)
        if events_dir is not None:
            _steer_direct(tracer, counts, topo, dep_env, point, dep_id, steer)
        else:
            path = os.path.join(probe_dir, events_name(point.test_id, pi, 0))
            steered = _exchange(tracer, counts, topo, dep_env, point, dep_id, path)
            if steer:
                _steer(tracer, counts, steered, dep_env, point, dep_id)


def span_totals(spans: Sequence[Span]) -> dict[str, tuple[int, int, int]]:
    """name -> (calls, total ns, total self ns) over the given spans."""
    out: dict[str, list[int]] = {}
    for s, own in zip(spans, self_times(spans)):
        acc = out.setdefault(s.name, [0, 0, 0])
        acc[0] += 1
        acc[1] += s.duration_ns
        acc[2] += own
    return {name: tuple(v) for name, v in out.items()}
