"""Untraced and traced measurement of one workload.

``untraced`` gives the end-to-end numbers: it calls ``runner.run`` on the
workload again and again for the run's seconds and reports the median
deployments per second. ``traced`` gives the per-layer numbers: each of its
rounds runs the workload untraced once, walks it under spans (see ``walk``)
and times ``runner.evaluate_point`` point by point.

Every bundle either mode writes is checked against the pinned digests. An
untraced run that raises counts all of its points as failed; the traced mode
stops at the first exception.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

from digests import Check, check_bundle
from spans import Span, Tracer, highest_percentile
from walk import STAGES, span_totals, walk
from workloads import Workload, run_config

from wlansteer.runner import (
    apply_overrides,
    evaluate_point,
    export_aggregates_csv,
    export_json,
    export_rows_csv,
    run,
)
from wlansteer.scenarios import build_test

BUNDLE_FILES = ("rows.csv", "aggregates.csv", "results.json")


@dataclass
class Tally:
    """Sweep points checked against the pinned digests, and those that differ."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, label: str, check: Check) -> None:
        self.attempted += check.attempted
        self.failed += len(check.failed)
        if check.failed:
            where = ", ".join(check.run_level) or f"points {list(check.failed[:10])}"
            self.notes.append(f"{label}: {len(check.failed)} points differ ({where})")

    def raised(self, label: str, n_points: int) -> None:
        self.attempted += n_points
        self.failed += n_points
        self.notes.append(f"{label}: raised\n{traceback.format_exc()}")


@dataclass
class Context:
    workload: Workload
    seed: Optional[int]  # RunConfig.seed
    seed_key: str  # the seed's key in the golden file
    golden: dict
    scratch: str
    tally: Tally = field(default_factory=Tally)

    def bundle(self, label: str) -> str:
        path = os.path.join(self.scratch, label)
        os.makedirs(path)
        return path

    def check(self, label: str, bundle: str) -> None:
        self.tally.add(label, check_bundle(bundle, self.golden, self.seed_key))
        shutil.rmtree(bundle)


def _export(rows, aggs, bundle: str) -> None:
    export_rows_csv(rows, os.path.join(bundle, "rows.csv"))
    export_aggregates_csv(aggs, os.path.join(bundle, "aggregates.csv"))
    export_json(rows, aggs, os.path.join(bundle, "results.json"))


def _peak_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def untraced(ctx: Context, seconds: float, between: Callable[[], None]) -> dict:
    """Median deployments/s of ``runner.run`` over repeated runs, plus peak RSS.

    ``between`` runs after each call, outside its time. Peak RSS is read right
    after the first run, before its output is checked: the check and the
    repetitions would add their own memory to it.
    """
    n_points = ctx.golden["n_points"]
    peak = []

    def one(label: str):
        bundle = ctx.bundle(label)
        cfg = run_config(ctx.workload, ctx.seed, bundle)
        try:
            t0 = time.perf_counter()
            n_rows = len(run(cfg).rows)  # the result is freed before the check
            wall = time.perf_counter() - t0
        except Exception:
            ctx.tally.raised(label, n_points)
            return None
        peak.append(_peak_mb(resource.RUSAGE_SELF))
        ctx.check(label, bundle)
        return n_rows / wall

    one("warm-up")
    rates = []
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        rate = one(f"run{len(rates)}")
        if rate is None:
            break
        rates.append(rate)
        between()
    if not rates:
        raise RuntimeError("every run raised:\n" + "\n".join(ctx.tally.notes))
    return {
        "deployments_per_s": (statistics.median(rates), "1/s", len(rates)),
        "peak_rss_mb": (peak[0], "MB", 1),
    }


def _events_dir(ctx: Context, bundle: str):
    if not ctx.workload.emit_events:
        return None
    path = os.path.join(bundle, "events")
    os.makedirs(path)
    return path


def _timed_run(ctx: Context, label: str) -> tuple[float, float]:
    """Wall seconds of one ``runner.run`` with the workload's workers, and the
    peak RSS in MB of the largest process that evaluated points.

    Without events the bundle is exported after the clock stops, so the time
    is the pool's alone.
    """
    bundle = ctx.bundle(label)
    w = ctx.workload
    t0 = time.perf_counter()
    res = run(run_config(w, ctx.seed, bundle if w.emit_events else None))
    wall = time.perf_counter() - t0
    # pool workers have exited and been waited for when run() returns
    peak = _peak_mb(resource.RUSAGE_CHILDREN if w.workers > 1 else resource.RUSAGE_SELF)
    if not w.emit_events:
        _export(res.rows, res.aggregates, bundle)
    ctx.check(label, bundle)
    return wall, peak


def _traced_walk(ctx: Context, label: str, points, params, tracer, counts) -> tuple[int, int]:
    """Walk the sweep under spans and export its bundle; (rows, bundle bytes)."""
    bundle = ctx.bundle(label)
    probe_dir = ctx.bundle(label + "-probe")
    rows, aggs = walk(points, params, tracer, counts, _events_dir(ctx, bundle), probe_dir)
    with tracer.span("runner.export_rows_csv"):
        export_rows_csv(rows, os.path.join(bundle, "rows.csv"))
    with tracer.span("runner.export_aggregates_csv"):
        export_aggregates_csv(aggs, os.path.join(bundle, "aggregates.csv"))
    with tracer.span("runner.export_json"):
        export_json(rows, aggs, os.path.join(bundle, "results.json"))
    size = sum(os.path.getsize(os.path.join(bundle, f)) for f in BUNDLE_FILES)
    ctx.check(label, bundle)
    shutil.rmtree(probe_dir)
    return len(rows), size


def _timed_points(ctx: Context, label: str, points, params, tracer) -> None:
    """``runner.evaluate_point`` point by point, one span each: the engine's
    own path, whatever kernel it uses, and the walk's untraced baseline."""
    bundle = ctx.bundle(label)
    events_dir = _events_dir(ctx, bundle)
    rows, aggs = [], []
    for pi, point in enumerate(points):
        with tracer.span("runner.evaluate_point", (pi, None)):
            point_rows, agg = evaluate_point(pi, point, params, events_dir)
        rows.extend(point_rows)
        aggs.append(agg)
    _export(rows, aggs, bundle)
    ctx.check(label, bundle)


def traced(ctx: Context, seconds: float,
           between: Callable[[], None]) -> tuple[dict, list[Span]]:
    """Per-layer metrics from rounds of (timed run, traced walk, timed points);
    ``between`` runs after each round."""
    w = ctx.workload
    cfg = run_config(w, ctx.seed, None)
    points = apply_overrides(build_test(cfg.test_id), cfg)
    tracer = Tracer()
    counts: Counter = Counter()
    pool_s = 0.0
    worker_peak = None
    rows_walked = bundle_bytes = rounds = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds += 1
        wall, peak = _timed_run(ctx, f"round{rounds}-run")
        pool_s += wall
        worker_peak = worker_peak or peak
        n_rows, size = _traced_walk(ctx, f"round{rounds}-walk", points, cfg.params,
                                    tracer, counts)
        rows_walked += n_rows
        bundle_bytes += size
        _timed_points(ctx, f"round{rounds}-points", points, cfg.params, tracer)
        between()

    spans = tracer.spans
    return _layer_metrics(spans, counts, w, rounds, pool_s, worker_peak,
                          rows_walked, bundle_bytes), spans


def _roots(spans) -> list[str]:
    roots: list[str] = []
    for s in spans:
        roots.append(s.name if s.parent is None else roots[s.parent])
    return roots


def _layer_metrics(spans, counts, w, rounds, pool_s, worker_peak,
                   rows_walked, bundle_bytes) -> dict:
    totals = span_totals(spans)
    roots = _roots(spans)
    deployments = totals["runner.deployment"][0]

    # the per-deployment wall must be the stage spans plus the runner's self
    # time, to the nanosecond: anything else means misnested spans
    wall_ns = totals["runner.point"][1]
    stage_ns = sum(
        s.duration_ns for s, r in zip(spans, roots) if r == "runner.point" and s.name in STAGES
    )
    runner_self_ns = totals["runner.point"][2] + totals["runner.deployment"][2]
    if stage_ns + runner_self_ns != wall_ns:
        raise RuntimeError(
            f"trace accounting: stages {stage_ns} + self {runner_self_ns} != wall {wall_ns} ns"
        )

    def mean_us(name: str) -> float:
        calls, total, _ = totals[name]
        return total / calls / 1e3

    def calls(name: str) -> int:
        return totals[name][0]

    export_names = ("runner.export_rows_csv", "runner.export_aggregates_csv", "runner.export_json")
    export_ns = sum(totals[n][1] for n in export_names)
    point_ms = [s.duration_ns / 1e6 for s in spans if s.name == "runner.evaluate_point"]
    busy_s = sum(point_ms) / 1e3
    tail = highest_percentile(point_ms)
    pn_pct, pn = tail if tail else (50.0, statistics.median(point_ms))
    steer_calls = calls("selection.reassociation_pass")
    return {
        "scenarios.draw_us": (
            mean_us("scenarios.deployment_draw") + mean_us("scenarios.capable_set_for"),
            "us", calls("scenarios.deployment_draw"),
        ),
        "scenarios.build_us": (
            totals["scenarios.build_topology"][1] / deployments / 1e3
            + mean_us("scenarios.add_stations"),
            "us", deployments,
        ),
        "perf.link_table_us": (mean_us("perf.with_link_cache"), "us", calls("perf.with_link_cache")),
        "perf.links_per_dep": (counts["links"] / deployments, "count", deployments),
        "selection.assoc_us": (
            mean_us("selection.initial_association"), "us",
            calls("selection.initial_association"),
        ),
        "selection.steer_us": (mean_us("selection.reassociation_pass"), "us", steer_calls),
        "selection.moves_per_dep": (counts["moves"] / steer_calls, "count", steer_calls),
        "selection.move_ratio": (
            counts["moves"] / counts["visited"] if counts["visited"] else 0.0,
            "ratio", counts["visited"],
        ),
        "perf.evaluate_us": (mean_us("perf.evaluate"), "us", calls("perf.evaluate")),
        "protocol.exchange_us": (
            mean_us("protocol.run_mechanism"), "us", calls("protocol.run_mechanism"),
        ),
        "protocol.frames_per_dep": (
            counts["frames"] / calls("protocol.run_mechanism"), "count",
            calls("protocol.run_mechanism"),
        ),
        "protocol.export_us": (
            mean_us("protocol.export_events"), "us", calls("protocol.export_events"),
        ),
        "protocol.event_bytes_per_dep": (
            counts["event_bytes"] / calls("protocol.export_events"), "B",
            calls("protocol.export_events"),
        ),
        "runner.export_us_per_row": (export_ns / rows_walked / 1e3, "us", rows_walked),
        "runner.bytes_per_row": (bundle_bytes / rows_walked, "B", rows_walked),
        "runner.point_ms.p50": (statistics.median(point_ms), "ms", len(point_ms)),
        "runner.point_ms.pN": (pn, "ms", len(point_ms)),
        "runner.point_ms.pN_pct": (pn_pct, "%", len(point_ms)),
        "runner.self_us": (runner_self_ns / deployments / 1e3, "us", deployments),
        "runner.pool_efficiency": (busy_s / (w.workers * pool_s), "ratio", rounds),
        "runner.pool_idle_s": ((w.workers * pool_s - busy_s) / rounds, "s", rounds),
        "runner.worker_peak_rss_mb": (worker_peak, "MB", 1),
        "trace.wall_us_per_dep": (wall_ns / deployments / 1e3, "us", deployments),
        "trace.overhead_pct": ((wall_ns / 1e9 / busy_s - 1.0) * 100.0, "%", rounds),
    }


def self_time_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(span name, calls, mean µs, mean self µs) for every span name."""
    return [
        (name, c, total / c / 1e3, own / c / 1e3)
        for name, (c, total, own) in sorted(span_totals(spans).items())
    ]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)
