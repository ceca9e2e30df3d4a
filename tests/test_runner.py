"""Campaign runner: sweep filtering, exports, parallel determinism, and its
agreement with the single-topology API."""
import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path
from unittest import mock

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from wlansteer import runner, scenarios
from wlansteer.config import run_config_from
from wlansteer.model import Band, ChannelId, ExternalLoad, Topology, TrafficProfile
from wlansteer.perf import MacOverheads, SimEnv, evaluate, link_rssi
from wlansteer.protocol import export_events, run_mechanism
from wlansteer.radio import (
    _BOUNDS, DEFAULT_MCS_TABLES, PropagationParams, max_range_m, mcs_for_rssi,
)
from wlansteer.runner import (
    AGGREGATE_COLUMNS,
    Aggregate,
    EngineParams,
    Mechanism,
    ROW_COLUMNS,
    ResultRow,
    RunConfig,
    apply_overrides,
    build_test,
    evaluate_point,
    export_aggregates_csv,
    export_json,
    export_rows_csv,
    operational_range,
    run,
)
from wlansteer.scenarios import (
    DEFAULT_EXTENDER_RSSI_DBM,
    STA_ID_BASE,
    AreaKind,
    ScenarioSpec,
    SweepPoint,
    add_stations,
    build_topology,
    capable_set_for,
    deployment_draw,
    draw_slice,
    extender_distance_m,
)
from wlansteer.selection import SelectionConfig, initial_association, reassociation_pass


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    cfg = RunConfig(test_id="1.2", k=3, workers=1, out_dir=str(out), emit_events=True)
    return run(cfg), str(out)


def test_run_produces_one_aggregate_per_point(small_run):
    res, _ = small_run
    assert len(res.points) == 5
    assert len(res.aggregates) == 5
    assert len(res.rows) == 15


def test_worker_count_does_not_change_results(small_run, tmp_path):
    res1, out1 = small_run
    res2 = run(RunConfig(test_id="1.2", k=3, workers=2))
    a = tmp_path / "rows2.csv"
    b = tmp_path / "aggs2.csv"
    export_rows_csv(res2.rows, str(a))
    export_aggregates_csv(res2.aggregates, str(b))
    with open(os.path.join(out1, "rows.csv"), "rb") as fh:
        assert a.read_bytes() == fh.read()
    with open(os.path.join(out1, "aggregates.csv"), "rb") as fh:
        assert b.read_bytes() == fh.read()


def test_csv_headers_are_stable(small_run):
    _, out = small_run
    with open(os.path.join(out, "rows.csv")) as fh:
        rows_header = fh.readline().strip()
    with open(os.path.join(out, "aggregates.csv")) as fh:
        aggs_header = fh.readline().strip()
    assert rows_header == ",".join(ROW_COLUMNS)
    assert aggs_header == ",".join(AGGREGATE_COLUMNS)
    assert ROW_COLUMNS[-10:] == tuple(f"sta_{i}" for i in range(10, 20))


def test_rows_csv_has_a_column_per_station(tmp_path):
    point = build_test("1.2")[0]
    point = replace(point, scenario=replace(point.scenario, n_sta=12, k=3))
    rows, _ = evaluate_point(0, point, EngineParams())
    path = tmp_path / "rows.csv"
    export_rows_csv(rows, str(path))
    header, *lines = path.read_text().splitlines()
    sta_ids = range(STA_ID_BASE, STA_ID_BASE + 12)
    assert header.split(",")[-12:] == [f"sta_{i}" for i in sta_ids]
    assert len(lines) == 3
    for row, line in zip(rows, lines):
        cells = line.split(",")[-12:]
        assert cells == ["none" if row.associations[sid] is None
                         else str(row.associations[sid]) for sid in sta_ids]


def test_aggregates_are_row_means(small_run):
    res, _ = small_run
    for agg in res.aggregates:
        rows = [r for r in res.rows
                if (r.mechanism, r.n_ext) == (agg.mechanism, agg.n_ext)]
        assert agg.k == len(rows) == 3
        thr = sum(r.throughput_pct for r in rows) / len(rows)
        dly = sum(r.avg_delay_ms for r in rows) / len(rows)
        cong = 100.0 * sum(r.congested for r in rows) / len(rows)
        rate = 100.0 * sum(
            sum(1 for v in r.associations.values() if v is not None) / len(r.associations)
            for r in rows) / len(rows)
        assert agg.mean_throughput_pct == pytest.approx(thr, abs=1e-12)
        assert agg.mean_delay_ms == pytest.approx(dly, abs=1e-12)
        assert agg.congested_pct == pytest.approx(cong, abs=1e-12)
        assert agg.association_rate_pct == pytest.approx(rate, abs=1e-12)


def test_json_export_round_trips_rows(small_run):
    res, out = small_run
    with open(os.path.join(out, "results.json")) as fh:
        data = json.load(fh)
    assert sorted(data) == ["aggregates", "rows"]
    assert len(data["rows"]) == len(res.rows)
    first = data["rows"][0]
    row = res.rows[0]
    assert first["mechanism"] == row.mechanism
    assert first["throughput_pct"] == row.throughput_pct
    assert first["associations"] == {str(k): v for k, v in row.associations.items()}
    assert len(data["aggregates"]) == len(res.aggregates)
    assert data["aggregates"][0]["mean_delay_ms"] == res.aggregates[0].mean_delay_ms


def test_json_export_writes_the_json_dumps_bytes(small_run, tmp_path):
    res, out = small_run
    # the cases a hand-written encoding could get wrong
    assert any(r.rssi_ap_e_dbm is None for r in res.rows)
    assert any(None in r.associations.values() for r in res.rows)
    rows = []
    for r in res.rows:
        rec = asdict(r)
        rec["associations"] = {str(k): v for k, v in r.associations.items()}
        rows.append(rec)
    payload = {"rows": rows, "aggregates": [asdict(a) for a in res.aggregates]}
    want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    with open(os.path.join(out, "results.json"), "rb") as fh:
        assert fh.read() == want.encode()
    empty = tmp_path / "empty.json"
    export_json([], [], str(empty))
    assert empty.read_text() == '{"aggregates":[],"rows":[]}\n'


def test_event_files_cover_every_deployment(small_run):
    res, out = small_run
    ev = os.path.join(out, "events")
    names = sorted(os.listdir(ev))
    assert len(names) == len(res.rows)
    assert names[0].startswith("t1.2_p") and names[0].endswith(".ndjson")
    with open(os.path.join(ev, names[0])) as fh:
        lines = [json.loads(line) for line in fh]
    assert lines
    assert all(sorted(e) == ["dst", "fields", "frame", "src", "stage", "step"] for e in lines)
    assert [e["step"] for e in lines] == list(range(len(lines)))


def test_config_validation_and_coercion():
    with pytest.raises(ValueError):
        RunConfig(test_id="1.2", workers=0)
    cfg = RunConfig(test_id="1.3", mechanism="loadaware", b_t_bps=[6e6, 12e6])
    assert cfg.mechanism is Mechanism.LOAD_AWARE
    assert cfg.b_t_bps == (6000000.0, 12000000.0)


def test_run_rejects_unknown_test_id():
    with pytest.raises(ValueError):
        run(RunConfig(test_id="3.7"))


def test_a_run_that_emits_events_needs_an_output_directory(monkeypatch):
    monkeypatch.setattr(runner, "build_test", lambda test_id: pytest.fail("nothing may run"))
    with pytest.raises(ValueError, match="^emit_events needs out_dir"):
        run(RunConfig(test_id="2.4", emit_events=True))


def test_overrides_filter_mechanism_extenders_and_load():
    pts = build_test("1.3")
    kept = apply_overrides(pts, RunConfig(test_id="1.3", mechanism="loadaware",
                                          n_ext=2, b_t_bps=(6.0e6,)))
    assert len(kept) == 1
    assert kept[0].selection.mechanism is Mechanism.LOAD_AWARE
    assert kept[0].scenario.n_extenders == 2
    assert kept[0].b_t_bps == 6000000.0


def test_overrides_retune_only_load_aware_points():
    pts = build_test("1.3")
    kept = apply_overrides(pts, RunConfig(test_id="1.3", alpha=0.9, beta_pct=25.0))
    assert len(kept) == len(pts)
    for p in kept:
        if p.selection.mechanism is Mechanism.LOAD_AWARE:
            assert (p.selection.alpha, p.selection.beta_pct) == (0.9, 25.0)
        else:
            assert p.selection.alpha == 0.5


def test_overrides_replace_repetitions_and_seed():
    pts = build_test("2.2")
    kept = apply_overrides(pts, RunConfig(test_id="2.2", k=7, seed=99))
    assert {p.scenario.k for p in kept} == {7}
    assert {p.scenario.seed for p in kept} == {99}


def _replaced(points, cfg):
    """``apply_overrides`` as ``dataclasses.replace`` spells it, point by point."""
    out = []
    for p in points:
        if ((cfg.mechanism is not None and p.selection.mechanism is not cfg.mechanism)
                or (cfg.n_ext is not None and p.scenario.n_extenders != cfg.n_ext)):
            continue
        respec = {f: getattr(cfg, f) for f in ("k", "seed") if getattr(cfg, f) is not None}
        retune = {f: getattr(cfg, f) for f in ("alpha", "beta_pct")
                  if getattr(cfg, f) is not None}
        changes = {"scenario": replace(p.scenario, **respec)} if respec else {}
        if retune and p.selection.mechanism is Mechanism.LOAD_AWARE:
            changes["selection"] = replace(p.selection, **retune)
        out.append(replace(p, **changes))
    return out


@pytest.mark.parametrize("test_id", sorted(runner.TEST_IDS))
@pytest.mark.parametrize("rewrite", [
    {}, {"k": 7}, {"seed": 99}, {"alpha": 0.9}, {"beta_pct": 25.0},
    {"k": 3, "seed": 0, "alpha": 0.0, "beta_pct": 50.0, "mechanism": "loadaware"},
    {"seed": 5, "n_ext": 2},
], ids=["none", "k", "seed", "alpha", "beta", "all-loadaware", "seed-n_ext2"])
def test_overrides_equal_the_replace_reference(test_id, rewrite):
    pts = build_test(test_id)
    cfg = RunConfig(test_id=test_id, **rewrite)
    kept = apply_overrides(pts, cfg)
    assert kept == _replaced(pts, cfg)
    if not rewrite:  # a point that no rewrite touches is kept as it is
        assert all(p is q for p, q in zip(kept, pts, strict=True))


def _agg(b_t, thr, delay, cong):
    return Aggregate(test_id="x", rssi_ap_e_dbm=None, n_ext=2, channel_plan="multi",
                     b_ext_bps=0.0, mechanism="rssi", alpha=0.5,
                     beta_pct=100.0, b_t_bps=b_t, k=10, mean_throughput_pct=thr,
                     mean_delay_ms=delay, congested_pct=cong,
                     association_rate_pct=100.0)


def test_operational_range_picks_the_largest_passing_load():
    aggs = [_agg(1e6, 100.0, 1.0, 0.0), _agg(2e6, 99.5, 5.0, 0.0),
            _agg(3e6, 98.0, 12.0, 0.0), _agg(4e6, 60.0, 9000.0, 80.0)]
    assert operational_range(aggs, "thr99") == 2e6
    assert operational_range(aggs, "delay10") == 2e6
    assert operational_range(aggs, "no_congestion") == 3e6


def test_operational_range_returns_zero_when_nothing_passes():
    aggs = [_agg(1e6, 50.0, 9999.0, 100.0)]
    for crit in ("thr99", "delay10", "no_congestion"):
        assert operational_range(aggs, crit) == 0.0
    assert operational_range([], "thr99") == 0.0


def test_operational_range_rejects_unknown_criteria():
    with pytest.raises(ValueError):
        operational_range([_agg(1e6, 100.0, 1.0, 0.0)], "jitter")


# --- the runner against the single-topology API ------------------------------


def _scalar_point(point, params, trace_path=None):
    """Rows and aggregate of one point, its deployments drawn in one
    ``draw_slice`` and recomputed one by one through the public ``Topology``
    API.  With ``trace_path``, each deployment runs through
    ``run_mechanism``, and its frame trace goes to ``trace_path(deployment)``."""
    spec, sel = point.scenario, point.selection
    base = build_topology(spec, point.rssi_ap_e_dbm, params.propagation,
                          band_mhz=params.band_mhz)
    env = SimEnv(traffic=point.traffic, external=tuple(point.external),
                 mcs_tables=params.mcs_tables, overheads=params.overheads,
                 propagation=params.propagation, band_mhz=params.band_mhz,
                 congested_hop_delay_ms=params.congested_hop_delay_ms)
    rows = []
    thr_sum = delay_sum = assoc_sum = 0.0
    congested_n = 0
    drawn, perms = draw_slice(spec, 0, spec.k, params.propagation, band_mhz=params.band_mhz)
    for dep, (positions, perm) in enumerate(zip(drawn, perms)):
        topo = add_stations(base, positions, capable_set_for(spec, perm, sel.beta_pct))
        if trace_path is not None:
            steered, log = run_mechanism(topo, env, sel)
            export_events(log, trace_path(dep))
        else:
            steered = initial_association(topo, env)
            if sel.mechanism is Mechanism.LOAD_AWARE:
                steered, _ = reassociation_pass(steered, env, sel)
        report = evaluate(steered, env)
        assoc = {STA_ID_BASE + i: steered.associations.get(STA_ID_BASE + i)
                 for i in range(spec.n_sta)}
        rows.append(ResultRow(
            test_id=point.test_id, rssi_ap_e_dbm=point.rssi_ap_e_dbm,
            n_ext=spec.n_extenders, channel_plan=spec.channel_plan,
            b_ext_bps=point.b_ext_bps, deployment_index=dep,
            mechanism=sel.mechanism.value, alpha=sel.alpha, beta_pct=sel.beta_pct,
            b_t_bps=point.b_t_bps, throughput_pct=report.network_throughput_pct,
            avg_delay_ms=report.avg_delay_ms, congested=report.congested,
            associations=assoc))
        thr_sum += report.network_throughput_pct
        delay_sum += report.avg_delay_ms
        assoc_sum += sum(1 for v in assoc.values() if v is not None) / spec.n_sta
        congested_n += 1 if report.congested else 0
    k = spec.k
    agg = Aggregate(
        test_id=point.test_id, rssi_ap_e_dbm=point.rssi_ap_e_dbm,
        n_ext=spec.n_extenders, channel_plan=spec.channel_plan,
        b_ext_bps=point.b_ext_bps, mechanism=sel.mechanism.value, alpha=sel.alpha,
        beta_pct=sel.beta_pct, b_t_bps=point.b_t_bps, k=k,
        mean_throughput_pct=thr_sum / k, mean_delay_ms=delay_sum / k,
        congested_pct=100.0 * congested_n / k,
        association_rate_pct=100.0 * assoc_sum / k)
    return rows, agg


def _point(test_id, k, pick):
    """The first grid point of ``test_id`` that ``pick`` accepts, at ``k``."""
    p = next(p for p in build_test(test_id) if pick(p))
    return replace(p, scenario=replace(p.scenario, k=k))


def _la(p):
    return p.selection.mechanism is Mechanism.LOAD_AWARE


def _stock(p):
    return p.selection.mechanism is Mechanism.RSSI_BASED


def _oracle_cases():
    steer_pt = _point("2.1", 12, lambda p: _la(p) and p.scenario.n_extenders == 2
                      and p.scenario.channel_plan == "multi" and p.b_t_bps == 30.0e6)
    cases = {
        "1.1-stock": _point("1.1", 6, lambda p: _stock(p) and p.rssi_ap_e_dbm == -70.0
                            and p.scenario.channel_plan == "single"),
        "1.1-loadaware": _point("1.1", 6, lambda p: _la(p) and p.rssi_ap_e_dbm == -62.0),
        "1.2-stock-0E": _point("1.2", 8, lambda p: _stock(p) and p.scenario.n_extenders == 0),
        "1.2-loadaware-4E": _point("1.2", 8, lambda p: _la(p) and p.scenario.n_extenders == 4),
        "1.3-stock-4E": _point("1.3", 6, lambda p: _stock(p) and p.scenario.n_extenders == 4
                               and p.b_t_bps == 24.0e6),
        "1.3-loadaware-2E": _point("1.3", 6, lambda p: _la(p) and p.scenario.n_extenders == 2
                                   and p.b_t_bps == 18.0e6),
        "2.1-stock-single": _point("2.1", 6, lambda p: _stock(p)
                                   and p.scenario.n_extenders == 2
                                   and p.scenario.channel_plan == "single"
                                   and p.b_t_bps == 42.0e6),
        "2.1-loadaware": steer_pt,
        "2.2-alpha0": _point("2.2", 6, lambda p: p.selection.alpha == 0.0
                             and p.scenario.channel_plan == "single"),
        "2.3-beta25": _point("2.3", 6, lambda p: p.selection.beta_pct == 25.0
                             and p.traffic.per_sta_load_bps == 5.4e6),
        "2.3-beta0": _point("2.3", 6, lambda p: p.selection.beta_pct == 0.0),
        "2.4-external": _point("2.4", 1, lambda p: p.selection.alpha == 0.75
                               and p.b_ext_bps == 6.0e6),
        "2.4-external-stock": _point("2.4", 1, lambda p: _stock(p)
                                     and p.scenario.n_extenders == 1
                                     and p.b_ext_bps == 9.0e6),
    }
    # stations equidistant from several serving nodes (halving the extender
    # spacing is exact): ties go to the AP, then to the lower node id
    ring = cases["1.2-loadaware-4E"]
    h = extender_distance_m(DEFAULT_EXTENDER_RSSI_DBM) / 2
    ties = ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h), (h, h), (-h, h), (h, -h),
            (-h, -h), (0.0, 0.0), (2 * h, 2 * h))
    ring = replace(ring, scenario=replace(ring.scenario, fixed_positions=ties, k=1))
    cases["1.2-ties-loadaware"] = ring
    cases["1.2-ties-stock"] = replace(ring, selection=replace(
        ring.selection, mechanism=Mechanism.RSSI_BASED))
    cases["2.1-beta50-alpha0.25"] = replace(steer_pt, selection=replace(
        steer_pt.selection, beta_pct=50.0, alpha=0.25))
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_evaluate_point_matches_the_topology_api(name):
    point = ORACLE_CASES[name]
    params = EngineParams()
    rows, agg = evaluate_point(0, point, params)
    want_rows, want_agg = _scalar_point(point, params)
    assert rows == want_rows
    assert agg == want_agg


@pytest.mark.parametrize("name", sorted(
    n for n, p in ORACLE_CASES.items() if _la(p) and p.selection.beta_pct > 0))
def test_oracle_load_aware_cases_move_stations(name):
    # agreement on a pass that moves nobody would show nothing
    point = ORACLE_CASES[name]
    stock = replace(point, selection=replace(point.selection,
                                             mechanism=Mechanism.RSSI_BASED))
    rows, _ = evaluate_point(0, point, EngineParams())
    stock_rows, _ = evaluate_point(0, stock, EngineParams())
    assert any(r.associations != s.associations for r, s in zip(rows, stock_rows))


def test_event_trace_run_gives_the_same_rows(tmp_path):
    points = (ORACLE_CASES["1.2-loadaware-4E"], ORACLE_CASES["2.4-external"])
    for point in points:
        plain = evaluate_point(3, point, EngineParams())
        traced = evaluate_point(3, point, EngineParams(), events_dir=str(tmp_path))
        assert traced == plain
    assert len(os.listdir(tmp_path)) == sum(p.scenario.k for p in points)


def test_frame_traces_mark_the_capable_stations_of_their_own_row(tmp_path, monkeypatch):
    # on one geometry, a batch of load-aware points and one of their stock
    # twins, each over every capable share: a row's trace echoes the 802.11k/v
    # support of the stations its own row counts as capable, stock rows too
    shares = [p for p in build_test("2.3")
              if p.scenario.channel_plan == "multi" and p.traffic.per_sta_load_bps == 3.0e6]
    grid = shares + [_retuned(p, mechanism=Mechanism.RSSI_BASED) for p in shares]
    monkeypatch.setattr(runner, "build_test", lambda test_id: list(grid))
    run(RunConfig(test_id="2.3", k=2, out_dir=str(tmp_path), emit_events=True))
    echoes = set()
    for pi, point in enumerate(grid):
        spec = replace(point.scenario, k=2)
        for dep in range(2):
            _, perm = deployment_draw(spec, dep)
            capable = capable_set_for(spec, perm, point.selection.beta_pct)
            path = tmp_path / "events" / f"t2.3_p{pi:04d}_d{dep:05d}.ndjson"
            for record in map(json.loads, path.read_text().splitlines()):
                if record["frame"] == "AssocResponse":
                    echo = record["fields"]["supports_11kv_echo"]
                    assert echo == (record["fields"]["sta"] in capable)
                    echoes.add((point.selection.beta_pct, echo))
    assert len(echoes) == 8  # beta 0 and 100 echo one value, the other shares both


def test_layouts_follow_the_configured_band_table():
    # test 1.1 places each extender where its 5 GHz uplink lands on the row's
    # level, on the run's own link model
    params = run_config_from({"band_mhz": {"5": 5500}}).params
    levels = []
    for point in build_test("1.1"):
        geom = runner._Geometry(point, params)
        t = geom.base
        for ext in t.extenders():
            levels.append(point.rssi_ap_e_dbm)
            rssi = link_rssi(geom.env, t, ext, t.backhaul_parent[ext], Band.GHZ_5)
            assert rssi == pytest.approx(point.rssi_ap_e_dbm, abs=1e-9)
    assert -54.0 in levels


# --- points that share one draw against point-by-point evaluation -----------


def _sharing_grid():
    """Stock and load-aware points over several extender counts, extender
    placements, demands and capable shares, in three draw groups.  On each link geometry a load-aware
    point comes before a stock one, so steering that leaked into the links
    the geometry shares would show in the stock rows."""
    k = 13
    grid = []
    for b_t in (6.0e6, 30.0e6):
        for n_ext, beta in ((4, 100.0), (4, 25.0), (4, None), (2, 50.0), (2, None),
                            (0, None)):
            pick = _stock if beta is None else _la
            p = _point("1.3", k, lambda p: pick(p) and p.scenario.n_extenders == n_ext
                       and p.b_t_bps == b_t)
            if beta is not None:
                p = replace(p, selection=replace(p.selection, beta_pct=beta))
            grid.append(p)
    for pick, plan, n_ext in ((_la, "single", 2), (_stock, "single", 2), (_la, "multi", 1)):
        grid.append(_point("2.1", k, lambda p: pick(p) and p.scenario.n_extenders == n_ext
                           and p.scenario.channel_plan == plan and p.b_t_bps == 42.0e6))
    for level in (-60.0, -80.0):  # one spec, two extender placements
        grid.append(_point("1.1", k, lambda p: _stock(p) and p.rssi_ap_e_dbm == level
                           and p.scenario.channel_plan == "multi"))
    return grid


SHARING_GRID = _sharing_grid()


# each of the grid's three draw groups at k=13 is cut into one deployment
# range per worker: 6+7, 4+4+5, or 1s and 2s on 8 workers; at k=2 on 3
# workers, into 2 ranges, each over every other point of the group
@pytest.mark.parametrize("workers, k", [(1, 13), (2, 13), (3, 13), (8, 13), (3, 2)])
def test_shared_draws_match_point_by_point_evaluation(monkeypatch, workers, k):
    grid = [replace(p, scenario=replace(p.scenario, k=k)) for p in SHARING_GRID]
    monkeypatch.setattr(runner, "build_test", lambda test_id: list(grid))
    res = run(RunConfig(test_id="1.3", workers=workers))
    results = [evaluate_point(i, p, EngineParams()) for i, p in enumerate(grid)]
    assert list(res.rows) == [r for rows, _ in results for r in rows]
    assert list(res.aggregates) == [agg for _, agg in results]


def _recording_starmap(ranges):
    """A stand-in for ``runner._starmap`` that runs its tasks in the calling
    process and appends the grid indices and deployment range of each to
    ``ranges``."""

    def starmap(workers, tasks):
        ranges.extend((tuple(i for i, _ in t[0]), t[3], t[4]) for t in tasks)
        return [runner._evaluate_range(*t) for t in tasks]

    return starmap


_FIVE = (0, 1, 2, 3, 4)  # the points of test 1.2


@pytest.mark.parametrize("workers, k, ranges", [
    (2, 40, [(_FIVE, 0, 20), (_FIVE, 20, 40)]),
    (3, 40, [(_FIVE, 0, 13), (_FIVE, 13, 26), (_FIVE, 26, 40)]),
    (2, 1, [((0, 2, 4), 0, 1), ((1, 3), 0, 1)]),
    (8, 1, [((i,), 0, 1) for i in _FIVE]),
])
def test_a_draw_group_makes_at_most_one_task_per_worker(monkeypatch, workers, k, ranges):
    recorded = []
    monkeypatch.setattr(runner, "_starmap", _recording_starmap(recorded))
    run(RunConfig(test_id="1.2", k=k, workers=workers))  # one draw group of 5 points
    assert recorded == ranges


def _bundle(out_dir):
    return {name: (out_dir / name).read_bytes()
            for name in ("rows.csv", "aggregates.csv", "results.json")}


def _pool_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


# fewer deployments than workers: points are dealt out, every other one to
# a task, so each block holds every other point of its curve
@pytest.mark.parametrize("test_id, k, workers", [("1.2", 1, 2), ("1.3", 2, 3)])
def test_points_dealt_out_to_workers_write_the_serial_bundle(tmp_path, test_id, k, workers):
    serial, dealt = tmp_path / "serial", tmp_path / "dealt"
    run(RunConfig(test_id=test_id, k=k, workers=1, out_dir=str(serial)))
    run(RunConfig(test_id=test_id, k=k, workers=workers, out_dir=str(dealt)))
    assert _bundle(dealt) == _bundle(serial)


def test_a_block_is_written_in_bounded_slices(monkeypatch, tmp_path):
    # the three curves are blocks of 61 points by 2 deployments; slices of
    # three rows cut points apart
    whole, sliced = tmp_path / "whole", tmp_path / "sliced"
    run(RunConfig(test_id="1.3", mechanism="rssi", k=2, out_dir=str(whole)))
    texts, sizes = runner._texts, []

    def spy(vectors, known, spell):
        sizes.append(len(vectors))
        return texts(vectors, known, spell)

    monkeypatch.setattr(runner, "_texts", spy)
    monkeypatch.setattr(runner, "_EXPORT_ROWS", 3)
    run(RunConfig(test_id="1.3", mechanism="rssi", k=2, out_dir=str(sliced)))
    assert _bundle(sliced) == _bundle(whole)
    # rows.csv, then results.json, of each slice
    assert max(sizes) == 3 and sum(sizes) == 2 * 3 * 61 * 2


def test_each_export_builds_only_its_own_files_pieces(monkeypatch, small_run, tmp_path):
    res, out = small_run

    def refuse(*args):
        raise AssertionError("a piece of a file not written was built")

    with monkeypatch.context() as m:
        m.setattr(runner, "_json_speller", refuse)
        m.setattr(runner, "_RECORD", None)  # its split would raise
        export_rows_csv(res.rows, str(tmp_path / "rows.csv"))
    with monkeypatch.context() as m:
        m.setattr(runner, "_csv_speller", refuse)
        export_json(res.rows, res.aggregates, str(tmp_path / "results.json"))
    for name in ("rows.csv", "results.json"):
        assert (tmp_path / name).read_bytes() == Path(out, name).read_bytes()


def _fresh_run(out, **fields):
    """``run(RunConfig(**fields))`` into ``out`` in a new interpreter."""
    code = ("from wlansteer.runner import RunConfig, run\n"
            f"run(RunConfig(out_dir={str(out)!r}, **{fields!r}))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(runner.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_grids_are_built_once_and_handed_out_fresh(tmp_path):
    grid = build_test("2.4")
    assert build_test("2.4") == grid and build_test("2.4") is not grid
    # a caller's list is its own: changing it changes no later run
    grid.reverse()
    del grid[3:]
    runs = [dict(test_id="2.4", mechanism="loadaware", alpha=0.0),
            dict(test_id="2.4", n_ext=0, seed=7)]
    for i, fields in enumerate(runs):
        run(RunConfig(out_dir=str(tmp_path / f"here{i}"), **fields))
        _fresh_run(tmp_path / f"fresh{i}", **fields)
        for name in ("rows.csv", "aggregates.csv", "results.json"):
            assert (tmp_path / f"here{i}" / name).read_bytes() == \
                (tmp_path / f"fresh{i}" / name).read_bytes(), (fields, name)
    assert len(build_test("2.4")) == 125


def test_the_pool_outlives_a_run_and_is_replaced_for_another_worker_count(tmp_path):
    serial = tmp_path / "serial"
    run(RunConfig(test_id="1.2", k=6, workers=1, out_dir=str(serial)))
    pids = []
    for name, workers in (("a", 2), ("b", 2), ("c", 3)):
        out = tmp_path / name
        run(RunConfig(test_id="1.2", k=6, workers=workers, out_dir=str(out)))
        assert _bundle(out) == _bundle(serial)
        pids.append(_pool_pids())
    assert len(pids[0]) == 2 and pids[1] == pids[0]
    assert len(pids[2]) == 3 and not set(pids[2]) & set(pids[0])


def test_an_interrupted_run_drops_the_pool(monkeypatch):
    run(RunConfig(test_id="1.2", k=2, workers=2))
    _, pool = runner._pool

    def interrupted(fn, tasks):
        raise KeyboardInterrupt

    monkeypatch.setattr(pool, "starmap", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run(RunConfig(test_id="1.2", k=2, workers=2))
    assert runner._pool is None
    res = run(RunConfig(test_id="1.2", k=2, workers=2))
    assert runner._pool[1] is not pool
    assert list(res.rows) == list(run(RunConfig(test_id="1.2", k=2, workers=1)).rows)


def test_the_pool_closes_at_exit_without_a_warning():
    code = (
        "import multiprocessing\n"
        "from wlansteer.runner import RunConfig, run\n"
        "run(RunConfig(test_id='1.2', k=4, workers=2))\n"
        "print(*(p.pid for p in multiprocessing.active_children()))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(runner.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# --- columnar results --------------------------------------------------------

_FIELDS = ROW_COLUMNS[:13]


def _cells(record, names):
    """``record``'s fields ``names`` as csv.writer takes them, flags as json has them."""
    return [("true" if v else "false") if isinstance(v, bool) else v
            for v in (getattr(record, f) for f in names)]


def _reference_exports(rows, aggs, csv_path, json_path, aggregates_csv_path=None):
    """rows.csv, results.json and, given its path, aggregates.csv written a
    record at a time, field by field, with a row's throughput and delay as
    floats and its congestion as a flag."""
    rows = [replace(r, throughput_pct=float(r.throughput_pct),
                    avg_delay_ms=float(r.avg_delay_ms), congested=bool(r.congested))
            for r in rows]
    sta_ids = sorted({sid for r in rows for sid in r.associations})
    if aggregates_csv_path is not None:
        with open(aggregates_csv_path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(AGGREGATE_COLUMNS)
            writer.writerows(_cells(a, AGGREGATE_COLUMNS) for a in aggs)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_FIELDS + tuple(f"sta_{i}" for i in sta_ids))
        for r in rows:
            cells = _cells(r, _FIELDS)
            for sid in sta_ids:
                node = r.associations.get(sid, "")
                cells.append("none" if node is None else node)
            writer.writerow(cells)
    records = []
    for r in rows:
        rec = asdict(r)
        rec["associations"] = {str(k): v for k, v in r.associations.items()}
        records.append(rec)
    payload = {"rows": records, "aggregates": [asdict(a) for a in aggs]}
    with open(json_path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _exports(rows, aggs, out):
    export_rows_csv(rows, os.path.join(out, "rows.csv"))
    export_json(rows, aggs, os.path.join(out, "results.json"))
    return [Path(out, f).read_bytes() for f in ("rows.csv", "results.json")]


def _row(dep, stations, **fields):
    base = dict(test_id="1.2", rssi_ap_e_dbm=None, n_ext=2, channel_plan="multi",
                b_ext_bps=0.0, mechanism="rssi", alpha=0.5, beta_pct=100.0,
                b_t_bps=6e6, throughput_pct=0.1 + 0.2, avg_delay_ms=1 / 3,
                congested=False)
    base.update(fields)
    return ResultRow(deployment_index=dep, associations=stations, **base)


def _hand_built_rows():
    """Rows that cut into blocks every way: a gap in the deployments, a
    change of point and back, a constant of another type, 10 and 12
    stations, unassociated stations, 17-digit floats, station ids whose
    string order is not numeric, one association vector standing for other
    nodes in another block, an int throughput and delay, an int congestion
    flag, NaN and infinity, constants that csv quotes, and constants that
    compare equal but spell apart: -0.0 after 0.0 and True after 1."""
    ten = {sid: (sid % 3 or None) for sid in range(10, 20)}
    twelve = {sid: (0 if sid % 4 else None) for sid in range(5, 17)}
    steered = dict(mechanism="loadaware", rssi_ap_e_dbm=-70.0, n_ext=0, beta_pct=25.0,
                   b_t_bps=2.0 / 3.0 * 1e7)
    return [
        _row(0, ten),
        _row(1, {**ten, 12: 7}, congested=True, throughput_pct=100.0),
        _row(5, ten, avg_delay_ms=1e-7),
        _row(0, twelve, **steered),
        _row(1, twelve, **steered, congested=True, avg_delay_ms=0.1 * 3),
        _row(6, ten),
        _row(7, ten, n_ext=2.0),
        _row(0, {sid: (3 if node == 0 else node) for sid, node in twelve.items()},
             **steered, alpha=0.25),
        _row(8, ten, n_ext=2.0, throughput_pct=100, avg_delay_ms=0, congested=1),
        _row(9, ten, n_ext=2.0, throughput_pct=math.nan, avg_delay_ms=-math.inf),
        _row(0, ten, test_id='2,"x"', channel_plan="a\nb"),
        _row(10, ten, alpha=0.0),
        _row(11, ten, alpha=-0.0),
        _row(12, ten, n_ext=1),
        _row(13, ten, n_ext=True),
    ]


def test_hand_built_rows_export_the_reference_bytes(tmp_path):
    rows = _hand_built_rows()
    aggs = [_agg(6e6, 100.0, 1.0, 0.0)]
    _reference_exports(rows, aggs, tmp_path / "ref.csv", tmp_path / "ref.json")
    got_csv, got_json = _exports(rows, aggs, str(tmp_path))
    assert got_csv == (tmp_path / "ref.csv").read_bytes()
    assert got_json == (tmp_path / "ref.json").read_bytes()
    lines = got_csv.decode().splitlines()
    assert lines[0].split(",")[13:] == [f"sta_{i}" for i in range(5, 20)]
    # no rssi, n_ext and deployment index as ints, 17 digits, missing stations
    assert lines[1].startswith("1.2,,2,multi,0.0,0,rssi,0.5,100.0,6000000.0,"
                               "0.30000000000000004,0.3333333333333333,false,,,,,,")
    assert lines[4].startswith("1.2,-70.0,0,multi,0.0,0,loadaware,0.5,25.0,6666666.666666666,")
    assert lines[4].endswith(",false,0,0,0,none,0,0,0,none,0,0,0,none,,,")
    record = json.loads(got_json)["rows"][3]
    assert list(record["associations"])[:3] == ["10", "11", "12"]
    assert b'"associations":{"10":0,"11":0,"12":null,' in got_json
    assert b'"n_ext":2,"rssi_ap_e_dbm":null,' in got_json
    # per-row values as a run makes them: floats and a flag
    assert lines[9].startswith("1.2,,2.0,multi,0.0,8,rssi,0.5,100.0,6000000.0,100.0,0.0,true,")
    assert lines[10].startswith("1.2,,2.0,multi,0.0,9,rssi,0.5,100.0,6000000.0,nan,-inf,false,")
    assert b'"avg_delay_ms":-Infinity,' in got_json and b'"throughput_pct":NaN}' in got_json
    assert lines[11] == '"2,""x""",,2,"a'


def test_run_rows_and_their_list_export_the_same_bytes(small_run, tmp_path):
    res, out = small_run
    listed = list(res.rows)
    assert _exports(listed, res.aggregates, str(tmp_path)) == [
        Path(out, f).read_bytes() for f in ("rows.csv", "results.json")
    ]
    _reference_exports(listed, res.aggregates, tmp_path / "ref.csv", tmp_path / "ref.json")
    assert (tmp_path / "ref.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    assert (tmp_path / "ref.json").read_bytes() == (tmp_path / "results.json").read_bytes()


def test_run_rows_read_like_the_point_rows(small_run):
    res, _ = small_run
    want = [r for i, p in enumerate(res.points)
            for r in evaluate_point(i, p, EngineParams())[0]]
    assert len(res.rows) == len(want) == 15
    assert [res.rows[i] for i in range(-15, 15)] == want + want
    assert res.rows[3:11:2] == want[3:11:2]
    assert res.rows[::-1] == want[::-1]
    assert list(res.rows) == want
    assert res.rows == want and want == res.rows
    assert res.rows == tuple(want)
    assert res.rows != want[:-1]
    with pytest.raises(IndexError):
        res.rows[15]
    assert isinstance(res.rows[0].n_ext, int)
    assert isinstance(res.rows[4].deployment_index, int)


def test_the_table_reads_each_part_serving_index_by_its_node(monkeypatch):
    # every layout numbers serving index j as node j: parts on points of two
    # extenders and of one, three stations by two deployments, make a table
    # of nodes 0 to 2
    base = build_test("2.1")[0]
    points = [(i, replace(base, scenario=replace(base.scenario, k=2, n_sta=3, n_extenders=n)))
              for i, n in enumerate((2, 1))]
    parts = [
        ([1], 0, np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([False, True]),
         np.array([[1, 0, -1], [1, 1, 1]], dtype=np.int8)),
        ([0], 0, np.array([5.0, 6.0]), np.array([7.0, 8.0]), np.array([True, False]),
         np.array([[0, 1, 2], [2, -1, 0]], dtype=np.int8)),
    ]
    block = runner._in_grid_order(points, parts)
    assert block.nodes == [0, 1, 2]
    rows = runner.ResultRows(block)
    assert [row.associations for row in rows] == [
        {10: 0, 11: 1, 12: 2}, {10: 2, 11: None, 12: 0},
        {10: 1, 11: 0, 12: None}, {10: 1, 11: 1, 12: 1}]
    assert [(row.throughput_pct, row.congested) for row in rows] == [
        (5.0, True), (6.0, False), (1.0, False), (2.0, True)]
    # a table has one k and one station count
    spec = points[1][1].scenario
    for other in (replace(spec, k=3), replace(spec, n_sta=4)):
        with pytest.raises(ValueError, match="^the points of a run must share k and n_sta$"):
            runner._in_grid_order(points[:1] + [(1, replace(points[1][1], scenario=other))], [])

    # a layout that numbers its extender 2 is refused before a slice is drawn
    real = runner.build_topology

    def build_topology(*args, **kwargs):
        t = real(*args, **kwargs)
        return Topology(nodes={0: t.nodes[0], 2: replace(t.nodes[1], node_id=2)},
                        backhaul_parent={2: 0})

    monkeypatch.setattr(runner, "build_topology", build_topology)
    monkeypatch.setattr(runner, "draw_slice", _no_draw)
    with pytest.raises(ValueError, match="^a layout must number its serving nodes 0 to 1$"):
        evaluate_point(0, points[1][1], EngineParams())


def _no_draw(*args, **kwargs):
    raise AssertionError("a slice was drawn")


@pytest.mark.parametrize("flags, message", [
    (dict(passes=2), "passes must be 1"),
    (dict(include_self_load=False), "include_self_load must be True"),
])
def test_a_run_refuses_other_pass_settings_before_it_draws(monkeypatch, flags, message):
    # the grids' one pass counts each station's own load; the scalar
    # reassociation_pass runs the rest, and stock points ignore them
    point = ORACLE_CASES["1.2-loadaware-4E"]
    other = replace(point, selection=replace(point.selection, **flags))
    stock = replace(other, selection=replace(other.selection, mechanism=Mechanism.RSSI_BASED))
    want = evaluate_point(0, replace(stock, selection=replace(
        stock.selection, passes=1, include_self_load=True)), EngineParams())
    assert evaluate_point(0, stock, EngineParams()) == want
    monkeypatch.setattr(runner, "draw_slice", _no_draw)
    rule = f"^{message}; see selection.reassociation_pass$"
    with pytest.raises(ValueError, match=rule):
        evaluate_point(0, other, EngineParams())
    monkeypatch.setattr(runner, "build_test", lambda test_id: [point, other])
    with pytest.raises(ValueError, match=rule):
        run(RunConfig(test_id="1.2"))


def test_a_run_holds_one_copy_of_its_results():
    # 2.1's stock rows, 505,000 of 27 bytes each (two floats, a flag and ten
    # serving indices): a second copy, or the kernel's intp serving indices
    # kept, would take the traced peak past 1.75 times that
    tracemalloc.start()
    try:
        res = run(RunConfig(test_id="2.1", mechanism="rssi", k=1000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.rows) == 505_000
    assert peak < 1.75 * 27 * len(res.rows)


def test_runs_build_no_result_row(monkeypatch, tmp_path):
    def refuse(self, p, d):
        raise AssertionError("a ResultRow was built")

    monkeypatch.setattr(runner._Block, "row", refuse)
    res = run(RunConfig(test_id="1.2", k=3, out_dir=str(tmp_path)))
    assert len(res.rows) == 15
    assert len(evaluate_point(0, res.points[0], EngineParams())[0]) == 3


def test_runs_build_no_aggregate(monkeypatch, tmp_path):
    def refuse(self, p):
        raise AssertionError("an Aggregate was built")

    monkeypatch.setattr(runner._Block, "aggregate", refuse)
    res = run(RunConfig(test_id="1.2", k=3, out_dir=str(tmp_path)))
    assert len(res.aggregates) == 5
    assert (tmp_path / "aggregates.csv").read_text().count("\n") == 6


def test_run_aggregates_read_like_the_point_aggregates():
    # 2.4's one table holds its 125 points, from batches of 25 and 75, by
    # each point's one deployment
    res = run(RunConfig(test_id="2.4"))
    want = [evaluate_point(i, p, EngineParams())[1] for i, p in enumerate(res.points)]
    assert len(res.aggregates) == len(want) == 125
    assert res.rows.block is res.aggregates.block
    assert res.rows.block.thr.shape == (125, 1)
    assert [res.aggregates[i] for i in range(-125, 125)] == want + want
    assert res.aggregates[20:30] == want[20:30]
    assert res.aggregates[::-7] == want[::-7]
    assert list(res.aggregates) == want
    assert res.aggregates == want and want == res.aggregates
    assert res.aggregates == tuple(want) and tuple(want) == res.aggregates
    assert res.aggregates != want[:-1] and res.aggregates != want[::-1]
    assert res.aggregates != res.rows
    for i in (125, -126):
        with pytest.raises(IndexError):
            res.aggregates[i]
    assert isinstance(res.aggregates[0].k, int)


def test_run_aggregates_and_their_list_export_the_same_bytes(small_run, tmp_path):
    res, out = small_run
    listed = list(res.aggregates)
    export_aggregates_csv(listed, str(tmp_path / "aggregates.csv"))
    export_json(res.rows, listed, str(tmp_path / "results.json"))
    for name in ("aggregates.csv", "results.json"):
        assert (tmp_path / name).read_bytes() == Path(out, name).read_bytes(), name
    # and a list of both writes what the reference writes
    _reference_exports(list(res.rows), listed, tmp_path / "ref.csv", tmp_path / "ref.json",
                       tmp_path / "ref-aggregates.csv")
    assert (tmp_path / "ref.json").read_bytes() == Path(out, "results.json").read_bytes()
    assert (tmp_path / "ref-aggregates.csv").read_bytes() == \
        Path(out, "aggregates.csv").read_bytes()


def _hand_built_aggregates():
    """Aggregates whose fields compare equal but spell apart: alpha -0.0
    after 0.0, n_ext True after 1, k 2 against 2.0; NaN and infinite means,
    an int mean, a 17-digit one, and constants that csv quotes."""
    agg = _agg(6e6, 100.0, 1.0, 0.0)
    return [
        agg,
        replace(agg, mean_throughput_pct=math.nan, mean_delay_ms=math.inf),
        replace(agg, congested_pct=-math.inf, association_rate_pct=1 / 3),
        replace(agg, alpha=0.0),
        replace(agg, alpha=-0.0),
        replace(agg, n_ext=1),
        replace(agg, n_ext=True),
        replace(agg, k=2),
        replace(agg, k=2.0),
        replace(agg, mean_throughput_pct=100),
        replace(agg, test_id='2,"x"', channel_plan="a\nb"),
    ]


def test_hand_built_aggregates_export_the_reference_bytes(tmp_path):
    rows, aggs = _hand_built_rows(), _hand_built_aggregates()
    _reference_exports(rows, aggs, tmp_path / "ref.csv", tmp_path / "ref.json",
                       tmp_path / "ref-aggregates.csv")
    export_aggregates_csv(aggs, str(tmp_path / "aggregates.csv"))
    got_csv, got_json = _exports(rows, aggs, str(tmp_path))
    assert got_json == (tmp_path / "ref.json").read_bytes()
    got = (tmp_path / "aggregates.csv").read_bytes()
    assert got == (tmp_path / "ref-aggregates.csv").read_bytes()
    lines = got.decode().splitlines()
    assert lines[2] == "x,,2,multi,0.0,rssi,0.5,100.0,6000000.0,10,nan,inf,0.0,100.0"
    assert [line.split(",")[6] for line in lines[4:6]] == ["0.0", "-0.0"]
    assert [line.split(",")[2] for line in lines[6:8]] == ["1", "true"]
    assert [line.split(",")[9] for line in lines[8:10]] == ["2", "2.0"]
    assert lines[10].split(",")[10] == "100"
    assert b'"association_rate_pct":0.3333333333333333,"b_ext_bps":0.0,' in got_json
    assert b'"mean_delay_ms":Infinity,"mean_throughput_pct":NaN,' in got_json


def test_aggregate_sums_in_deployment_order():
    """A left-to-right float sum: numpy's pairwise sum, ``math.fsum`` and
    Python 3.12's ``sum`` each give another mean for these throughputs."""
    thr = [1e16] + [1.0] * 14 + [-1e16]
    stations = {sid: 0 for sid in range(10, 20)}
    rows = [_row(i, stations, throughput_pct=t) for i, t in enumerate(thr)]
    (block,) = runner._blocks(rows)
    total = 0.0
    for t in thr:
        total += t
    assert total == 0.0 != math.fsum(thr)
    assert runner._aggregate(block)[0][0] == total / 16


def _loop_aggregate(block, p):
    """Point ``p``'s four means as float loops from +0.0 over the block's
    deployments, in their order."""
    thr_sum = delay_sum = assoc_sum = 0.0
    for thr in block.thr[p].tolist():
        thr_sum += thr
    for delay in block.delay[p].tolist():
        delay_sum += delay
    n = len(block.sta_ids)
    for serving in block.serving[p].tolist():
        assoc_sum += (n - serving.count(-1)) / n
    k = block.deployments
    return (thr_sum / k, delay_sum / k, 100.0 * block.congested[p].tolist().count(True) / k,
            100.0 * assoc_sum / k)


# subnormals, signed zeros, infinities and NaN among ordinary floats
_SUMMANDS = st.one_of(st.floats(), st.floats(min_value=-3e-308, max_value=3e-308),
                      st.sampled_from((-0.0, 0.0, 5e-324, math.inf, -math.inf, math.nan)))


@st.composite
def _drawn_block(draw):
    """A block of up to three points over up to 16 deployments, its columns
    drawn from ``_SUMMANDS``, now and then -0.0 throughout."""
    P, D = draw(st.integers(1, 3)), draw(st.integers(1, 16))
    n = draw(st.integers(1, 12))

    def column():
        if draw(st.integers(0, 4)) == 0:
            return [-0.0] * D
        return draw(st.lists(_SUMMANDS, min_size=D, max_size=D))

    # each row's unassociated stations first, the others on node 0
    unassociated = draw(st.lists(st.integers(0, n), min_size=P * D, max_size=P * D))
    return runner._Block(
        [runner._constant(_row(0, {}))] * P, tuple(range(10, 10 + n)), [0], 0,
        np.array([column() for _ in range(P)]), np.array([column() for _ in range(P)]),
        np.array(draw(st.lists(st.booleans(), min_size=P * D, max_size=P * D))).reshape(P, D),
        np.array([[-1] * u + [0] * (n - u) for u in unassociated],
                 dtype=np.int8).reshape(P, D, n))


# folding at most 48 rows at once, _aggregate takes one or more points at a time
@settings(max_examples=200, deadline=None, derandomize=True)
@given(block=_drawn_block(), rows=st.integers(1, 12))
def test_block_aggregates_are_the_loops_over_its_columns(block, rows):
    with mock.patch.object(runner, "_ROWS", rows):
        block.means = runner._aggregate(block)
    got = runner.Aggregates(block)
    assert [runner._constant(a) + (a.k,) for a in got] == [
        c + (block.deployments,) for c in block.consts]
    assert [repr((a.mean_throughput_pct, a.mean_delay_ms, a.congested_pct,
                  a.association_rate_pct)) for a in got] == [
        repr(_loop_aggregate(block, p)) for p in range(len(block.consts))]


# --- the batched kernel against the single-topology API ----------------------


def _retuned(point, b_t=None, **selection):
    """``point`` at total demand ``b_t`` (bps), with ``selection`` changed."""
    if b_t is not None:
        point = replace(point, traffic=TrafficProfile.for_stations(b_t / 10.0, 10, 12000))
    return replace(point, selection=replace(point.selection, **selection))


def _batch_grid(k):
    """Points of two draw groups at ``k``.  On the home's two-extender
    geometry: stock points, one of them with no demand at all (every channel
    at zero utilization, nothing offered) and one whose per-station load
    sums to other values than its multiples; load-aware points of several
    demands, alphas as in 2.2 and capable shares as in 2.3, beta 0 among them
    (rows with nobody to steer inside a steering batch); points with external
    loads on distinct channels, one of them outside the topology, and one
    point with two of them.  A one-point geometry of the same home, and a
    wider circle whose stations may hear nobody."""
    home = _point("2.1", k, lambda p: _la(p) and p.scenario.n_extenders == 2
                  and p.scenario.channel_plan == "multi")
    stock = _retuned(home, mechanism=Mechanism.RSSI_BASED)
    grid = [_retuned(stock, b_t) for b_t in (0.0, 25.0e6 / 3, 30.0e6, 54.0e6)]
    grid += [_retuned(home, b_t, alpha=a, beta_pct=b)
             for b_t, a, b in ((42.0e6, 0.5, 100.0), (30.0e6, 0.0, 100.0),
                               (54.0e6, 0.75, 25.0), (36.0e6, 1.0, 50.0),
                               (48.0e6, 0.5, 0.0), (25.0e6 / 3, 0.5, 100.0),
                               (30.0e6, 0.25, 100.0), (48.0e6, 0.25, 100.0))]
    six, eleven, thirteen = (ExternalLoad(ChannelId(Band.GHZ_2_4, n), 3.0e6, 6.0e6)
                             for n in (6, 11, 13))
    for loads in ((six,), (thirteen,), (six, eleven)):
        grid.append(replace(_retuned(home, 36.0e6), external=loads))
    grid.append(_point("2.1", k, lambda p: _stock(p) and p.scenario.n_extenders == 0
                       and p.b_t_bps == 42.0e6))
    wide = _point("1.2", k, lambda p: _la(p) and p.scenario.n_extenders == 4)
    grid += [wide, _retuned(wide, 30.0e6), _retuned(wide, mechanism=Mechanism.RSSI_BASED)]
    return grid


# a hop delay cap that hops with utilization below 1 reach as well
_CAPPED = EngineParams(congested_hop_delay_ms=1.5)
BATCH_GRID = _batch_grid(5)


def test_batch_grid_covers_the_kernel_branches():
    """The grid is not vacuous: stations hear nobody, channels sit idle,
    hops are capped below and at full utilization, and stations move."""
    unassociated = idle = capped_free = capped_full = moved = False
    for point in BATCH_GRID:
        spec = point.scenario
        env = SimEnv(traffic=point.traffic, external=tuple(point.external),
                     congested_hop_delay_ms=_CAPPED.congested_hop_delay_ms)
        for dep in range(spec.k):
            positions, perm = deployment_draw(spec, dep)
            topo = add_stations(build_topology(spec, point.rssi_ap_e_dbm), positions,
                                capable_set_for(spec, perm, point.selection.beta_pct))
            start = initial_association(topo, env)
            steered, moves = reassociation_pass(start, env, point.selection)
            report = evaluate(steered, env)
            unassociated |= bool(report.unassociated)
            idle |= any(c.utilization == 0.0 for c in report.per_channel.values())
            full = any(c.utilization >= 1.0 for c in report.per_channel.values())
            capped = any(s.delay_ms >= _CAPPED.congested_hop_delay_ms
                         for s in report.per_sta.values())
            capped_full |= capped and full
            capped_free |= capped and not full
            moved |= bool(moves)
    assert unassociated and idle and capped_free and capped_full and moved


# the home's widest batch has eleven points: rows for slices of five (all
# of k), of one, and of two, two and one deployments
@pytest.mark.parametrize("rows, slices", [(10**6, {5}), (1, {1}), (22, {1, 2, 5})])
def test_batched_run_matches_the_topology_api(monkeypatch, rows, slices):
    links, seen = runner._Geometry.links, []

    def spy(geom, columns):
        seen.append(columns.deployments)
        return links(geom, columns)

    monkeypatch.setattr(runner._Geometry, "links", spy)
    monkeypatch.setattr(runner, "build_test", lambda test_id: list(BATCH_GRID))
    monkeypatch.setattr(runner, "_ROWS", rows)
    res = run(RunConfig(test_id="2.1", params=_CAPPED))
    assert set(seen) == slices
    want = [_scalar_point(p, _CAPPED) for p in BATCH_GRID]
    assert list(res.rows) == [r for rows, _ in want for r in rows]
    assert list(res.aggregates) == [agg for _, agg in want]


def test_one_point_batches_match_the_topology_api():
    for point in (BATCH_GRID[5], BATCH_GRID[-3], BATCH_GRID[-1]):
        rows, agg = evaluate_point(0, point, _CAPPED)
        assert (list(rows), agg) == _scalar_point(point, _CAPPED)


class _GivenColumns(dict):
    """A slice's RSSI columns by transmitter, given outright, as
    ``_Geometry.links`` reads ``_Columns``."""

    def __init__(self, deployments, columns):
        super().__init__(columns)
        self.deployments = deployments


def test_links_rate_every_mcs_boundary_as_mcs_for_rssi():
    # drawn positions never land on a threshold: each serving node in turn
    # hears every MCS threshold exactly, the float just below each, and a
    # value below the lowest, while the next node holds the stations
    point, params = BATCH_GRID[-3], EngineParams()
    geom = runner._Geometry(point, params)
    n, J = point.scenario.n_sta, len(geom.serving)
    t = add_stations(geom.base, [(0.0, 0.0)] * n)
    for j, node in enumerate(geom.serving):
        band = t.nodes[node].access_radio.channel.band
        table = params.mcs_tables[band]
        values = [v for thr in table.thresholds for v in (thr, math.nextafter(thr, -math.inf))]
        values.append(table.thresholds[0] - 1.0)
        D = -(-len(values) // n)
        values += [values[-1]] * (D * n - len(values))
        columns = _GivenColumns(D, {tx: np.full(D * n, -200.0) for tx in geom.tx})
        columns[geom.tx[j]] = np.array(values)
        columns[geom.tx[(j + 1) % J]] = np.full(D * n, -20.0)
        _, _, parent, air, _ = geom.links(columns)
        assert (parent == (j + 1) % J).all()
        for i, rssi in enumerate(values):
            sta = STA_ID_BASE + i % n
            streams = min(r.spatial_streams for r in t.nodes[sta].radios + t.nodes[node].radios)
            got = mcs_for_rssi(table, rssi, streams)
            want = math.nan if got is None else geom.fixed_s[band] + geom.L / got[1]
            assert repr(air[i // n, i % n, j].item()) == repr(want), (node, rssi)


def test_the_kernel_reads_the_station_radio(monkeypatch):
    # every station has add_stations' radio: one with its own sensitivity and
    # stream count moves the rows of the kernel and of the Topology API alike
    params = EngineParams()
    points = [ORACLE_CASES[name] for name in ("1.2-stock-0E", "1.2-loadaware-4E")]
    before = [evaluate_point(0, point, params) for point in points]
    radio = replace(scenarios.STATION_RADIO, sensitivity_dbm=-80.0, spatial_streams=1)
    monkeypatch.setattr(scenarios, "STATION_RADIO", radio)
    monkeypatch.setattr(runner, "STATION_RADIO", radio)
    for point, (rows, agg) in zip(points, before):
        got = evaluate_point(0, point, params)
        assert got == _scalar_point(point, params)
        assert got[1].association_rate_pct < agg.association_rate_pct
        assert got[1].mean_delay_ms != agg.mean_delay_ms


def test_a_layout_with_access_radios_on_two_bands_is_refused(monkeypatch):
    # the link table keeps one MCS table and one frequency for all serving
    # nodes; Node serves on 2.4 GHz, so only a patched node can mix bands
    def build_topology(*args, **kwargs):
        t = real(*args, **kwargs)
        object.__setattr__(t.nodes[1], "_access", t.nodes[1].backhaul_radio)
        return t

    point = replace(BATCH_GRID[0], scenario=replace(BATCH_GRID[0].scenario, n_extenders=2))
    runner._Geometry(point, EngineParams())
    real = runner.build_topology
    monkeypatch.setattr(runner, "build_topology", build_topology)
    with pytest.raises(ValueError, match="access radios on 2 bands; a layout takes one"):
        runner._Geometry(point, EngineParams())


def _flows(batch, point, parent, term):
    """Each row's flows as (column, load) pairs, in the order
    ``build_flows`` lists them: access by station, backhaul by extender,
    then the external loads by slot."""
    geom, E = batch.geom, len(batch.through)
    rows = []
    for p, served, terms in zip(point.tolist(), parent.tolist(), term.tolist()):
        flows = [(geom.acc[j], x) for j, x in zip(served, terms)]
        for e in range(E):
            on = sum(1 for j in served if geom.uses[j, e])
            flows.append((batch.cells[p, e], batch.through[e, p, on].item()))
        flows += zip(batch.cells[p, E:], batch.external[p].tolist())
        rows.append(flows)
    return rows


def _left_folds(batch, rows):
    """Each row's channel loads, its flows summed one at a time from +0.0."""
    out = []
    for flows in rows:
        util = [0.0] * batch.n_columns
        for column, load in flows:
            util[column] += load
        out.append(util)
    return out


def test_util_sums_each_channel_in_build_flows_order():
    # 1.0 and two halves of its ulp sum to 1.0 or to the next float up,
    # depending on the order: here access terms are half an ulp of 1.0, the
    # backhaul links carry 1.0 per station on the AP's access channel, and
    # the external loads of 1.0 sit on access channels too
    geom = runner._Geometry(BATCH_GRID[12], EngineParams())
    batch = runner._Batch(geom, [(0, BATCH_GRID[12]), (1, BATCH_GRID[14])])
    E, n = len(batch.through), len(geom.sens)
    batch.through[:] = np.arange(n + 1.0)
    batch.cells[:, :E] = geom.acc[0]
    external = batch.cells[:, E:] > 0
    batch.external[external] = 1.0
    assert set(batch.cells[:, E:][external].tolist()) <= set(geom.acc[:-1].tolist())
    rng = np.random.default_rng(7)
    point = np.repeat(np.arange(2), 6)
    parent = rng.integers(-1, len(geom.serving), size=(len(point), n))
    term = np.full(parent.shape, 2.0**-53)
    rows = _flows(batch, point, parent, term)
    want = _left_folds(batch, rows)
    assert batch._util(point, parent, term).tolist() == want
    # the loads were chosen so that the order shows
    assert _left_folds(batch, [flows[::-1] for flows in rows]) != want


def _raised_floor(floor_dbm):
    """Engine parameters whose 2.4 GHz access links carry nothing below
    ``floor_dbm``, the rates above it unchanged."""
    table = DEFAULT_MCS_TABLES[Band.GHZ_2_4]
    first = replace(table.entries[0], min_rssi_dbm=floor_dbm)
    return EngineParams(mcs_tables={
        **DEFAULT_MCS_TABLES,
        Band.GHZ_2_4: replace(table, entries=(first,) + table.entries[1:]),
    })


def _below_mcs_grid():
    """(steered point, two points that never use its link, raised-floor
    parameters, the oracle's error message)."""
    # deployment 3 of test 1.3's two-extender curve at its lowest demand:
    # every station's strongest link lies above -89 dBm, and steering moves
    # one station onto a link below it, which is in range but carries nothing
    steer = _point("1.3", 4, lambda p: _la(p) and p.scenario.n_extenders == 2
                   and p.b_t_bps == 0.12e6)
    positions, _ = deployment_draw(steer.scenario, 3)
    steer = replace(steer, scenario=replace(steer.scenario, fixed_positions=tuple(positions),
                                            k=1))
    params = _raised_floor(-89.0)
    unused = [_retuned(steer, mechanism=Mechanism.RSSI_BASED), _retuned(steer, beta_pct=0.0)]
    with pytest.raises(ValueError, match="below the lowest MCS") as oracle:
        _scalar_point(steer, params)
    return steer, unused, params, str(oracle.value)


def test_a_link_below_the_lowest_mcs_raises_only_when_a_row_uses_it(monkeypatch):
    steer, unused, params, oracle = _below_mcs_grid()
    monkeypatch.setattr(runner, "build_test", lambda test_id: list(unused))
    res = run(RunConfig(test_id="1.3", params=params))
    want = [_scalar_point(p, params) for p in unused]
    assert list(res.rows) == [r for rows, _ in want for r in rows]
    for grid in ([steer], unused + [steer]):
        monkeypatch.setattr(runner, "build_test", lambda test_id: list(grid))
        with pytest.raises(ValueError) as raised:
            run(RunConfig(test_id="1.3", params=params))
        assert str(raised.value) == oracle


def test_a_task_error_leaves_the_pool_usable(monkeypatch):
    # on two workers, the three points at k=1 make two tasks, and the one
    # holding the steered point raises
    steer, unused, params, oracle = _below_mcs_grid()
    monkeypatch.setattr(runner, "build_test", lambda test_id: unused + [steer])
    with pytest.raises(ValueError) as raised:
        run(RunConfig(test_id="1.3", params=params, workers=2))
    assert str(raised.value) == oracle
    pids = _pool_pids()
    monkeypatch.setattr(runner, "build_test", lambda test_id: list(unused))
    res = run(RunConfig(test_id="1.3", params=params, workers=2))
    assert list(res.rows) == [r for p in unused for r in _scalar_point(p, params)[0]]
    assert _pool_pids() == pids and len(pids) == 2


def test_access_links_are_rated_before_the_backhaul_links():
    # the extenders sit inside the clamp distance, so their uplinks fall
    # just below the 5 GHz floor; evaluate rates access links first, and
    # station 10's link to extender 1 lies below the raised 2.4 GHz floor
    point = SweepPoint(
        test_id="x", scenario=ScenarioSpec(area=AreaKind.CIRCLE_DMAX, n_extenders=2, k=1, seed=0),
        selection=SelectionConfig(), traffic=TrafficProfile.for_stations(0.0, 10, 12000),
        rssi_ap_e_dbm=-50.0,
    )
    params = replace(_raised_floor(-86.0), propagation=PropagationParams(10.0, 0.0, 13.0, 8.0),
                     band_mhz={Band.GHZ_2_4: 1.0, Band.GHZ_5: 25030.0})
    with pytest.raises(ValueError, match="link 1->10 at -88.0 dBm is below") as oracle:
        _scalar_point(point, params)
    with pytest.raises(ValueError) as raised:
        evaluate_point(0, point, params)
    assert str(raised.value) == str(oracle.value)


def test_a_slice_makes_each_transmitter_column_once(monkeypatch):
    # test 1.1 at k=2 is one draw group walked in one slice: its 83 link
    # geometries hold 411 transmitters, 165 of them distinct (the AP's is
    # the same in all of them)
    made, stacked = [], []
    column, links = runner.rssi_column, runner._Geometry.links

    def count(tx_pos, tx_power_dbm, frequency_mhz, points, p):
        made.append((tx_pos, tx_power_dbm, frequency_mhz))
        return column(tx_pos, tx_power_dbm, frequency_mhz, points, p)

    def spy(geom, columns):
        stacked.extend(geom.tx)
        return links(geom, columns)

    monkeypatch.setattr(runner, "rssi_column", count)
    monkeypatch.setattr(runner._Geometry, "links", spy)
    run(RunConfig(test_id="1.1", k=2))
    assert len(stacked) == 411
    assert len(made) == len(set(made)) == len(set(stacked)) == 165


# --- the kernel against the single-topology API on drawn physics -------------


def _bounded(name):
    low, high = _BOUNDS[name]
    return st.floats(min_value=low, max_value=high)


def _layout(area, least=0):
    """Extender counts from ``least`` on and channel plans the layout family
    ``area`` takes."""
    counts = (0, 1, 2) if area is AreaKind.HOME_RECT else (0, 2, 4)
    return st.tuples(st.sampled_from([n for n in counts if n >= least]),
                     st.sampled_from(("multi", "single")))


@st.composite
def _drawn_point(draw, spec, level):
    """A sweep point of ``spec`` and extender ``level``: the mechanism, the
    steering weights, the demand (half the time within the grids' 6 Mbps
    per station, where loads stay below 1) and up to two external loads on
    2.4 GHz channels the layout may not use."""
    selection = SelectionConfig(
        mechanism=draw(st.sampled_from(Mechanism)),
        alpha=draw(st.floats(min_value=0.0, max_value=1.0)),
        beta_pct=draw(st.floats(min_value=0.0, max_value=100.0)),
    )
    return SweepPoint(
        test_id="x", scenario=spec, selection=selection,
        traffic=TrafficProfile.for_stations(
            draw(st.floats(min_value=0.0, max_value=draw(st.sampled_from((6e6, 20e6))))),
            spec.n_sta, 12000),
        external=tuple(
            ExternalLoad(ChannelId(Band.GHZ_2_4, draw(st.sampled_from((1, 6, 11, 13)))),
                         load_bps=draw(st.floats(min_value=0.0, max_value=20e6)),
                         phy_rate_bps=draw(st.floats(min_value=1e6, max_value=600e6)))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ),
        rssi_ap_e_dbm=level,
    )


@st.composite
def _drawn_physics(draw, least_extenders=0):
    """A sweep point on drawn physics, and the engine parameters: the loss
    terms within their bounds, a band table, the MAC overheads, the
    congested-hop cap, the layout, the extender level and a point as
    ``_drawn_point`` draws it, at a small ``k``; now and then a 2.4 GHz MCS
    floor raised above the association sensitivity.
    Seven times in eight the clamp distance lies within the extender
    spacing: a nearer extender's uplink is rated at the clamp distance,
    and so, on most drawn loss terms, far below the lowest MCS.
    Half the points place their stations where a serving node's signal
    falls to an MCS threshold or the sensitivity, so that an RSSI a bit
    off the scalar one picks another rate or association there."""
    propagation = PropagationParams(
        distance_power_loss_coeff=draw(_bounded("distance_power_loss_coeff")),
        floor_penetration_db=draw(_bounded("floor_penetration_db")),
        constant_offset_db=draw(_bounded("constant_offset_db")),
    )
    raised = draw(st.integers(min_value=0, max_value=3)) == 3
    floor = draw(st.floats(min_value=-90.0, max_value=-85.0, exclude_max=True))
    band_mhz = {Band.GHZ_2_4: draw(st.floats(min_value=1.0, max_value=99999.0)),
                Band.GHZ_5: draw(st.floats(min_value=1.0, max_value=99999.0))}
    area = draw(st.sampled_from(AreaKind))
    n_ext, plan = draw(_layout(area, least_extenders))
    spec = ScenarioSpec(area=area, n_extenders=n_ext, channel_plan=plan,
                        k=draw(st.integers(min_value=1, max_value=3)),
                        seed=draw(st.integers(min_value=0, max_value=1000)))
    level = draw(st.floats(min_value=-90.0, max_value=-50.0))
    clamp = 10.0
    if draw(st.integers(min_value=0, max_value=7)):
        clamp = min(clamp, extender_distance_m(level, propagation, band_mhz))
    propagation = replace(propagation,
                          min_distance_m=draw(st.floats(min_value=clamp / 1000, max_value=clamp)))
    params = replace(
        _raised_floor(floor) if raised else EngineParams(),
        propagation=propagation,
        band_mhz=band_mhz,
        overheads={band: MacOverheads(**{f.name: draw(st.floats(min_value=0.0, max_value=500.0))
                                         for f in fields(MacOverheads)})
                   for band in Band},
        congested_hop_delay_ms=draw(st.floats(min_value=1e-3, max_value=1e5)),
    )
    if draw(st.booleans()):
        base = build_topology(spec, level, propagation, band_mhz=params.band_mhz)
        edges = (-90.0,) + params.mcs_tables[Band.GHZ_2_4].thresholds
        stations = []
        for _ in range(spec.n_sta):
            node = base.nodes[draw(st.sampled_from(base.serving_nodes()))]
            r = max_range_m(node.access_radio, draw(st.sampled_from(edges)), propagation,
                            params.band_mhz[Band.GHZ_2_4])
            stations.append((node.position[0] + r, node.position[1]))
        spec = replace(spec, fixed_positions=tuple(stations))
    return draw(_drawn_point(spec, level)), params


@settings(max_examples=250, deadline=None, derandomize=True)
@given(case=_drawn_physics())
def test_drawn_physics_match_the_topology_api(case):
    point, params = case
    try:
        want = _scalar_point(point, params)
    except ValueError as error:
        assert "below the lowest MCS" in str(error)
        with pytest.raises(ValueError) as raised:
            evaluate_point(0, point, params)
        assert str(raised.value) == str(error)
        return
    rows, agg = evaluate_point(0, point, params)
    assert (list(rows), agg) == want


@st.composite
def _drawn_group(draw):
    """Two to four sweep points on one deployment draw, the engine parameters
    and a slice size in rows.  The first point is drawn as ``_drawn_physics``
    draws it, with extenders to steer to, on its drawn physics or on the
    grids' own.  Each other one is drawn as ``_drawn_point`` draws it, on
    the layout of the point before it or, a quarter of the time, on another
    layout and extender level of the same family."""
    first, params = draw(_drawn_physics(least_extenders=1))
    if draw(st.booleans()):  # the grids' physics, on which stations move more often
        params = EngineParams()
    points = [first]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        last = points[-1]
        spec, level = last.scenario, last.rssi_ap_e_dbm
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            n_ext, plan = draw(_layout(spec.area))
            spec = replace(spec, n_extenders=n_ext, channel_plan=plan)
            level = draw(st.floats(min_value=-90.0, max_value=-50.0))
        points.append(draw(_drawn_point(spec, level)))
    return points, params, draw(st.integers(min_value=1, max_value=12))


def _traces(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


# a steered point whose move lands on a link below the lowest MCS, alone and
# after two points that never use that link: the error branch, every run
_STEER, _UNUSED, _FLOOR, _ = _below_mcs_grid()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=_drawn_group())
@example(case=([_STEER], _FLOOR, 1))
@example(case=(_UNUSED + [_STEER], _FLOOR, 2))
def test_points_on_one_draw_match_the_topology_api(case):
    # the kernel's rows and aggregates, and its frame traces byte for byte,
    # against the Topology API and export_events(run_mechanism(...))
    points, params, rows = case
    want, errors = [], set()
    members, k = tuple(enumerate(points)), points[0].scenario.k
    with tempfile.TemporaryDirectory() as tmp:
        scalar, kernel = Path(tmp, "scalar"), Path(tmp, "kernel")
        scalar.mkdir()
        kernel.mkdir()
        for pi, point in members:
            try:
                want.append(_scalar_point(
                    point, params, lambda dep: scalar / f"tx_p{pi:04d}_d{dep:05d}.ndjson"))
            except ValueError as error:
                # raised by the pass's loads or by evaluate
                assert "below the lowest MCS" in str(error)
                errors.add(str(error))
        with mock.patch.object(runner, "_ROWS", rows):
            if errors:
                # a slice rates its access links before it steers, and its
                # rows run station by station, so the error may be any
                # point's first
                with pytest.raises(ValueError) as raised:
                    list(runner._evaluate_range(members, params, str(kernel), 0, k))
                assert str(raised.value) in errors
                return
            block = runner._in_grid_order(
                members, runner._evaluate_range(members, params, str(kernel), 0, k))
        assert _traces(kernel) == _traces(scalar)
    assert list(runner.ResultRows(block)) == [row for want_rows, _ in want for row in want_rows]
    assert runner.Aggregates(block) == [agg for _, agg in want]
