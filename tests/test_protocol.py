"""Frame-level behavior of the 802.11k/v exchange that observes the steering pass."""
import dataclasses
import hashlib
import json
import typing

import pytest

from conftest import (
    CH1, CH6, CH11, ap_node, extender_node, radio24, sta_node, traffic, two_cell,
)

from wlansteer.model import Band, ChannelId, Node, NodeKind, Topology, make_node_map
from wlansteer.perf import SimEnv, busy_fractions
from wlansteer.protocol import (
    AssocRequest,
    AssocResponse,
    BeaconReport,
    BeaconReportEntry,
    BtmRequest,
    ChannelLoadReport,
    ChannelLoadRequest,
    EventLog,
    Frame,
    export_events,
    run_mechanism,
)
from wlansteer.selection import (
    CandidateEntry,
    CandidateList,
    CandidateScore,
    Mechanism,
    SelectionConfig,
    initial_association,
    reassociation_pass,
)

LA = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.5)
RSSI = SelectionConfig(mechanism=Mechanism.RSSI_BASED)


def busy_two_cell():
    """Six stations, loaded enough that the steering pass moves some."""
    return two_cell(n_sta=6, per_sta_bps=8e6, sta_rssi_ap=-50.0, sta_rssi_ext=-55.0)


def frames_of(log, kind, **match):
    """Frames of one type, optionally filtered by log entry fields."""
    return [e.frame for e in log.entries if isinstance(e.frame, kind)
            and all(getattr(e, k) == v for k, v in match.items())]


def test_stock_mechanism_exchanges_no_measurement_frames():
    t, env = busy_two_cell()
    steered, log = run_mechanism(t, env, RSSI)
    assert log.measurement_frames() == []
    assert steered.associations == initial_association(t, env).associations
    # two association frames per station, nothing else
    assert len(log.entries) == 2 * len(steered.associations)
    assert all(e.stage == 1 for e in log.entries)


def test_steered_run_composes_to_the_direct_pass():
    t, env = busy_two_cell()
    steered, log = run_mechanism(t, env, LA)
    direct, _ = reassociation_pass(initial_association(t, env), env, LA)
    assert steered.associations == direct.associations
    assert log.measurement_frames() != []


def test_beacon_report_carries_exact_model_rssis():
    t, env = two_cell(n_sta=1, sta_rssi_ap=-61.0, sta_rssi_ext=-52.5)
    _, log = run_mechanism(t, env, LA)
    [report] = frames_of(log, BeaconReport, src=10)
    entries = report.entries
    assert [e.bssid for e in entries] == [0, 1]
    by_bssid = {e.bssid: e for e in entries}
    assert by_bssid[0].rssi_dbm == -61.0
    assert by_bssid[1].rssi_dbm == -52.5
    assert by_bssid[0].channel == CH1
    assert by_bssid[1].channel == CH6
    assert by_bssid[0].frequency_mhz == 2400.0


def test_beacon_report_lists_one_entry_per_reachable_target():
    nodes = [ap_node(), extender_node(1, (20.0, 0.0), CH6),
             extender_node(2, (40.0, 0.0), CH11), sta_node(10, (30.0, 0.0))]
    t = Topology(nodes=make_node_map(nodes), backhaul_parent={1: 0, 2: 1})
    env = SimEnv(traffic=traffic(1e6, 1),
                 rssi_overrides={(10, 0, Band.GHZ_2_4): -70.0,
                                 (10, 1, Band.GHZ_2_4): -55.0,
                                 (10, 2, Band.GHZ_2_4): -60.0,
                                 (1, 0, Band.GHZ_5): -65.0,
                                 (2, 1, Band.GHZ_5): -65.0})
    _, log = run_mechanism(t, env, LA)
    [report] = frames_of(log, BeaconReport, src=10)
    assert len(report.entries) == 3

    env_far = SimEnv(traffic=env.traffic,
                     rssi_overrides={**env.rssi_overrides,
                                     (10, 2, Band.GHZ_2_4): -95.0})
    _, log = run_mechanism(t, env_far, LA)
    [report] = frames_of(log, BeaconReport, src=10)
    assert [e.bssid for e in report.entries] == [0, 1]


def test_channel_load_reports_match_the_occupation_model():
    t, env = busy_two_cell()
    loads = busy_fractions(initial_association(t, env), env)
    _, log = run_mechanism(t, env, LA)
    reports = frames_of(log, ChannelLoadReport)
    # each station's round has one report per serving radio (two per node),
    # and requests only travel to the extender
    assert len(reports) == 4 * len(frames_of(log, BeaconReport))
    assert {e.dst for e in log.entries
            if isinstance(e.frame, ChannelLoadRequest)} == {1}
    # the first round measures the initial association
    for rep in reports[:4]:
        assert rep.busy_fraction == loads.get(rep.channel, 0.0)
        assert rep.measurement_duration_ms == 50.0


def test_saturated_channel_reports_full_occupation():
    t, env = two_cell(n_sta=4, per_sta_bps=60e6, sta_rssi_ap=-50.0, sta_rssi_ext=-80.0)
    _, log = run_mechanism(t, env, LA)
    by_channel = {rep.channel: rep.busy_fraction
                  for rep in frames_of(log, ChannelLoadReport)[:4]}
    assert by_channel[CH1] == 1.0


def test_exclude_sta_discounts_its_own_airtime():
    t, env = busy_two_cell()
    t1 = initial_association(t, env)
    cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.5,
                          include_self_load=False)
    _, log = run_mechanism(t, env, cfg)
    loads = busy_fractions(t1, env, skip_sta=10)
    reports = frames_of(log, ChannelLoadReport)[:4]
    assert {rep.channel: rep.busy_fraction for rep in reports} == {
        rep.channel: loads.get(rep.channel, 0.0) for rep in reports}
    assert loads[CH1] < busy_fractions(t1, env)[CH1]


def test_non_capable_station_is_never_measured():
    t, env = busy_two_cell()
    nodes = dict(t.nodes)
    nodes[13] = sta_node(13, nodes[13].position, supports_11kv=False)
    t = Topology(nodes=nodes, backhaul_parent=t.backhaul_parent)
    _, log = run_mechanism(t, env, LA)
    for e in log.frames_for(13):
        assert isinstance(e.frame, (AssocRequest, AssocResponse))


def test_unreachable_station_exchanges_nothing():
    t, env = two_cell(n_sta=2, sta_rssi_ap=-96.0, sta_rssi_ext=-99.0)
    steered, log = run_mechanism(t, env, LA)
    assert steered.associations == {}
    assert log.frames_for(10) == []
    assert not any(isinstance(e.frame, BtmRequest) for e in log.entries)


def test_stage3_skips_stations_without_candidates():
    # an association the station can no longer hear leaves it no candidate:
    # it is measured, but receives no steering request and answers none
    # (above the lowest MCS, so its airtime still counts towards the loads)
    t, env = two_cell(n_sta=1, sta_rssi_ap=-85.0, sta_rssi_ext=-88.0)
    deaf = Node(10, NodeKind.STA, t.nodes[10].position, (radio24(sens=-80.0),),
                supports_11kv=True)
    t1 = Topology(nodes={**t.nodes, 10: deaf}, associations={10: 1},
                  backhaul_parent=t.backhaul_parent)
    log = EventLog()
    t2, moves = reassociation_pass(t1, env, LA, log=log)
    assert t2.associations == {10: 1} and moves == []
    assert [r.entries for r in frames_of(log, BeaconReport)] == [()]
    assert [e.stage for e in log.entries if e.stage != 2] == []


def test_stage4_applies_the_first_feasible_candidate():
    t, env = busy_two_cell()
    steered, log = run_mechanism(t, env, LA)
    requests = frames_of(log, BtmRequest)
    assert len(requests) == len(t.stations())
    for req in requests:
        assert steered.associations[req.sta] == req.candidates.entries[0].target


def test_staying_put_exchanges_no_association_frames():
    t, env = two_cell(n_sta=1, sta_rssi_ap=-60.0, sta_rssi_ext=-55.0)
    steered, log = run_mechanism(t, env, LA)
    assert steered.associations == initial_association(t, env).associations == {10: 1}
    assert [type(e.frame).__name__ for e in log.entries if e.stage == 4] == ["BtmResponse"]


def test_frame_order_for_a_steered_station():
    t, env = busy_two_cell()
    steered, log = run_mechanism(t, env, LA)
    moved = next(s for s in steered.associations
                 if steered.associations[s] != initial_association(t, env).associations[s])
    kinds = [type(e.frame).__name__ for e in log.frames_for(moved)]
    assert kinds == [
        "AssocRequest", "AssocResponse",          # stage 1
        "BeaconRequest", "BeaconReport",          # stage 2
        "BtmRequest",                             # stage 3
        "BtmResponse", "AssocRequest", "AssocResponse",  # stage 4
    ]
    steps = [e.step for e in log.frames_for(moved)]
    assert steps == sorted(steps)


def test_log_steps_are_dense_and_ordered():
    t, env = busy_two_cell()
    _, log = run_mechanism(t, env, LA)
    assert [e.step for e in log.entries] == list(range(len(log.entries)))


def test_export_events_writes_parseable_lines(tmp_path):
    t, env = busy_two_cell()
    _, log = run_mechanism(t, env, LA)
    path = tmp_path / "events.ndjson"
    export_events(log, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == len(log.entries)
    known = {"AssocRequest", "AssocResponse", "BeaconRequest", "BeaconReport",
             "ChannelLoadRequest", "ChannelLoadReport", "BtmRequest", "BtmResponse"}
    for i, line in enumerate(lines):
        rec = json.loads(line)
        assert set(rec) == {"step", "stage", "src", "dst", "frame", "fields"}
        assert rec["step"] == i
        assert rec["frame"] in known


# --- trace bytes of every steering branch ------------------------------------


def _deployment_13_4e():
    """Deployment 0 of test 1.3's load-aware 4-extender point at 18 Mbps."""
    from wlansteer.runner import EngineParams
    from wlansteer.scenarios import (
        add_stations, build_test, build_topology, capable_set_for, deployment_draw,
    )
    point = next(p for p in build_test("1.3")
                 if p.selection.mechanism is Mechanism.LOAD_AWARE
                 and p.scenario.n_extenders == 4 and p.b_t_bps == 18.0e6)
    spec, prop = point.scenario, EngineParams().propagation
    positions, perm = deployment_draw(spec, 0, prop)
    t = add_stations(build_topology(spec, point.rssi_ap_e_dbm, prop), positions,
                     capable_set_for(spec, perm, point.selection.beta_pct))
    return t, SimEnv(traffic=point.traffic, external=tuple(point.external))


# sha256 of export_events(run_mechanism(...)) keyed by
# (network, include_self_load, passes)
BRANCH_TRACE_SHA256 = {
    ("busy", True, 1): "bcf6ad9b214c906187796f3f46d63d9a5f44ff0f16e14755b631ea9181f21b28",
    ("busy", True, 2): "8d1c98eecc6a518fd77fdfc79264ff73fc450ce863d70692481589ad32c7b5df",
    ("busy", False, 1): "3343f660d9fe5ebaad71428138cd1b5f76f03d2b749de7b7bc9af13e034e3d76",
    ("busy", False, 2): "48700264ca8d4eb384a3c2fff04d80354a312949a305a2241482c92f78606955",
    ("1.3-4E", True, 1): "47d5f28740bb12ede35e62843a0a1b37bab1a5afd413a37f32ff0fdc548e7096",
    ("1.3-4E", True, 2): "f6f58576dbb279b6e4b02dd9b0a7e8bb38ade5c4113ee838de88b50841e4c418",
    ("1.3-4E", False, 1): "1c503410260ce7f567418a1e4250c07a3af73f27268b9502fffb941921ac18f1",
    ("1.3-4E", False, 2): "29807dae38e977783b8f0bc89d374598cf1aaeff498b4b031a117a728eedf3f1",
}


@pytest.mark.parametrize("key", sorted(BRANCH_TRACE_SHA256))
def test_trace_bytes_are_pinned_per_branch(key, tmp_path):
    network, self_load, passes = key
    t, env = busy_two_cell() if network == "busy" else _deployment_13_4e()
    cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.5, passes=passes,
                          include_self_load=self_load)
    _, log = run_mechanism(t, env, cfg)
    path = tmp_path / "events.ndjson"
    export_events(log, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BRANCH_TRACE_SHA256[key]


def _dataclasses_in(value):
    """Every dataclass instance in ``value``, as the trace encoder meets them."""
    if dataclasses.is_dataclass(value):
        yield value
        for f in dataclasses.fields(value):
            yield from _dataclasses_in(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _dataclasses_in(item)


def test_every_traced_dataclass_holds_its_fields_and_nothing_else():
    # export_events writes vars() of each, so a cached attribute would leak into the trace
    seen = set()
    for t, env in (busy_two_cell(), _deployment_13_4e()):
        _, log = run_mechanism(t, env, LA)
        for e in log.entries:
            for value in _dataclasses_in(e.frame):
                assert list(vars(value)) == [f.name for f in dataclasses.fields(value)]
                seen.add(type(value))
    nested = {ChannelId, BeaconReportEntry, CandidateList, CandidateEntry, CandidateScore}
    assert seen == set(typing.get_args(Frame)) | nested
