"""Airtime, utilization, delivery and delay model checks.

The reference numbers were derived by hand from the DCF timing constants
before the module was written; they are frozen here on purpose.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (CH1, CH6, CH11, CH36, PACKET_BITS, ap_node, extender_node,
                      sta_node, traffic, two_cell)

from wlansteer.model import Band, ChannelId, Topology, make_node_map
from wlansteer.perf import (
    DEFAULT_OVERHEADS,
    ExternalLoad,
    Flow,
    HopKind,
    MacOverheads,
    SimEnv,
    build_flows,
    busy_fractions,
    channel_utilization,
    evaluate,
    flow_airtime_s,
    with_link_cache,
)

# one 12000-bit frame at 144.4 Mbps on 2.4 GHz, DIFS 28 + 7.5 slots + preamble
# 40 + payload + SIFS 10 + ACK 32
AIRTIME_144M4_S = 0.00026060249307479223
U_ONE_MBPS = 0.02171687442289935
DELAY_ONE_MBPS_MS = 0.26638759911253684

ZERO_OVERHEAD = MacOverheads(difs_us=0.0, sifs_us=0.0, slot_us=0.0,
                             avg_backoff_slots=0.0, preamble_us=0.0, ack_us=0.0)


def _flow(offered=1e6, rate=144.4e6, channel=CH1, kind=HopKind.ACCESS):
    return Flow(src=10, dst=0, channel=channel, offered_bps=offered,
                phy_rate_bps=rate, kind=kind)


def chain_with_sta(per_sta_bps=1e6):
    """AP <- E1 <- E2, one STA on E2, all link RSSIs pinned."""
    nodes = [ap_node(), extender_node(1, (20.0, 0.0), CH6),
             extender_node(2, (40.0, 0.0), CH11), sta_node(12, (41.0, 0.0))]
    t = Topology(nodes=make_node_map(nodes), associations={12: 2},
                 backhaul_parent={1: 0, 2: 1})
    env = SimEnv(traffic=traffic(per_sta_bps, 1),
                 rssi_overrides={(12, 2, Band.GHZ_2_4): -57.0,
                                 (2, 1, Band.GHZ_5): -60.0,
                                 (1, 0, Band.GHZ_5): -60.0})
    return t, env


# --- frame airtime ----------------------------------------------------------

def test_overhead_totals():
    assert DEFAULT_OVERHEADS[Band.GHZ_2_4].total_us == 177.5
    assert DEFAULT_OVERHEADS[Band.GHZ_5].total_us == 189.5


def test_airtime_reference_value():
    got = flow_airtime_s(_flow(), PACKET_BITS, DEFAULT_OVERHEADS[Band.GHZ_2_4])
    assert got == pytest.approx(AIRTIME_144M4_S, rel=1e-12)


def test_airtime_without_overhead_is_serialization_time():
    f = _flow(rate=12e6)
    assert flow_airtime_s(f, PACKET_BITS, ZERO_OVERHEAD) == 0.001


def test_airtime_is_affine_in_packet_length():
    o = DEFAULT_OVERHEADS[Band.GHZ_2_4]
    f = _flow(rate=144.4e6)
    t1 = flow_airtime_s(f, PACKET_BITS, o)
    t2 = flow_airtime_s(f, 2 * PACKET_BITS, o)
    assert t2 - t1 == pytest.approx(PACKET_BITS / 144.4e6, rel=1e-12)


# --- channel utilization ----------------------------------------------------

def test_single_flow_utilization_reference_value():
    env = SimEnv(traffic=traffic(1e6, 1))
    util = channel_utilization([_flow()], env)
    assert util[CH1] == pytest.approx(U_ONE_MBPS, rel=1e-12)


def test_utilization_sums_across_flows_and_channels():
    env = SimEnv(traffic=traffic(1e6, 2))
    flows = [_flow(), _flow(), _flow(channel=CH6)]
    util = channel_utilization(flows, env)
    assert util[CH1] == pytest.approx(2 * U_ONE_MBPS, rel=1e-12)
    assert util[CH6] == pytest.approx(U_ONE_MBPS, rel=1e-12)


def test_utilization_is_not_clamped():
    env = SimEnv(traffic=traffic(1e6, 1))
    util = channel_utilization([_flow(offered=100e6)], env)
    assert util[CH1] == pytest.approx(100 * U_ONE_MBPS, rel=1e-12)
    assert util[CH1] > 2.0


def _exact_utilization(case, overheads):
    """Brute-force oracle: the same law recomputed with exact rationals."""
    fixed = (Fraction(overheads.difs_us)
             + Fraction(overheads.avg_backoff_slots) * Fraction(overheads.slot_us)
             + Fraction(overheads.preamble_us) + Fraction(overheads.sifs_us)
             + Fraction(overheads.ack_us))
    total = Fraction(0)
    for offered, rate in case:
        airtime = fixed / Fraction(10 ** 6) + Fraction(PACKET_BITS) / Fraction(rate)
        total += Fraction(offered) / Fraction(PACKET_BITS) * airtime
    return total


# station RSSIs that pin three distinct 2.4 GHz rates
RSSI_FOR_RATE = {144.4e6: -57.0, 117e6: -62.0, 13e6: -90.0}

BRUTE_FORCE_CASES = [
    (2e6, (144.4e6,)),
    (3.5e6, (144.4e6, 117e6)),
    (4e6, (144.4e6, 117e6, 13e6)),
    (32e6, (144.4e6, 117e6, 13e6)),  # pushes U well past 1
]


@pytest.mark.parametrize("per_sta,rates", BRUTE_FORCE_CASES)
def test_delivery_matches_brute_force_oracle(per_sta, rates):
    case = [(per_sta, r) for r in rates]
    o = DEFAULT_OVERHEADS[Band.GHZ_2_4]
    exact = _exact_utilization(case, o)

    flows = [_flow(offered=b, rate=r) for b, r in case]
    env = SimEnv(traffic=traffic(per_sta, len(case)))
    util = channel_utilization(flows, env)
    assert abs(util[CH1] - float(exact)) <= 1e-9

    # drive the full evaluator over the same channel and compare shares
    nodes = [ap_node()] + [sta_node(10 + i, (1.0 + i, 0.0)) for i in range(len(case))]
    t = Topology(nodes=make_node_map(nodes),
                 associations={10 + i: 0 for i in range(len(case))})
    overrides = {(10 + i, 0, Band.GHZ_2_4): RSSI_FOR_RATE[r]
                 for i, (_, r) in enumerate(case)}
    rep = evaluate(t, SimEnv(traffic=traffic(per_sta, len(case)),
                             rssi_overrides=overrides))
    share = min(Fraction(1), 1 / exact)
    for i, (b, _) in enumerate(case):
        assert abs(rep.per_sta[10 + i].delivered_bps / b - float(share)) <= 1e-9


# --- busy fractions ---------------------------------------------------------

def test_busy_fractions_idle_network_is_zero():
    t, env = two_cell(n_sta=2)
    idle = Topology(nodes=t.nodes, backhaul_parent=t.backhaul_parent)
    busy = busy_fractions(idle, env)
    assert set(busy) == {CH1, CH6, CH36}
    assert all(v == 0.0 for v in busy.values())


def test_busy_fractions_count_each_association():
    t, env = two_cell(n_sta=4, per_sta_bps=1e6, sta_rssi_ap=-57.0)
    assoc = Topology(nodes=t.nodes, associations={10: 0, 11: 0, 12: 0, 13: 0},
                     backhaul_parent=t.backhaul_parent)
    busy = busy_fractions(assoc, env)
    assert busy[CH1] == pytest.approx(4 * U_ONE_MBPS, rel=1e-12)
    assert busy[CH6] == 0.0
    assert busy[CH36] == 0.0


def test_busy_fractions_clamped_at_one():
    t, env = two_cell(n_sta=2, per_sta_bps=60e6, sta_rssi_ap=-57.0)
    assoc = Topology(nodes=t.nodes, associations={10: 0, 11: 0},
                     backhaul_parent=t.backhaul_parent)
    busy = busy_fractions(assoc, env)
    assert busy[CH1] == 1.0


def test_busy_fractions_skip_sta_removes_its_whole_load():
    t, env = two_cell(n_sta=3, per_sta_bps=2e6, sta_rssi_ext=-55.0)
    assoc = Topology(nodes=t.nodes, associations={10: 1, 11: 1, 12: 0},
                     backhaul_parent=t.backhaul_parent)
    skipped = busy_fractions(assoc, env, skip_sta=10)
    without = Topology(nodes=t.nodes, associations={11: 1, 12: 0},
                       backhaul_parent=t.backhaul_parent)
    assert skipped == busy_fractions(without, env)


# --- flow construction ------------------------------------------------------

def test_build_flows_single_hop():
    t, env = two_cell(n_sta=2, per_sta_bps=3e6)
    assoc = Topology(nodes=t.nodes, associations={10: 0, 11: 0},
                     backhaul_parent=t.backhaul_parent)
    flows = build_flows(assoc, env)
    access = [f for f in flows if f.kind is HopKind.ACCESS]
    assert sorted(f.src for f in access) == [10, 11]
    assert all(f.dst == 0 and f.channel == CH1 and f.offered_bps == 3e6 for f in access)
    # the idle extender still appears as an uplink hop, just with nothing on it
    backhaul = [f for f in flows if f.kind is HopKind.BACKHAUL]
    assert [(f.src, f.offered_bps) for f in backhaul] == [(1, 0.0)]


def test_build_flows_chain_repeats_load_on_each_uplink_hop():
    t, env = chain_with_sta(per_sta_bps=2e6)
    flows = build_flows(t, env)
    access = [f for f in flows if f.kind is HopKind.ACCESS]
    backhaul = sorted((f for f in flows if f.kind is HopKind.BACKHAUL),
                      key=lambda f: f.src)
    assert [(f.src, f.dst, f.offered_bps) for f in access] == [(12, 2, 2e6)]
    assert [(f.src, f.dst, f.offered_bps) for f in backhaul] == [(1, 0, 2e6), (2, 1, 2e6)]
    assert all(f.channel == CH36 for f in backhaul)


def test_build_flows_aggregates_descendant_load():
    nodes = [ap_node(), extender_node(1, (20.0, 0.0), CH6),
             extender_node(2, (40.0, 0.0), CH11),
             sta_node(10, (1.0, 0.0)), sta_node(11, (21.0, 0.0)), sta_node(12, (41.0, 0.0))]
    t = Topology(nodes=make_node_map(nodes),
                 associations={10: 0, 11: 1, 12: 2},
                 backhaul_parent={1: 0, 2: 1})
    env = SimEnv(traffic=traffic(3e6, 3),
                 rssi_overrides={(10, 0, Band.GHZ_2_4): -50.0,
                                 (11, 1, Band.GHZ_2_4): -50.0,
                                 (12, 2, Band.GHZ_2_4): -50.0,
                                 (1, 0, Band.GHZ_5): -60.0,
                                 (2, 1, Band.GHZ_5): -60.0})
    flows = build_flows(t, env)
    by_hop = {(f.src, f.dst): f.offered_bps
              for f in flows if f.kind is HopKind.BACKHAUL}
    # E2 relays its one station, E1 relays its own station plus E2's
    assert by_hop == {(2, 1): 3e6, (1, 0): 6e6}


def test_build_flows_skip_sta_removes_access_and_relay_share():
    t, env = chain_with_sta(per_sta_bps=2e6)
    flows = build_flows(t, env, skip_sta=12)
    assert [f for f in flows if f.kind is HopKind.ACCESS] == []
    assert all(f.offered_bps == 0.0 for f in flows if f.kind is HopKind.BACKHAUL)


def test_external_load_becomes_a_flow():
    t, env = two_cell(n_sta=1)
    env_x = SimEnv(traffic=env.traffic,
                   external=(ExternalLoad(channel=CH6, load_bps=3e6),),
                   rssi_overrides=env.rssi_overrides)
    flows = build_flows(t, env_x)
    ext = [f for f in flows if f.kind is HopKind.EXTERNAL]
    assert len(ext) == 1
    assert ext[0].channel == CH6
    assert ext[0].offered_bps == 3e6
    assert ext[0].phy_rate_bps == 65e6  # default interferer rate


# --- end-to-end evaluation --------------------------------------------------

def test_single_station_delivery_and_delay_reference():
    t, env = two_cell(n_sta=1, per_sta_bps=1e6, sta_rssi_ap=-57.0)
    assoc = Topology(nodes=t.nodes, associations={10: 0},
                     backhaul_parent=t.backhaul_parent)
    rep = evaluate(assoc, env)
    assert rep.per_sta[10].delivered_bps == 1e6
    assert rep.network_throughput_pct == 100.0
    assert rep.per_sta[10].delay_ms == pytest.approx(DELAY_ONE_MBPS_MS, rel=1e-12)
    assert rep.congested is False


def test_overload_delivers_inverse_utilization_share():
    t, env = two_cell(n_sta=2, per_sta_bps=60e6, sta_rssi_ap=-57.0)
    assoc = Topology(nodes=t.nodes, associations={10: 0, 11: 0},
                     backhaul_parent=t.backhaul_parent)
    util = channel_utilization(build_flows(assoc, env), env)
    assert util[CH1] > 1.0
    rep = evaluate(assoc, env)
    expect = 60e6 / util[CH1]
    assert rep.per_sta[10].delivered_bps == pytest.approx(expect, rel=1e-12)
    assert rep.congested is True
    assert rep.per_sta[10].delay_ms == 10000.0
    assert rep.network_throughput_pct == pytest.approx(100.0 / util[CH1], rel=1e-12)


def test_conservation_below_saturation_is_exact():
    t, env = two_cell(n_sta=4, per_sta_bps=2.5e6)
    assoc = Topology(nodes=t.nodes, associations={10: 0, 11: 0, 12: 1, 13: 1},
                     backhaul_parent=t.backhaul_parent)
    util = channel_utilization(build_flows(assoc, env), env)
    assert max(util.values()) < 1.0
    rep = evaluate(assoc, env)
    for sta in (10, 11, 12, 13):
        assert rep.per_sta[sta].delivered_bps == 2.5e6  # bit-exact, no tolerance
    assert rep.network_throughput_pct == 100.0


def test_chain_delay_is_the_sum_of_hop_delays():
    t, env = chain_with_sta(per_sta_bps=1e6)
    flows = build_flows(t, env)
    util = channel_utilization(flows, env)
    o = DEFAULT_OVERHEADS
    expect = 0.0
    for f in flows:
        at = flow_airtime_s(f, PACKET_BITS, o[f.channel.band])
        expect += at * 1e3 / (1.0 - util[f.channel])
    rep = evaluate(t, env)
    assert rep.per_sta[12].delay_ms == pytest.approx(expect, rel=1e-12)


def test_relay_station_degrades_when_backhaul_saturates():
    # driving the 5 GHz uplink past 1 has to cut a chained station's delivery
    t, env = chain_with_sta(per_sta_bps=300e6)
    rep = evaluate(t, env)
    assert rep.congested is True
    assert rep.per_sta[12].delivered_bps < 300e6


def test_unassociated_station_excluded_from_aggregates():
    t, env = two_cell(n_sta=2, per_sta_bps=1e6, sta_rssi_ap=-57.0)
    assoc = Topology(nodes=t.nodes, associations={10: 0},
                     backhaul_parent=t.backhaul_parent)
    rep = evaluate(assoc, env)
    assert rep.unassociated == (11,)
    assert rep.n_sta == 2
    assert set(rep.per_sta) == {10}
    assert rep.network_throughput_pct == 100.0


def test_external_load_consumes_airtime_but_not_throughput():
    t, env = two_cell(n_sta=1, per_sta_bps=1e6, sta_rssi_ap=-57.0)
    assoc = Topology(nodes=t.nodes, associations={10: 0},
                     backhaul_parent=t.backhaul_parent)
    # 90 Mbps of legacy-rate neighbour traffic saturates channel 1
    env_x = SimEnv(traffic=env.traffic,
                   external=(ExternalLoad(channel=CH1, load_bps=90e6),),
                   rssi_overrides=env.rssi_overrides)
    util = channel_utilization(build_flows(assoc, env_x), env_x)
    assert util[CH1] > 1.0
    rep = evaluate(assoc, env_x)
    assert rep.congested is True
    # delivered share shrinks, yet the percentage is still relative to the
    # station's own offered load, never the interferer's
    assert rep.network_throughput_pct == pytest.approx(
        rep.per_sta[10].delivered_bps / 1e6 * 100.0, rel=1e-12)


def test_link_cache_does_not_change_results():
    t, env = chain_with_sta(per_sta_bps=2e6)
    plain = evaluate(t, env)
    cached = evaluate(t, with_link_cache(t, env))
    assert cached.per_sta == plain.per_sta
    assert cached.network_throughput_pct == plain.network_throughput_pct


# --- property checks --------------------------------------------------------

@settings(deadline=None, derandomize=True)
@given(
    loads=st.lists(st.floats(min_value=1e3, max_value=40e6), min_size=1, max_size=6),
    scale=st.floats(min_value=1.0, max_value=8.0),
)
def test_scaling_load_never_lowers_utilization(loads, scale):
    env = SimEnv(traffic=traffic(1e6, len(loads)))
    base = [_flow(offered=b) for b in loads]
    more = [_flow(offered=b * scale) for b in loads]
    u0 = channel_utilization(base, env)[CH1]
    u1 = channel_utilization(more, env)[CH1]
    assert u1 >= u0


@settings(deadline=None, derandomize=True)
@given(
    per_sta=st.floats(min_value=1e4, max_value=30e6),
    scale=st.floats(min_value=1.0, max_value=6.0),
    on_ext=st.integers(min_value=0, max_value=3),
)
def test_scaling_load_never_raises_delivered_fraction(per_sta, scale, on_ext):
    t, env = two_cell(n_sta=3, per_sta_bps=per_sta)
    parents = {10 + i: (1 if i < on_ext else 0) for i in range(3)}
    assoc = Topology(nodes=t.nodes, associations=parents,
                     backhaul_parent=t.backhaul_parent)
    rep0 = evaluate(assoc, env)
    env2 = SimEnv(traffic=traffic(per_sta * scale, 3),
                  rssi_overrides=env.rssi_overrides)
    rep1 = evaluate(assoc, env2)
    for sta in parents:
        f0 = rep0.per_sta[sta].delivered_bps / per_sta
        f1 = rep1.per_sta[sta].delivered_bps / (per_sta * scale)
        assert f1 <= f0 + 1e-12
        assert 0.0 <= f1 <= 1.0


@settings(deadline=None, derandomize=True)
@given(per_sta=st.floats(min_value=1e4, max_value=200e6))
def test_busy_fractions_always_in_unit_interval(per_sta):
    t, env = two_cell(n_sta=4, per_sta_bps=per_sta)
    assoc = Topology(nodes=t.nodes, associations={10: 0, 11: 0, 12: 1, 13: 1},
                     backhaul_parent=t.backhaul_parent)
    for v in busy_fractions(assoc, env).values():
        assert 0.0 <= v <= 1.0
