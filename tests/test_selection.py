"""Candidate scoring, ranking and the reassociation pass."""
import numpy as np
import pytest

from conftest import CH1, CH6, CH36, ap_node, extender_node, sta_node, traffic, two_cell

from wlansteer.model import Band, ChannelId, Topology, make_node_map
from wlansteer.perf import SimEnv, TrafficProfile, busy_fractions
from wlansteer.scenarios import fixture_topology, bench_fixture
from wlansteer.selection import (
    Mechanism,
    SelectionConfig,
    initial_association,
    rank_candidates,
    reassociation_pass,
    weighted_rssi,
)

LA = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.5)


# --- signal weighting -------------------------------------------------------

def test_weighted_rssi_midpoint_and_bounds():
    assert weighted_rssi(-35.0, 20.0, -90.0) == 0.5
    assert weighted_rssi(20.0, 20.0, -90.0) == 0.0
    assert weighted_rssi(-90.0, 20.0, -90.0) == 1.0


def test_weighted_rssi_clamps_out_of_range_inputs():
    assert weighted_rssi(25.0, 20.0, -90.0) == 0.0
    assert weighted_rssi(-120.0, 20.0, -90.0) == 1.0


def test_weighted_rssi_decreases_with_signal_strength():
    vals = [weighted_rssi(r, 20.0, -90.0) for r in (-30.0, -50.0, -70.0, -89.0)]
    assert vals == sorted(vals)


# --- candidate scores -------------------------------------------------------

def test_scores_recompose_from_their_fields():
    """1000 randomized scores rebuilt from their own components."""
    rng = np.random.default_rng(4242)
    checked = 0
    while checked < 1000:
        n_sta = 5
        t, env = two_cell(
            n_sta=n_sta,
            per_sta_bps=float(rng.uniform(5e5, 2e7)),
            sta_rssi_ap=float(rng.uniform(-89.0, -40.0)),
            sta_rssi_ext=float(rng.uniform(-89.0, -40.0)),
        )
        assoc = {10 + i: int(rng.integers(0, 2)) for i in range(n_sta)}
        t = Topology(nodes=t.nodes, associations=assoc,
                     backhaul_parent=t.backhaul_parent)
        cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE,
                              alpha=float(rng.uniform(0.0, 1.0)))
        for sta in t.stations():
            cl = rank_candidates(t, env, sta, cfg)
            for s in cl.details:
                rebuilt = (s.alpha * (s.weighted_rssi + s.access_load)
                           + (1.0 - s.alpha) * s.backhaul_load_sum)
                assert abs(s.score - rebuilt) <= 1e-12
                checked += 1
    assert checked >= 1000


def test_score_hand_oracle():
    t, env = two_cell(n_sta=1, sta_rssi_ap=-55.0, sta_rssi_ext=-55.0)
    loads = {CH1: 0.3, CH6: 0.1, CH36: 0.2}
    cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.6)
    cl = rank_candidates(t, env, 10, cfg, loads=loads)
    by_target = {s.target: s for s in cl.details}
    w = (-55.0 - 20.0) / (-90.0 - 20.0)
    assert by_target[0].score == pytest.approx(0.6 * (w + 0.3), rel=1e-12)
    assert by_target[1].score == pytest.approx(0.6 * (w + 0.1) + 0.4 * 0.2, rel=1e-12)


def test_alpha_zero_scores_only_the_backhaul():
    t, env = two_cell(n_sta=1)
    loads = {CH1: 0.9, CH6: 0.9, CH36: 0.25}
    cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.0)
    cl = rank_candidates(t, env, 10, cfg, loads=loads)
    by_target = {s.target: s.score for s in cl.details}
    assert by_target[0] == 0.0  # the root has no uplink
    assert by_target[1] == pytest.approx(0.25, rel=1e-12)


def test_alpha_one_ignores_the_backhaul():
    t, env = two_cell(n_sta=1, sta_rssi_ap=-60.0, sta_rssi_ext=-60.0)
    loads = {CH1: 0.2, CH6: 0.2, CH36: 0.99}
    cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=1.0)
    cl = rank_candidates(t, env, 10, cfg, loads=loads)
    scores = [s.score for s in cl.details]
    assert scores[0] == pytest.approx(scores[1], rel=1e-12)
    # equal scores fall back to the root-first tie-break
    assert cl.entries[0].target == 0


def test_out_of_range_targets_are_not_candidates():
    t, env = two_cell(n_sta=1, sta_rssi_ap=-60.0, sta_rssi_ext=-95.0)
    cl = rank_candidates(t, env, 10, LA)
    assert [e.target for e in cl.entries] == [0]


def test_candidate_entries_carry_the_access_channel():
    t, env = two_cell(n_sta=1)
    cl = rank_candidates(t, env, 10, LA)
    chan = {e.target: e.channel for e in cl.entries}
    assert chan == {0: CH1, 1: CH6}


def test_extender_tie_breaks_by_lower_id():
    nodes = [ap_node(),
             extender_node(1, (20.0, 0.0), CH6),
             extender_node(2, (20.0, 5.0), CH6),
             sta_node(10, (25.0, 2.0))]
    t = Topology(nodes=make_node_map(nodes), backhaul_parent={1: 0, 2: 0})
    env = SimEnv(traffic=traffic(1e6, 1),
                 rssi_overrides={(10, 0, Band.GHZ_2_4): -95.0,
                                 (10, 1, Band.GHZ_2_4): -60.0,
                                 (10, 2, Band.GHZ_2_4): -60.0,
                                 (1, 0, Band.GHZ_5): -65.0,
                                 (2, 0, Band.GHZ_5): -65.0})
    cl = rank_candidates(t, env, 10, LA)
    assert [e.target for e in cl.entries] == [1, 2]


def test_loading_a_channel_pushes_its_candidates_down():
    t, env = two_cell(n_sta=1, sta_rssi_ap=-60.0, sta_rssi_ext=-60.0)
    light = rank_candidates(t, env, 10, LA, loads={CH6: 0.0})
    heavy = rank_candidates(t, env, 10, LA, loads={CH6: 0.9})
    score = lambda cl, target: next(s.score for s in cl.details if s.target == target)
    assert score(heavy, 1) > score(light, 1)
    assert score(heavy, 0) == score(light, 0)


# --- argmax equivalences ----------------------------------------------------

def test_alpha_one_single_channel_top_pick_is_argmax_rssi():
    rng = np.random.default_rng(911)
    cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=1.0)
    for _ in range(50):
        nodes = [ap_node(), extender_node(1, (20.0, 0.0), CH1), sta_node(10)]
        t = Topology(nodes=make_node_map(nodes), backhaul_parent={1: 0})
        env = SimEnv(traffic=traffic(1e6, 1),
                     rssi_overrides={(10, 0, Band.GHZ_2_4): float(rng.uniform(-89, -40)),
                                     (10, 1, Band.GHZ_2_4): float(rng.uniform(-89, -40)),
                                     (1, 0, Band.GHZ_5): -65.0})
        la = rank_candidates(t, env, 10, cfg)
        assert la.entries[0].target == initial_association(t, env).associations[10]


# --- initial association ----------------------------------------------------

def test_initial_association_picks_strongest_signal():
    t, env = two_cell(n_sta=2, sta_rssi_ap=-70.0, sta_rssi_ext=-50.0)
    t1 = initial_association(t, env)
    assert t1.associations == {10: 1, 11: 1}


def test_initial_association_is_idempotent():
    t, env = two_cell(n_sta=3, sta_rssi_ap=-50.0, sta_rssi_ext=-70.0)
    t1 = initial_association(t, env)
    t2 = initial_association(t1, env)
    assert t2.associations == t1.associations


def test_initial_association_leaves_unreachable_stations_out():
    t, env = two_cell(n_sta=1, sta_rssi_ap=-95.0, sta_rssi_ext=-92.0)
    t1 = initial_association(t, env)
    assert t1.associations == {}


# --- reassociation pass -----------------------------------------------------

def test_empty_capable_set_changes_nothing():
    t, env = two_cell(n_sta=4, per_sta_bps=8e6, sta_rssi_ap=-50.0, sta_rssi_ext=-55.0)
    t1 = initial_association(t, env)
    t2, moves = reassociation_pass(t1, env, LA, capable=frozenset())
    assert moves == []
    assert t2.associations == t1.associations


def test_capable_filter_moves_only_listed_stations():
    t, env = two_cell(n_sta=6, per_sta_bps=8e6, sta_rssi_ap=-50.0, sta_rssi_ext=-55.0)
    t1 = initial_association(t, env)
    t2, moves = reassociation_pass(t1, env, LA, capable=frozenset({10, 11}))
    assert all(m.sta in {10, 11} for m in moves)
    for sta in (12, 13, 14, 15):
        assert t2.associations[sta] == t1.associations[sta]


def test_refreshed_loads_stop_the_herd():
    # all six stations start on the loaded root channel; with loads refreshed
    # after each move only three defect
    t, env = two_cell(n_sta=6, per_sta_bps=8e6, sta_rssi_ap=-50.0, sta_rssi_ext=-55.0)
    t1 = initial_association(t, env)
    assert t1.associations == {s: 0 for s in range(10, 16)}

    fresh, fresh_moves = reassociation_pass(t1, env, LA)
    assert fresh.associations == {10: 1, 11: 1, 12: 1, 13: 0, 14: 0, 15: 0}
    assert len(fresh_moves) == 3


def test_two_passes_equal_one_pass_applied_twice():
    t, env = two_cell(n_sta=6, per_sta_bps=8e6, sta_rssi_ap=-50.0, sta_rssi_ext=-55.0)
    t1 = initial_association(t, env)
    once, _ = reassociation_pass(t1, env, LA)
    twice, _ = reassociation_pass(once, env, LA)
    direct, _ = reassociation_pass(
        t1, env, SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.5, passes=2))
    assert direct.associations == twice.associations


def test_moves_record_old_and_new_parent():
    t, env = two_cell(n_sta=6, per_sta_bps=8e6, sta_rssi_ap=-50.0, sta_rssi_ext=-55.0)
    t1 = initial_association(t, env)
    t2, moves = reassociation_pass(t1, env, LA)
    for m in moves:
        assert m.old_parent == t1.associations[m.sta]
        assert m.new_parent == t2.associations[m.sta]
        assert m.old_parent != m.new_parent


# --- bench fixture reproduction ---------------------------------------------

def _bench_env(overrides, total_mbps, n_sta=5):
    return SimEnv(traffic=TrafficProfile(packet_length_bits=12000,
                                         per_sta_load_bps=total_mbps * 1e6 / n_sta,
                                         total_load_bps=total_mbps * 1e6),
                  rssi_overrides=overrides)


def test_bench_rssi_columns_reproduce_exactly():
    fix = bench_fixture()
    cases = [
        (("testbed1_only_ap_rssi", None), (1, 2, 3, 4, 5), False),
        (("testbed1_rssi", None), (1, 2, 3, 4, 5), True),
        (("testbed2_rssi", None), (1, 2, 3, 6, 7), True),
    ]
    for key, stas, with_ext in cases:
        t, ov = fixture_topology(stas=stas, with_extender=with_ext)
        t1 = initial_association(t, _bench_env(ov, 5.0))
        assert dict(sorted(t1.associations.items())) == fix.expected_associations[key]


def test_bench_load_aware_lightest_load_column_reproduces_exactly():
    fix = bench_fixture()
    t, ov = fixture_topology(stas=(1, 2, 3, 6, 7), with_extender=True)
    env = _bench_env(ov, 5.0)
    cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.5,
                          include_self_load=False)
    t2, _ = reassociation_pass(initial_association(t, env), env, cfg)
    assert dict(sorted(t2.associations.items())) == \
        fix.expected_associations[("testbed2_load_aware", 5.0)]


def test_bench_load_aware_always_uses_the_extender():
    for b_t in (5.0, 37.5, 50.0, 75.0, 100.0):
        t, ov = fixture_topology(stas=(1, 2, 3, 6, 7), with_extender=True)
        env = _bench_env(ov, b_t)
        for include_self in (False, True):
            cfg = SelectionConfig(mechanism=Mechanism.LOAD_AWARE, alpha=0.5,
                                  include_self_load=include_self)
            t2, _ = reassociation_pass(initial_association(t, env), env, cfg)
            on_extender = sum(1 for p in t2.associations.values() if p == 1)
            assert on_extender >= 1
