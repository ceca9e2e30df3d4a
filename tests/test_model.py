"""Topology container invariants, channel identity, backhaul tree walks."""
import pytest

from conftest import CH1, CH6, CH36, ap_node, extender_node, radio24, radio5, sta_node

from wlansteer.model import (
    Band,
    ChannelId,
    Node,
    NodeKind,
    Topology,
    backhaul_path,
    make_node_map,
    set_association,
    validate_topology,
)


def chain_topology():
    """AP <- E1 <- E2 with one STA on each serving node."""
    nodes = [
        ap_node(),
        extender_node(1, (20.0, 0.0), CH6),
        extender_node(2, (40.0, 0.0), ChannelId(Band.GHZ_2_4, 11)),
        sta_node(10, (1.0, 0.0)),
        sta_node(11, (21.0, 0.0)),
        sta_node(12, (41.0, 0.0)),
    ]
    return Topology(
        nodes=make_node_map(nodes),
        associations={10: 0, 11: 1, 12: 2},
        backhaul_parent={1: 0, 2: 1},
    )


# --- channel identity -------------------------------------------------------

def test_channel_equality_includes_band():
    # same number on different bands must never compare equal
    assert ChannelId(Band.GHZ_2_4, 36) != ChannelId(Band.GHZ_5, 36)
    assert ChannelId(Band.GHZ_5, 36) == ChannelId(Band.GHZ_5, 36)
    assert len({ChannelId(Band.GHZ_2_4, 36), ChannelId(Band.GHZ_5, 36)}) == 2


def test_channel_ordering_sorts_band_first():
    chans = [ChannelId(Band.GHZ_5, 36), ChannelId(Band.GHZ_2_4, 11), ChannelId(Band.GHZ_2_4, 1)]
    got = sorted(chans)
    assert got == [ChannelId(Band.GHZ_2_4, 1), ChannelId(Band.GHZ_2_4, 11), ChannelId(Band.GHZ_5, 36)]


# --- node radio roles -------------------------------------------------------

def test_ap_and_extender_radio_roles():
    ap = ap_node()
    assert ap.access_radio.band is Band.GHZ_2_4
    assert ap.access_radio.channel == CH1
    ext = extender_node(1, (5.0, 0.0))
    assert ext.access_radio.channel == CH6
    assert ext.backhaul_radio.band is Band.GHZ_5
    assert ext.backhaul_radio.channel == CH36


def test_station_has_no_backhaul_radio():
    s = sta_node(10)
    assert s.access_radio.band is Band.GHZ_2_4
    with pytest.raises(ValueError):
        s.backhaul_radio


def test_make_node_map_keys_by_id():
    nodes = [ap_node(), sta_node(10)]
    m = make_node_map(nodes)
    assert set(m) == {0, 10}
    assert m[10].kind is NodeKind.STA


# --- membership views -------------------------------------------------------

def test_membership_views_are_sorted_id_tuples():
    t = chain_topology()
    assert t.stations() == (10, 11, 12)
    assert t.extenders() == (1, 2)
    assert t.serving_nodes() == (0, 1, 2)


def test_membership_views_survive_reassociation():
    t = chain_topology()
    t2 = set_association(t, 12, 0)
    assert t2.stations() == t.stations()
    assert t2.serving_nodes() == t.serving_nodes()
    assert t2.associations[12] == 0
    # the original is untouched
    assert t.associations[12] == 2


def test_set_association_rejects_bad_kinds():
    t = chain_topology()
    with pytest.raises(ValueError):
        set_association(t, 1, 0)  # extender is not a station
    with pytest.raises(ValueError):
        set_association(t, 10, 11)  # stations cannot serve


# --- backhaul tree ----------------------------------------------------------

def test_backhaul_path_walks_to_the_root():
    t = chain_topology()
    assert backhaul_path(t, 0) == []
    assert backhaul_path(t, 1) == [(1, 0)]
    assert backhaul_path(t, 2) == [(2, 1), (1, 0)]


def test_backhaul_path_rejects_stations_and_orphans():
    t = chain_topology()
    with pytest.raises(ValueError):
        backhaul_path(t, 10)
    orphan = Topology(nodes=t.nodes, associations=t.associations,
                      backhaul_parent={1: 0})
    with pytest.raises(ValueError):
        backhaul_path(orphan, 2)


# --- whole-topology validation ----------------------------------------------

def test_validate_accepts_well_formed_chain():
    assert validate_topology(chain_topology()) == []


def test_validate_flags_missing_ap():
    t = chain_topology()
    nodes = dict(t.nodes)
    del nodes[0]
    broken = Topology(nodes=nodes, associations={11: 1},
                      backhaul_parent={2: 1})
    msgs = validate_topology(broken)
    assert any("node 0" in m for m in msgs)


def test_validate_flags_orphan_extender():
    t = chain_topology()
    broken = Topology(nodes=t.nodes, associations=t.associations,
                      backhaul_parent={1: 0})
    msgs = validate_topology(broken)
    assert any("missing backhaul parent" in m for m in msgs)


def test_validate_flags_association_to_station():
    t = chain_topology()
    broken = Topology(nodes=t.nodes, associations={10: 11},
                      backhaul_parent=t.backhaul_parent)
    msgs = validate_topology(broken)
    assert any("cannot serve" in m for m in msgs)


def test_validate_flags_chain_beyond_limit():
    nodes = [ap_node(),
             extender_node(1, (10.0, 0.0)),
             extender_node(2, (20.0, 0.0)),
             extender_node(3, (30.0, 0.0))]
    t = Topology(nodes=make_node_map(nodes), backhaul_parent={1: 0, 2: 1, 3: 2})
    msgs = validate_topology(t)
    assert any("exceeds limit 2" in m for m in msgs)


def test_validate_flags_backhaul_cycle():
    nodes = [ap_node(), extender_node(1, (10.0, 0.0)), extender_node(2, (20.0, 0.0))]
    t = Topology(nodes=make_node_map(nodes), backhaul_parent={1: 2, 2: 1})
    msgs = validate_topology(t)
    assert any("cycle" in m for m in msgs)


def test_validate_flags_a_dangling_grandparent():
    nodes = [ap_node(), extender_node(1, (10.0, 0.0)), extender_node(2, (20.0, 0.0))]
    t = Topology(nodes=make_node_map(nodes), backhaul_parent={2: 1, 1: 99})
    msgs = validate_topology(t)
    assert "backhaul 1->99: invalid parent 99" in msgs
    assert any(m.startswith("backhaul path from 2:") and "99" in m for m in msgs)
    assert len(msgs) == 2


def test_validate_flags_second_ap():
    second = Node(node_id=5, kind=NodeKind.AP, position=(9.0, 0.0),
                  radios=(radio24(), radio5()))
    t = Topology(nodes=make_node_map([ap_node(), second]))
    msgs = validate_topology(t)
    assert any("only node 0" in m for m in msgs)
