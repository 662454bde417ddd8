"""Tests for topologies and the dynamic network model."""

import pytest

from repro.cluster import Network, NetworkParams, TwoLevelTopology, UniformTopology


def test_uniform_topology_symmetric():
    topo = UniformTopology(latency=2e-6, bandwidth=1e9)
    assert topo.latency(0, 5) == topo.latency(5, 0) == 2e-6
    assert topo.bandwidth(1, 2) == 1e9


def test_uniform_loopback_cheaper():
    topo = UniformTopology()
    assert topo.latency(3, 3) < topo.latency(3, 4)
    assert topo.bandwidth(3, 3) > topo.bandwidth(3, 4)


def test_two_level_same_switch_cheaper():
    topo = TwoLevelTopology(nodes_per_switch=4)
    same = topo.latency(0, 3)   # both under switch 0
    cross = topo.latency(0, 4)  # switch 0 vs switch 1
    assert same < cross
    assert topo.switch_of(3) == 0
    assert topo.switch_of(4) == 1


def test_two_level_rejects_bad_switch_size():
    with pytest.raises(ValueError):
        TwoLevelTopology(nodes_per_switch=0)


def test_transfer_time_alpha_beta():
    net = Network(UniformTopology(latency=1e-6, bandwidth=1e9),
                  NetworkParams(per_message_overhead=0.0))
    t_small = net.transfer_time(0, 1, 0)
    t_big = net.transfer_time(0, 1, 10**9)
    assert t_small == pytest.approx(1e-6)
    assert t_big == pytest.approx(1.0 + 1e-6)


def test_transfer_time_includes_overhead():
    net = Network(UniformTopology(latency=1e-6, bandwidth=1e9),
                  NetworkParams(per_message_overhead=5e-6))
    assert net.transfer_time(0, 1, 0) == pytest.approx(6e-6)


def test_break_and_heal_link():
    net = Network()
    assert net.reachable(0, 1)
    net.break_link(0, 1)
    assert not net.reachable(0, 1)
    assert not net.reachable(1, 0)  # bidirectional
    assert net.reachable(0, 2)     # other paths unaffected
    net.heal_link(1, 0)            # order-insensitive key
    assert net.reachable(0, 1)


def test_isolate_node_cuts_all_links():
    net = Network()
    net.isolate_node(2)
    assert not net.reachable(2, 0)
    assert not net.reachable(5, 2)
    assert net.reachable(0, 1)
    net.rejoin_node(2)
    assert net.reachable(2, 0)


def test_loopback_always_reachable():
    net = Network()
    net.isolate_node(4)
    assert net.reachable(4, 4)
