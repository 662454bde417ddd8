"""Tests for the network model: the α–β fabric and link/partition state."""

import numpy as np
import pytest

from repro.cluster import Network
from repro.cluster.network import (
    BANDWIDTH,
    LATENCY,
    LOOPBACK_BANDWIDTH,
    LOOPBACK_LATENCY,
    PER_MESSAGE_OVERHEAD,
)


def test_transfer_time_alpha_beta():
    net = Network()
    assert net.transfer_time(0, 1, 10**9) == pytest.approx(
        PER_MESSAGE_OVERHEAD + LATENCY + 10**9 / BANDWIDTH)
    assert net.transfer_time(2, 2, 10**9) == pytest.approx(
        PER_MESSAGE_OVERHEAD + LOOPBACK_LATENCY + 10**9 / LOOPBACK_BANDWIDTH)


def test_transfer_time_includes_overhead():
    net = Network()
    assert net.transfer_time(0, 1, 0) == pytest.approx(
        PER_MESSAGE_OVERHEAD + LATENCY)


def test_transfer_time_is_symmetric():
    net = Network()
    assert net.transfer_time(0, 5, 4096) == net.transfer_time(5, 0, 4096)


def test_loopback_cheaper():
    net = Network()
    for nbytes in (0, 64, 10**6):
        assert net.transfer_time(3, 3, nbytes) < net.transfer_time(3, 4, nbytes)


def test_round_matches_scalar_for_shared_source():
    net = Network()
    nodes = np.array([0, 3, 1, 3, 7, 2])
    for nbytes in (0, 64, 7_421_875):
        round_ = net.transfer_time_round(3, nodes, nbytes)
        assert [float(t) for t in round_] == [
            net.transfer_time(3, int(b), nbytes) for b in nodes]


def test_round_matches_scalar_for_paired_sources():
    net = Network()
    srcs = np.array([0, 1, 2, 3, 4, 5])
    dsts = np.array([1, 1, 3, 0, 4, 2])
    sizes = np.array([0, 64, 4096, 1_000_003, 7, 2**31])
    round_ = net.transfer_time_round(srcs, dsts, sizes)
    assert [float(t) for t in round_] == [
        net.transfer_time(int(a), int(b), int(n))
        for a, b, n in zip(srcs, dsts, sizes)]


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
