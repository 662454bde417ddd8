"""Tests for node-local stores, the PFS model and neighbor selection."""

import pytest

from repro.sim import Simulator
from repro.cluster.node import Node
from repro.checkpoint import (
    CheckpointNotFound,
    NodeLocalStore,
    ParallelFileSystem,
    StoredBlob,
    neighbor_map,
    neighbor_of,
)


def blob(data=b"x", nominal=None):
    return StoredBlob(data=data, nominal_bytes=nominal or len(data))


#: a version budget none of the store tests reaches
KEEP = 10


class TestNodeLocalStore:
    def test_put_get_roundtrip(self):
        store = NodeLocalStore(Node(0))
        store.put_pruned(("t", 1, 0), blob(b"abc"), KEEP)
        assert store.get(("t", 1, 0)).data == b"abc"
        assert store.has(("t", 1, 0))

    def test_missing_key_raises(self):
        store = NodeLocalStore(Node(0))
        with pytest.raises(CheckpointNotFound):
            store.get(("t", 1, 0))

    def test_dead_node_loses_everything(self):
        node = Node(0)
        store = NodeLocalStore(node)
        store.put_pruned(("t", 1, 0), blob(), KEEP)
        node.wipe()
        assert not store.available
        assert not store.has(("t", 1, 0))
        with pytest.raises(CheckpointNotFound):
            store.get(("t", 1, 0))
        with pytest.raises(CheckpointNotFound):
            store.put_pruned(("t", 1, 1), blob(), KEEP)
        assert store.versions("t", 1) == []

    def test_versions_sorted_and_latest(self):
        store = NodeLocalStore(Node(0))
        for v in (3, 1, 2):
            store.put_pruned(("t", 7, v), blob(), KEEP)
        assert store.versions("t", 7) == [1, 2, 3]
        assert store.latest_version("t", 7) == 3
        assert store.latest_version("t", 8) is None

    def test_versions_isolated_by_tag_and_rank(self):
        store = NodeLocalStore(Node(0))
        store.put_pruned(("a", 1, 0), blob(), KEEP)
        store.put_pruned(("b", 1, 5), blob(), KEEP)
        store.put_pruned(("a", 2, 9), blob(), KEEP)
        assert store.versions("a", 1) == [0]

    def test_used_bytes_uses_nominal(self):
        store = NodeLocalStore(Node(0))
        store.put_pruned(("t", 1, 0), blob(b"xy", nominal=1000), KEEP)
        assert store.used_bytes() == 1000


class TestParallelFileSystem:
    def run_gen(self, sim, gen):
        proc = sim.spawn(gen)
        sim.run()
        return proc.result

    def test_write_read_roundtrip_with_cost(self):
        sim = Simulator()
        pfs = ParallelFileSystem(sim, aggregate_bandwidth=1e9, latency=0.0)

        def writer():
            yield from pfs.write(("t", 0, 0), blob(b"d", nominal=10**9))
            t_write = sim.now
            got = yield from pfs.read(("t", 0, 0))
            return (t_write, sim.now - t_write, got.data)

        t_write, t_read, data = self.run_gen(sim, writer())
        assert t_write == pytest.approx(1.0)
        assert t_read == pytest.approx(1.0)
        assert data == b"d"

    def test_contention_halves_bandwidth(self):
        sim = Simulator()
        pfs = ParallelFileSystem(sim, aggregate_bandwidth=1e9, latency=0.0)
        finish = {}

        def writer(i):
            yield from pfs.write(("t", i, 0), blob(nominal=10**9))
            finish[i] = sim.now

        sim.spawn(writer(0))
        sim.spawn(writer(1))
        sim.run()
        # both start together; each sees half the aggregate bandwidth
        assert finish[0] == pytest.approx(2.0)
        assert finish[1] == pytest.approx(2.0)

    def test_missing_read_raises(self):
        sim = Simulator()
        pfs = ParallelFileSystem(sim)

        def reader():
            yield from pfs.read(("t", 0, 0))

        sim.spawn(reader())
        with pytest.raises(CheckpointNotFound):
            sim.run()

    def test_latest_version(self):
        sim = Simulator()
        pfs = ParallelFileSystem(sim, latency=0.0)

        def writer():
            for v in (0, 2, 1):
                yield from pfs.write(("t", 3, v), blob())

        sim.spawn(writer())
        sim.run()
        assert pfs.latest_version("t", 3) == 2
        assert pfs.latest_version("t", 4) is None
        assert len(pfs) == 3


class TestNeighborSelection:
    def test_simple_ring_one_rank_per_node(self):
        node_of = lambda r: r
        participants = [0, 1, 2, 3]
        assert neighbor_of(0, participants, node_of) == 1
        assert neighbor_of(3, participants, node_of) == 0

    def test_skips_ranks_on_same_node(self):
        node_of = lambda r: r // 2  # ranks (0,1) on node 0, (2,3) on node 1
        assert neighbor_of(0, [0, 1, 2, 3], node_of) == 2
        assert neighbor_of(3, [0, 1, 2, 3], node_of) == 0

    def test_no_other_node_returns_none(self):
        node_of = lambda r: 0
        assert neighbor_of(0, [0, 1], node_of) is None

    def test_non_participant_rejected(self):
        with pytest.raises(ValueError):
            neighbor_of(9, [0, 1], lambda r: r)

    def test_map_covers_all_participants(self):
        node_of = lambda r: r
        m = neighbor_map([0, 2, 5], node_of)
        assert m == {0: 2, 2: 5, 5: 0}

    def test_refreshed_ring_after_failure(self):
        node_of = lambda r: r
        before = neighbor_of(1, [0, 1, 2, 3], node_of)
        after = neighbor_of(1, [0, 1, 3], node_of)  # rank 2 failed
        assert before == 2
        assert after == 3
