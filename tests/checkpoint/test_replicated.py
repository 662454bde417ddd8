"""The ReStore-style replicated backend: placement properties and the
r-1 concurrent-loss tolerance proof.

Placement (``replica_holder_map``) is property-tested against the scalar
oracle and its documented invariants (no replica on the owner's or the
mirror neighbor's node, pairwise-distinct holder nodes, balanced load);
the round-trip suite commits through the real scatter plane, kills k
holders plus the owner, and proves byte-identical recovery for every
k < r — and detect-and-report (``CheckpointNotFound``) at k = r.
See ``CHECKPOINTS.md`` for the placement rule and the tolerance proof.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointNotFound,
    ReplicatedCheckpointLib,
    make_checkpoint_lib,
    replica_holder_map,
)
from repro.cluster import FaultPlan
from repro.gaspi import run_gaspi
from repro.sim import Sleep, WaitEvent


def replica_holders(rank, participants, node_of, r):
    """The ``r`` replica holders of ``rank`` (scalar placement oracle).

    Walks the sorted participant ring forward from ``rank``, excluding
    the rank's own node and its mirror neighbor's node, and collects the
    first ``r`` ranks on pairwise-distinct nodes.  Returns fewer than
    ``r`` holders (possibly none) when the cluster layout cannot supply
    them — e.g. every participant shares two nodes.
    """
    ring = sorted(participants)
    n = len(ring)
    my_node = node_of(rank)
    idx = ring.index(rank)
    mirror_node = next((node_of(ring[(idx + step) % n])
                        for step in range(1, n)
                        if node_of(ring[(idx + step) % n]) != my_node), -1)
    excluded = {my_node, mirror_node}
    holders = []
    for step in range(1, n):
        if len(holders) == r:
            break
        candidate = ring[(idx + step) % n]
        if node_of(candidate) not in excluded:
            holders.append(candidate)
            excluded.add(node_of(candidate))
    return holders


# ----------------------------------------------------------------------
# placement properties
# ----------------------------------------------------------------------
participants_strategy = st.lists(
    st.integers(min_value=0, max_value=200),
    min_size=3, max_size=48, unique=True,
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(participants=participants_strategy,
       r=st.integers(min_value=1, max_value=4),
       ranks_per_node=st.integers(min_value=1, max_value=3))
def test_placement_invariants_and_kernel_identity(participants, r,
                                                  ranks_per_node):
    def node_of(rank):
        return rank // ranks_per_node

    ring = sorted(participants)
    n = len(ring)
    holder_map = replica_holder_map(participants, node_of, r)
    assert sorted(holder_map) == ring
    for idx, rank in enumerate(ring):
        holders = holder_map[rank]
        # the placement kernel must agree with the scalar oracle
        assert holders == replica_holders(rank, participants,
                                          node_of, r)
        assert len(holders) <= r
        assert rank not in holders
        # never on the owner's node
        assert all(node_of(h) != node_of(rank) for h in holders)
        # never on the mirror neighbor's node (the first forward
        # participant on a different node)
        mirror_node = next(
            (node_of(ring[(idx + s) % n]) for s in range(1, n)
             if node_of(ring[(idx + s) % n]) != node_of(rank)), -1)
        assert all(node_of(h) != mirror_node for h in holders)
        # pairwise-distinct holder nodes
        nodes = [node_of(h) for h in holders]
        assert len(set(nodes)) == len(nodes)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(min_value=4, max_value=64),
       r=st.integers(min_value=1, max_value=4))
def test_distinct_node_rings_are_full_and_balanced(n, r):
    """One rank per node and n >= r + 2: every rank gets exactly r
    holders and holds exactly r foreign blobs (the fast-path regime)."""
    if n < r + 2:
        r = n - 2
    holder_map = replica_holder_map(range(n), lambda x: x, r)
    load = {rank: 0 for rank in range(n)}
    for rank, holders in holder_map.items():
        assert len(holders) == r
        for h in holders:
            load[h] += 1
    assert set(load.values()) == {r}


# ----------------------------------------------------------------------
# round-trip: commit -> lose k holders (and the owner) -> recover
# ----------------------------------------------------------------------
N_RANKS = 10
R = 3


def _lose_and_recover(k):
    """Commit rank 0's checkpoint with r=3, kill k holders plus the
    owner at t=20, then have rank 9 (the rescue) restore logical 0."""
    payload = {"v": np.arange(32.0), "it": np.int64(7)}
    cfg = CheckpointConfig(backend="replicated", replication=R)
    holders = replica_holders(0, list(range(N_RANKS)), lambda x: x, R)
    assert len(holders) == R
    victims = holders[:k] + [0]
    survivors = [r for r in range(N_RANKS) if r not in victims]
    out = {}

    def main(ctx):
        if ctx.rank == 0:
            lib = ReplicatedCheckpointLib(ctx, 0, range(N_RANKS),
                                          config=cfg)
            protected = yield from lib.write_checkpoint(0, payload)
            ok, landed = yield WaitEvent(protected, 10.0)
            out["landed"] = (ok, landed)
            yield Sleep(100.0)  # stays up until killed at t=20
            return None
        if ctx.rank == N_RANKS - 1:
            yield Sleep(30.0)  # after the kills
            lib = ReplicatedCheckpointLib(ctx, 0, survivors, config=cfg)
            try:
                version, restored = yield from lib.read_checkpoint()
            except CheckpointNotFound:
                # the version is no longer offered; an explicit read of
                # it yields the detailed detect-and-report diagnostic
                latest = lib.restorable_latest()
                try:
                    yield from lib.read_checkpoint(0)
                except CheckpointNotFound as exc:
                    return ("not-found", str(exc), latest)
                raise
            return (version, restored["v"].tobytes(), int(restored["it"]),
                    lib.stats["replica_reads"])
        yield Sleep(40.0)
        return None

    plan = FaultPlan()
    for victim in victims:
        plan.kill_process(20.0, victim)
    run = run_gaspi(main, n_ranks=N_RANKS, fault_plan=plan)
    assert out["landed"] == (True, R)
    return run.result(N_RANKS - 1)


@pytest.mark.parametrize("k", range(R))
def test_recovers_byte_identical_after_k_losses(k):
    """Any k < r concurrent rank losses (plus the owner's own death,
    which removes no replica) leave the state recoverable, bit-for-bit."""
    result = _lose_and_recover(k)
    version, v_bytes, it, reads = result
    assert version == 0
    assert v_bytes == np.arange(32.0).tobytes()
    assert it == 7
    assert reads == 1


def test_detects_and_reports_when_losses_exceed_tolerance():
    """k = r losses: the version stops being offered and the read names
    the dead holders instead of hanging or restoring garbage."""
    marker, message, latest = _lose_and_recover(R)
    assert marker == "not-found"
    assert "exceeded the r-1 tolerance" in message
    assert latest == -1


def test_owner_death_alone_loses_nothing():
    # k=0 already covers it, but state the property explicitly: the
    # owner holds no replica of its own blob
    holders = replica_holders(0, list(range(N_RANKS)), lambda x: x, R)
    assert 0 not in holders


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------
def test_factory_dispatch_and_unknown_backend():
    def main(ctx):
        cfg = CheckpointConfig(backend="replicated")
        lib = make_checkpoint_lib(ctx, ctx.rank, [0, 1], config=cfg)
        assert isinstance(lib, ReplicatedCheckpointLib)
        with pytest.raises(ValueError, match="unknown checkpoint backend"):
            make_checkpoint_lib(ctx, ctx.rank, [0, 1],
                                config=CheckpointConfig(backend="nfs"))
        return None
        yield  # pragma: no cover - makes main a generator

    run_gaspi(main, n_ranks=2)


def test_severed_holder_times_out_and_releases_the_fifo():
    """A copy whose path to its holder is cut hangs until the flush
    timeout purges the owner's queue: the scatter fires with the landed
    count, the copy counts as failed, and the next queued write starts
    only then (and hangs the same way)."""
    cfg = CheckpointConfig(backend="replicated", replication=R)

    def main(ctx):
        # every rank holds a library, so every holder has a landing window
        lib = ReplicatedCheckpointLib(ctx, ctx.rank, range(8), config=cfg)
        if ctx.rank != 0:
            yield Sleep(10.0)
            return None
        machine = ctx.world.machine
        machine.network.break_link(
            lib.my_node, machine.node_of(lib.replica_ranks[0]))
        first = yield from lib.write_checkpoint(0, {"x": np.ones(4)})
        second = yield from lib.write_checkpoint(1, {"x": np.ones(4)})
        fires = []
        for ev in (first, second):
            ok, landed = yield WaitEvent(ev, 10.0)
            fires.append((ok, landed, ctx.now))
        return fires, lib.stats["failed_copies"]

    run = run_gaspi(main, n_ranks=8)
    (ok0, landed0, t0), (ok1, landed1, t1) = run.result(0)[0]
    assert (ok0, landed0, ok1, landed1) == (True, R - 1, True, R - 1)
    assert t0 == pytest.approx(1.0, abs=0.01)
    assert t1 == pytest.approx(2.0, abs=0.02)
    assert run.result(0)[1] == 2
