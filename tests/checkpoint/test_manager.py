"""Integration tests for CheckpointLib on the simulated cluster."""

import numpy as np
import pytest

from repro.cluster import FaultPlan
from repro.checkpoint import (
    CheckpointConfig,
    CheckpointLib,
    CheckpointManager,
    CheckpointNotFound,
    NodeLocalStore,
    make_checkpoint_lib,
)
from repro.checkpoint.manager import LOCAL_BANDWIDTH
from repro.gaspi import run_gaspi
from repro.obs.tracer import Tracer
from repro.sim import Simulator, Sleep, WaitEvent


def test_write_then_local_restore():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=[0, 1])
        payload = {"v": np.arange(4.0) + ctx.rank, "it": ctx.rank * 10}
        mirrored = yield from lib.write_checkpoint(0, payload)
        yield WaitEvent(mirrored, 10.0)
        version, out = yield from lib.read_checkpoint()
        return (version, list(out["v"]), int(out["it"]))

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == (0, [0.0, 1.0, 2.0, 3.0], 0)
    assert run.result(1) == (0, [1.0, 2.0, 3.0, 4.0], 10)


def test_neighbor_copy_lands_on_other_node():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=[0, 1, 2])
        mirrored = yield from lib.write_checkpoint(0, {"x": np.ones(8)})
        ok, copied = yield WaitEvent(mirrored, 10.0)
        return (ok, copied, lib.holders)

    run = run_gaspi(main, n_ranks=3)
    for r in range(3):
        ok, copied, holders = run.result(r)
        # one holder: the next rank, on its own node, and the copy landed
        assert (ok, copied) == (True, 1)
        assert holders == [((r + 1) % 3, (r + 1) % 3)]
    # each node now holds its own blob and its predecessor's
    m = run.machine
    for node_id in range(3):
        from repro.checkpoint import NodeLocalStore
        store = NodeLocalStore(m.node(node_id))
        held = {k[2] for k in m.node(node_id).local_store}
        assert held == {node_id, (node_id - 1) % 3}


def test_restore_from_neighbor_after_node_loss():
    """Rescue on a fresh node restores a failed rank's data from its neighbor."""

    def main(ctx):
        if ctx.rank == 1:
            lib = CheckpointLib(ctx, logical_rank=1, participants=[0, 1, 2])
            mirrored = yield from lib.write_checkpoint(0, {"x": np.full(4, 7.0)})
            yield WaitEvent(mirrored, 10.0)
            yield Sleep(100.0)  # stays up until killed at t=20
            return None
        if ctx.rank == 3:  # the rescue: adopts logical rank 1 after failure
            yield Sleep(30.0)
            lib = CheckpointLib(ctx, logical_rank=1, participants=[0, 2, 3])
            # recorded nodes: the failed rank's (1, dead) and its mirror's (2)
            version, out = yield from lib.read_checkpoint()
            totals = CheckpointManager.of(ctx.world).phase_totals
            return (version, float(out["x"][0]),
                    totals["restore_neighbor_ops"])
        yield Sleep(40.0)
        return None

    plan = FaultPlan().kill_node(20.0, 1)
    run = run_gaspi(main, n_ranks=4, fault_plan=plan)
    assert run.result(3) == (0, 7.0, 1)


def test_restore_prefers_local_after_process_only_failure():
    """If only the process died, its node store still has the local copy."""

    def main(ctx):
        if ctx.rank == 0:
            # a lone participant: no mirror, node 0 holds the only copy
            lib = CheckpointLib(ctx, logical_rank=0, participants=[0])
            yield from lib.write_checkpoint(0, {"x": np.arange(3.0)})
            yield Sleep(100.0)
            return None
        # rank 1 adopts logical rank 0 after the process-only failure and
        # reads the failed process's store on node 0
        yield Sleep(10.0)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[1])
        version, out = yield from lib.read_checkpoint()
        totals = CheckpointManager.of(ctx.world).phase_totals
        return (version, list(out["x"]), totals["restore_neighbor_ops"])

    plan = FaultPlan().kill_process(5.0, 0)
    run = run_gaspi(main, n_ranks=2, fault_plan=plan)
    assert run.result(1) == (0, [0.0, 1.0, 2.0], 1)


def test_version_pruning_keeps_last_k():
    def main(ctx):
        cfg = CheckpointConfig(keep_versions=2)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0, 1], config=cfg)
        if ctx.rank == 0:
            last = None
            for v in range(5):
                last = yield from lib.write_checkpoint(v, {"x": np.array([v])})
            yield WaitEvent(last, 10.0)
            from repro.checkpoint import NodeLocalStore
            store = NodeLocalStore(ctx.world.machine.node(0))
            versions = store.versions("ckpt", 0)
            return versions
        if False:
            yield

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == [3, 4]


def test_restorable_latest_reports_minus_one_when_empty():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0])
        latest = lib.restorable_latest()
        if False:
            yield
        return latest

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == -1


def test_read_missing_version_raises():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0])
        try:
            yield from lib.read_checkpoint(version=9)
        except CheckpointNotFound:
            return "not-found"

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == "not-found"


def test_refresh_changes_neighbor_after_failure():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=[0, 1, 2, 3])
        before = lib.holders
        lib.refresh([0, 2, 3])  # rank 1 failed and left the ring
        after = lib.holders
        if False:
            yield
        return (before, after)

    run = run_gaspi(main, n_ranks=4)
    assert run.result(0) == ([(1, 1)], [(2, 2)])


def test_checkpoint_write_cost_scales_with_nominal_bytes():
    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0])
        t0 = ctx.now
        yield from lib.write_checkpoint(0, {"x": np.zeros(2)}, nominal_bytes=10**9)
        return ctx.now - t0

    run = run_gaspi(main, n_ranks=1)
    assert run.result(0) == pytest.approx(10**9 / LOCAL_BANDWIDTH, rel=0.01)


def test_old_versions_stay_intact_after_later_writes():
    """Stored blobs are immutable snapshots: later writes of the same
    rank, of equal or larger size, leave every earlier version as it was
    written."""

    def main(ctx):
        cfg = CheckpointConfig(keep_versions=4)
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0], config=cfg)
        yield from lib.write_checkpoint(0, {"x": np.full(64, 1.0)})
        yield from lib.write_checkpoint(1, {"x": np.full(64, 2.0)})
        yield from lib.write_checkpoint(2, {"x": np.full(128, 3.0)})
        restored = []
        for version in range(3):
            _, payload = yield from lib.read_checkpoint(version=version)
            restored.append(payload["x"])
        return restored

    v0, v1, v2 = run_gaspi(main, n_ranks=1).result(0)
    np.testing.assert_array_equal(v0, np.full(64, 1.0))
    np.testing.assert_array_equal(v1, np.full(64, 2.0))
    np.testing.assert_array_equal(v2, np.full(128, 3.0))


def test_reprotect_lands_on_new_neighbor_outside_mirror_totals():
    """A remote restore re-mirrors the blob to the rescue's new neighbor;
    the re-mirror is traced like any mirror, but it is not a checkpoint
    mirror, so the phase totals keep counting only the original write."""
    key = ("ckpt", 1, 0)
    sim = Simulator()
    sim.tracer = tracer = Tracer()

    def main(ctx):
        if ctx.rank == 1:
            lib = CheckpointLib(ctx, logical_rank=1, participants=[0, 1, 2])
            mirrored = yield from lib.write_checkpoint(0, {"x": np.full(4, 7.0)})
            yield WaitEvent(mirrored, 10.0)
            yield Sleep(100.0)  # stays up until its node dies at t=20
            return None
        if ctx.rank == 3:  # the rescue adopts logical rank 1
            yield Sleep(30.0)
            totals = CheckpointManager.of(ctx.world).phase_totals
            before = dict(totals)
            lib = CheckpointLib(ctx, logical_rank=1, participants=[0, 2, 3])
            version, _ = yield from lib.read_checkpoint()
            yield Sleep(1.0)  # the re-mirror completes in the background
            (neighbor, neighbor_node), = lib.holders
            new_neighbor_store = NodeLocalStore(
                ctx.world.machine.node(neighbor_node))
            return (version, neighbor, new_neighbor_store.has(key),
                    before, dict(totals))
        yield Sleep(40.0)
        return None

    plan = FaultPlan().kill_node(20.0, 1)
    run = run_gaspi(main, n_ranks=4, fault_plan=plan, sim=sim)
    version, neighbor, landed, before, after = run.result(3)
    assert (version, neighbor, landed) == (0, 0, True)
    mirrors = [(ev.rank, ev.fields["node"]) for ev in tracer.events()
               if ev.etype == "ckpt_mirror"]
    assert mirrors == [(1, 2), (3, 0)]
    assert before["mirror_ops"] == after["mirror_ops"] == 1
    assert before["mirror_bytes"] == after["mirror_bytes"]
    assert after["restore_neighbor_ops"] == 1


@pytest.mark.parametrize("source", ["local", "neighbor", "replicated", "pfs"])
def test_each_restore_is_counted_and_traced_once(source):
    """Every backend's restore ends in the manager's one epilogue: it adds
    1 to ``restore_ops`` and to ``restore_<source>_ops`` and emits one
    ``restore`` event with that ``source``."""
    backend = "neighbor" if source in ("local", "neighbor") else source
    cfg = CheckpointConfig(backend=backend)
    # rank 0 writes logical rank 0's blob; for a neighbor-sourced restore
    # rank 2 reads it from a node that stored it, else rank 0 reads it
    reader = 2 if source == "neighbor" else 0
    sim = Simulator()
    sim.tracer = tracer = Tracer()

    def main(ctx):
        logical = 0 if ctx.rank == reader else ctx.rank
        lib = make_checkpoint_lib(ctx, logical, range(4), cfg)
        if ctx.rank == 0:
            protected = yield from lib.write_checkpoint(0, {"x": np.arange(4.0)})
            yield WaitEvent(protected, 10.0)
        yield Sleep(20.0)
        if ctx.rank != reader:
            return None
        totals = CheckpointManager.of(ctx.world).phase_totals
        before = dict(totals)
        _, payload = yield from lib.read_checkpoint(reprotect=False)
        return before, dict(totals), list(payload["x"])

    run = run_gaspi(main, n_ranks=4, sim=sim)
    before, after, restored = run.result(reader)
    assert restored == [0.0, 1.0, 2.0, 3.0]
    ops = ["restore_ops"] + [f"restore_{s}_ops" for s in
                             ("local", "neighbor", "replicated", "pfs")]
    assert {key: after[key] - before[key] for key in ops} == {
        key: int(key in ("restore_ops", f"restore_{source}_ops"))
        for key in ops}
    restores = [ev for ev in tracer.events() if ev.etype == "restore"]
    assert [(ev.rank, ev.fields["source"]) for ev in restores] == [
        (reader, source)]


def _mirror_run(kill_at=None):
    """Rank 0 of two writes version 0 with a 10 GB nominal blob; returns
    the fire times of its ``mirrored`` event and the run."""
    sim = Simulator()
    fired = []

    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=[0, 1])
        if ctx.rank == 0:
            mirrored = yield from lib.write_checkpoint(
                0, {"x": np.ones(4)}, nominal_bytes=10**10)
            mirrored.add_callback(lambda ev: fired.append(sim.now))
        yield Sleep(10.0)

    plan = FaultPlan().kill_process(kill_at, 0) if kill_at else None
    run = run_gaspi(main, n_ranks=2, sim=sim, fault_plan=plan)
    return fired, run


def test_writer_killed_mid_mirror_takes_no_completion_actions():
    """A writer killed while its neighbor mirror is in flight takes no
    completion actions: ``mirrored`` never fires and the neighbor's store
    never gets the blob, while the writer's node keeps its local copy."""
    # the local write ends at 2.0 s and the undisturbed mirror lands at
    # 5.125 s, so a kill at 3.5625 s strikes halfway through the copy
    fired, _ = _mirror_run()
    assert fired == [pytest.approx(5.125, abs=1e-3)]
    fired, run = _mirror_run(kill_at=3.5625)
    key = ("ckpt", 0, 0)
    assert fired == []
    assert not NodeLocalStore(run.machine.node(1)).has(key)
    assert NodeLocalStore(run.machine.node(0)).has(key)


def test_severed_neighbor_times_out_and_releases_the_fifo():
    """A mirror whose path to the neighbor is cut hangs until the flush
    timeout purges the writer's queue: it fires with nothing landed, and
    the next queued write starts only then (and hangs the same way)."""

    def main(ctx):
        lib = CheckpointLib(ctx, logical_rank=ctx.rank, participants=range(8))
        if ctx.rank != 0:
            yield Sleep(10.0)
            return None
        ctx.world.machine.network.break_link(lib.my_node, lib.holders[0][1])
        first = yield from lib.write_checkpoint(0, {"x": np.ones(4)})
        second = yield from lib.write_checkpoint(1, {"x": np.ones(4)})
        fires = []
        for ev in (first, second):
            ok, copied = yield WaitEvent(ev, 10.0)
            fires.append((ok, copied, ctx.now))
        neighbor_store = CheckpointManager.of(ctx.world).store(
            lib.holders[0][1])
        return fires, [neighbor_store.has(("ckpt", 0, v)) for v in (0, 1)]

    run = run_gaspi(main, n_ranks=8)
    (ok0, copied0, t0), (ok1, copied1, t1) = run.result(0)[0]
    assert (ok0, copied0, ok1, copied1) == (True, 0, True, 0)
    assert t0 == pytest.approx(1.0, abs=0.01)
    assert t1 == pytest.approx(2.0, abs=0.02)
    assert run.result(0)[1] == [False, False]


def _lone_writer_mirror(severed):
    """Rank 0 of 2 mirrors one checkpoint to rank 1, which never builds a
    library.  Returns the outcome, the mirror's duration after the local
    write, and the latency and ack times of the copy."""

    def main(ctx):
        if ctx.rank != 0:
            yield Sleep(10.0)
            return None
        lib = CheckpointLib(ctx, logical_rank=0, participants=[0, 1])
        network = ctx.world.machine.network
        if severed:
            network.break_link(lib.my_node, lib.holders[0][1])
        mirrored = yield from lib.write_checkpoint(0, {"x": np.ones(4)})
        t_local = ctx.now
        ok, copied = yield WaitEvent(mirrored, 10.0)
        manager = CheckpointManager.of(ctx.world)
        blob = manager.store(0).get(("ckpt", 0, 0))
        latency = network.transfer_time(0, 1, blob.nominal_bytes)
        ack = network.transfer_time(1, 0, 64)
        return ((ok, copied, manager.store(1).has(("ckpt", 0, 0))),
                ctx.now - t_local, latency, ack)

    return run_gaspi(main, n_ranks=2).result(0)


def test_mirror_to_a_rank_without_a_library_is_posted():
    """A holder needs no library of its own: the mirror to it is posted
    like any other copy, so it lands at latency plus ack, and a severed
    path hangs it until the flush timeout, which fails the copy."""
    outcome, elapsed, latency, ack = _lone_writer_mirror(severed=False)
    assert outcome == (True, 1, True)
    assert elapsed == pytest.approx(latency + ack, rel=1e-9)
    outcome, elapsed, latency, _ = _lone_writer_mirror(severed=True)
    assert outcome == (True, 0, False)
    assert elapsed == pytest.approx(1.5 * latency + 1.0, rel=1e-9)


def test_restorable_latest_skips_unreachable_nodes():
    """``restorable_latest`` offers only what ``read_checkpoint`` can
    read: a mirror on a node this rank cannot reach does not count, so the
    allreduce-MIN never agrees on a version this rank would fail to read."""

    def main(ctx):
        if ctx.rank == 0:
            lib = CheckpointLib(ctx, logical_rank=0, participants=range(4))
            mirrored = yield from lib.write_checkpoint(0, {"x": np.ones(4)})
            yield WaitEvent(mirrored, 10.0)
            yield Sleep(100.0)  # stays up until its node dies at t=20
            return None
        if ctx.rank == 3:  # the rescue adopts logical rank 0
            yield Sleep(30.0)
            ctx.world.machine.network.break_link(3, 1)
            lib = CheckpointLib(ctx, logical_rank=0, participants=[1, 2, 3])
            # recorded nodes: 0 (dead) and its mirror's 1 (unreachable)
            latest = lib.restorable_latest()
            try:
                yield from lib.read_checkpoint()
            except CheckpointNotFound as exc:
                return latest, str(exc)
        yield Sleep(40.0)
        return None

    run = run_gaspi(main, n_ranks=4, fault_plan=FaultPlan().kill_node(20.0, 0))
    assert run.result(3) == (-1, "no checkpoint for logical rank 0")
