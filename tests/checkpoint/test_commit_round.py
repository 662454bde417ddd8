"""Property test: ``CheckpointManager.commit_round`` is observably
identical to every rank calling its own library's ``write_checkpoint``.

For a random scenario — rank count, payload shapes, nominal sizes,
mid-round process/node kills, pre-filled (QUEUE_FULL) mirror queues and a
partitioned neighbor link — the single-coordinator round must reproduce
the per-rank writes bit-for-bit in every observable: node store contents
(keys, blob bytes, nominal sizes), and the virtual fire time and value of
every mirrored event.  Event *names* are the only
documented non-observable.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointLib, CheckpointManager
from repro.cluster import FaultPlan
from repro.gaspi import run_gaspi
from repro.sim import Event, Sleep

NOMINALS = [None, 1 << 18, 1 << 20]
DRAIN_S = 60.0  # past every mirror timeout horizon


def _payload(rank, rnd, sizes):
    size = sizes[rank % len(sizes)]
    return {
        "x": np.arange(size, dtype=np.float64) + rank * 1000.0 + rnd,
        "it": np.int64(rnd),
    }


def _prefill(lib):
    queue = lib._copy_queue_obj
    for _ in range(queue.depth):
        queue.post(Event(name="prefill"))


def _snapshot_stores(machine, n_nodes):
    out = {}
    for node_id in range(n_nodes):
        node = machine.node(node_id)
        out[node_id] = sorted(
            (key, bytes(blob.data), blob.nominal_bytes)
            for key, blob in node.local_store.items()
        )
    return out


def _build_plan(kills):
    plan = FaultPlan()
    for t, victim, node_kill in kills:
        if node_kill:
            plan.kill_node(t, victim)
        else:
            plan.kill_process(t, victim)
    return plan


def _apply_faults(ctx, n_ranks, partitions, qfull_ranks, libs):
    if ctx.rank == 0:
        network = ctx.world.machine.network
        for p in partitions:
            network.break_link(p, (p + 1) % n_ranks)
    for r in qfull_ranks:
        if r in libs:
            _prefill(libs[r])


def run_per_rank(n_ranks, sizes, n_rounds, nominal, kills, partitions,
                 qfull_ranks):
    """Every rank drives its own ``write_checkpoint``."""
    fires = {}

    def main(ctx):
        r = ctx.rank
        lib = CheckpointLib(ctx, logical_rank=r,
                            participants=range(n_ranks))
        _apply_faults(ctx, n_ranks, partitions, qfull_ranks, {r: lib})
        sim = ctx.world.sim
        for k in range(n_rounds):
            yield Sleep((k + 1.0) - ctx.now)
            mirrored = yield from lib.write_checkpoint(
                k, _payload(r, k, sizes), nominal_bytes=nominal)
            mirrored.add_callback(
                lambda ev, r=r, k=k:
                fires.setdefault((r, k), (sim.now, ev.value)))
        yield Sleep(DRAIN_S)

    run = run_gaspi(main, n_ranks=n_ranks, fault_plan=_build_plan(kills))
    return fires, _snapshot_stores(run.machine, n_ranks)


def run_commit_round(n_ranks, sizes, n_rounds, nominal, kills,
                     partitions, qfull_ranks):
    """One coordinator drives whole rounds through ``commit_round``."""
    fires = {}

    def main(ctx):
        if ctx.rank != 0:
            return
        libs = {
            r: CheckpointLib(ctx.world.contexts[r], r, range(n_ranks))
            for r in range(n_ranks)
        }
        _apply_faults(ctx, n_ranks, partitions, qfull_ranks, libs)
        manager = CheckpointManager.of(ctx.world)
        sim = ctx.world.sim
        for k in range(n_rounds):
            yield Sleep((k + 1.0) - ctx.now)
            payloads = {r: _payload(r, k, sizes) for r in range(n_ranks)}
            mirrors = yield from manager.commit_round(
                libs, k, payloads, nominal_bytes=nominal)
            for r, ev in mirrors.items():
                ev.add_callback(
                    lambda fired_ev, r=r, k=k:
                    fires.setdefault((r, k), (sim.now, fired_ev.value)))
        yield Sleep(DRAIN_S)

    run = run_gaspi(main, n_ranks=n_ranks, fault_plan=_build_plan(kills))
    return fires, _snapshot_stores(run.machine, n_ranks)


def assert_equivalent(n_ranks, sizes, n_rounds, nominal, kills,
                      partitions, qfull_ranks):
    per_rank = run_per_rank(n_ranks, sizes, n_rounds, nominal, kills,
                            partitions, qfull_ranks)
    batched = run_commit_round(n_ranks, sizes, n_rounds, nominal,
                               kills, partitions, qfull_ranks)
    assert batched[0] == per_rank[0], "mirror fire times/values diverged"
    assert batched[1] == per_rank[1], "node store contents diverged"


@st.composite
def scenarios(draw):
    n_ranks = draw(st.sampled_from([16, 24, 32, 64, 128]))
    sizes = draw(st.lists(st.integers(1, 24), min_size=1, max_size=4))
    n_rounds = draw(st.integers(1, 3))
    nominal = draw(st.sampled_from(NOMINALS))
    kills = draw(st.lists(
        st.tuples(
            st.floats(0.9, 1.0 + n_rounds),  # spans local write + mirrors
            st.integers(1, n_ranks - 1),     # never the coordinator
            st.booleans(),                   # node kill wipes the store too
        ),
        max_size=2, unique_by=lambda k: k[1],
    ))
    partitions = draw(st.lists(st.integers(1, n_ranks - 2),
                               max_size=1, unique=True))
    qfull_ranks = draw(st.lists(st.integers(0, n_ranks - 1),
                                max_size=2, unique=True))
    return (n_ranks, sizes, n_rounds, nominal, kills,
            tuple(partitions), tuple(qfull_ranks))


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_commit_round_equals_sequential_commit(scenario):
    assert_equivalent(*scenario)


def test_commit_round_equals_sequential_commit_at_512_ranks():
    """The ladder's upper property rung: one deterministic 512-rank round
    mix with a mid-round node kill, a partitioned neighbor link and one
    QUEUE_FULL library."""
    assert_equivalent(
        512, [8, 3], 2, 1 << 20,
        kills=[(1.00005, 17, True)],
        partitions=(100,),
        qfull_ranks=(7,),
    )
