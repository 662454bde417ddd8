"""Flyweight world construction: cost regression.

The flyweight build path (interned group memberships, arena-pooled
segments, lazy queue tables and notification boards, template-COW
control blocks) must keep world construction O(world), never O(ranks),
in allocations.  Its observable behaviour is pinned by the golden
fixture in ``tests/golden``.
"""

from repro.cluster import Machine, MachineSpec, TransportParams
from repro.experiments.common import run_ft_scenario
from repro.gaspi.runtime import GaspiWorld
from repro.sim import Simulator
from repro.workloads.spec import scaled_spec


# ----------------------------------------------------------------------
# construction cost: O(world), not O(ranks)
# ----------------------------------------------------------------------
def _fresh_world(n_ranks):
    sim = Simulator()
    machine = Machine(sim, MachineSpec(n_nodes=n_ranks, procs_per_node=1,
                                       transport_params=TransportParams()))
    return GaspiWorld(sim, machine)


def test_group_all_membership_interned_across_contexts():
    world = _fresh_world(256)
    members = world.contexts[0].group_all.members
    assert members is world.members_all
    assert all(ctx.group_all.members is members
               for ctx in world.contexts.values())


def test_queue_tables_stay_lazy_until_first_touch():
    world = _fresh_world(256)
    assert all(ctx._queues is None for ctx in world.contexts.values())
    world.contexts[7]._queue(0)  # first touch builds rank 7's table only
    assert world.contexts[7]._queues is not None
    assert world.contexts[8]._queues is None


def test_arena_allocations_scale_with_shapes_not_ranks():
    """Every rank's same-shaped data-plane segment shares one pool."""
    world = _fresh_world(256)
    for ctx in world.contexts.values():
        _ = ctx.segment_create_pooled(7, 4096).buf  # touch: materialise
    assert world.arena.allocations == 1
    for ctx in world.contexts.values():
        _ = ctx.segment_create_pooled(8, 1 << 16).buf
    assert world.arena.allocations == 2  # one more shape, one more pool


def test_arena_recycled_slot_is_rezeroed():
    world = _fresh_world(4)
    ctx = world.contexts[0]
    seg = ctx.segment_create_pooled(7, 64)
    seg.buf[:] = 0xAB
    ctx.segments.delete(7)
    again = ctx.segment_create_pooled(7, 64)
    assert not again.buf.any()


def test_scenario_world_stays_o_world_in_allocations():
    """A full FT run at 64 ranks performs O(shapes) pool allocations."""
    spec = scaled_spec(workers=64, iterations=40, name="arena-64")
    out = run_ft_scenario("arena-64", spec, kill_times=[(12.5, 3)],
                          n_spares=4)
    world = out.result.run.world
    # mirror windows + replica/pfs planes: a handful of shapes, never
    # one allocation per rank (the pre-flyweight behaviour was ~n_ranks)
    assert 1 <= world.arena.allocations <= 8
    assert world.arena.allocations < world.n_ranks // 4
