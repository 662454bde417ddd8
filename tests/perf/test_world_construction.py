"""Flyweight world construction: cost regression.

The flyweight build path (interned group memberships, lazy queue tables
and notification boards, copy-on-write control blocks) must keep world
construction O(world), never O(ranks), in allocations, and a recovery's
control blocks must stay shared images.
Its observable behaviour is pinned by the golden fixture in
``tests/golden``.
"""

from repro.cluster import Machine, MachineSpec, TransportParams
from repro.experiments.common import run_ft_scenario
from repro.ft.control import FT_SEGMENT
from repro.gaspi.runtime import GaspiWorld
from repro.gaspi.segments import Segment
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


def test_scenario_registers_no_checkpoint_segments():
    """A 64-worker FT run with one recovery registers the FT control
    block on every rank and nothing else: checkpoint copies land as
    blobs in the node stores, never in GASPI segments."""
    spec = scaled_spec(workers=64, iterations=40, name="segments-64")
    out = run_ft_scenario("segments-64", spec, kill_times=[(12.5, 3)],
                          n_spares=4)
    assert out.n_recoveries == 1
    contexts = out.result.run.world.contexts.values()
    assert all([seg.segment_id for seg in ctx.segments] == [FT_SEGMENT]
               for ctx in contexts)


# ----------------------------------------------------------------------
# recovery: control blocks stay shared images, whatever the scale
# ----------------------------------------------------------------------
def _control_block_copies(monkeypatch, workers):
    """FT control-block materialisations and the distinct objects that
    whole-block reads return, over one ladder-style failure scenario."""
    materialised = [0]
    whole_reads = {}
    materialize, read_bytes = Segment._materialize, Segment.read_bytes

    def materialize_spy(self):
        if self.segment_id == FT_SEGMENT:
            materialised[0] += 1
        return materialize(self)

    def read_spy(self, offset, nbytes):
        data = read_bytes(self, offset, nbytes)
        if (self.segment_id == FT_SEGMENT and offset == 0
                and nbytes == self.size):
            whole_reads[id(data)] = data  # held: ids stay distinct
        return data

    monkeypatch.setattr(Segment, "_materialize", materialize_spy)
    monkeypatch.setattr(Segment, "read_bytes", read_spy)
    spec = scaled_spec(workers=workers, iterations=25, name=f"images-{workers}")
    out = run_ft_scenario(f"images-{workers}", spec, kill_times=[(10.5, 3)],
                          n_spares=4)
    monkeypatch.undo()
    assert out.n_recoveries == 1
    return materialised[0], len(whole_reads)


def test_notice_and_done_images_are_shared_at_any_scale(monkeypatch):
    """One notice and the done flag land as shared images: only the FD
    materialises its block, at 64 and at 256 workers alike, and every
    whole-block read returns the notice snapshot or the done image (a
    per-rank copy gave 67 and 259 materialisations)."""
    counts = {n: _control_block_copies(monkeypatch, n) for n in (64, 256)}
    assert counts[64][0] == counts[256][0]
    assert all(distinct <= 2 for _, distinct in counts.values())
