"""One worker entry and one FT context per rank.

Every rank that computes (an initial worker, a promoted idle spare, the
FD joining as the last rescue) runs the same worker loop and keeps one
``FTContext`` for the whole run: a survivor rebinds its context to every
team a recovery rebuilds, and a rescue builds its own.  Also here: the
control-block invariant that lets ``ControlBlock.check_failure`` read
the epoch cell alone.  The initial image has ``epoch = ack = 0``,
``compose_notice`` sets ``epoch >= 1`` and ``ack = 1`` together, and a
done image copies both from the image it derives from, so every
whole-block image has ``ack == (epoch >= 1)``.
"""

import numpy as np
import pytest

from repro.cluster import FaultPlan
from repro.experiments.common import ft_config_for, machine_for
from repro.ft import FT_SEGMENT, run_ft_application
from repro.gaspi.segments import Segment
from repro.workloads.kernels import ModelLanczosProgram
from repro.workloads.spec import scaled_spec

#: 8 workers finishing at 45.149 s failure-free; setup ends at 20 s
SPEC = scaled_spec(workers=8, iterations=60, name="worker-entry")


def run_model(kills, n_spares=3, until=200.0, program=None):
    """The model kernel on 8 workers with ``(time, rank)`` kills."""
    cfg = ft_config_for(SPEC, n_spares=n_spares)
    plan = FaultPlan()
    for t, rank in kills:
        plan.kill_process(t, rank)
    return run_ft_application(
        cfg, program or ModelLanczosProgram(SPEC),
        machine_spec=machine_for(cfg), fault_plan=plan, until=until)


class ContextRecorder(ModelLanczosProgram):
    """The model kernel, recording the context of every program call."""

    def __init__(self, spec):
        super().__init__(spec)
        #: physical rank -> [(call, ftx, ftx.epoch)], in call order; the
        #: contexts stay referenced, so no two of them can share an id
        self.calls = {}

    def _record(self, call, ftx):
        self.calls.setdefault(ftx.ctx.rank, []).append(
            (call, ftx, ftx.epoch))

    def setup(self, ftx):
        self._record("setup", ftx)
        return (yield from super().setup(ftx))

    def restore(self, ftx, state_payload):
        self._record("restore", ftx)
        return (yield from super().restore(ftx, state_payload))

    def run(self, ftx, work):
        self._record("run", ftx)
        return (yield from super().run(ftx, work))


def test_a_rank_keeps_one_ft_context_across_recoveries():
    """Two kills one recovery apart: worker 3 dies at 25 s (rescued by
    idle 8, rolled back at 31.56 s), worker 5 at 45 s (rescued by idle
    9).  Every rank keeps one context for all its program calls; a
    rescue's context is its own."""
    program = ContextRecorder(SPEC)
    result = run_model([(25.0, 3), (45.0, 5)], program=program)
    assert result.status == "done"
    assert [(r.epoch, r.failed, r.rescues) for r in result.failures()] == [
        (1, (3,), (8,)), (2, (5,), (9,))]

    ids = {rank: {id(ftx) for _, ftx, _ in calls}
           for rank, calls in program.calls.items()}
    survivors = [0, 1, 2, 4, 6, 7]
    for rank in survivors + [8, 9]:
        assert len(ids[rank]) == 1, f"rank {rank}: {len(ids[rank])} contexts"
    worker_ids = set().union(*(ids[rank] for rank in range(8)))
    for rescue in (8, 9):
        assert not ids[rescue] & worker_ids

    # a survivor's one context followed both recoveries
    assert [(call, epoch) for call, _, epoch in program.calls[0]] == [
        ("setup", 0), ("run", 0), ("restore", 1), ("run", 1),
        ("restore", 2), ("run", 2)]
    assert [(call, epoch) for call, _, epoch in program.calls[8]] == [
        ("restore", 1), ("run", 1), ("restore", 2), ("run", 2)]
    final = program.calls[0][-1][1]
    assert final.epoch == final.team.group.tag == 2


#: scenario -> (kills, n_spares)
SCENARIOS = {
    "sequential": ([(25.0, 3), (45.0, 5)], 3),
    "simultaneous": ([(25.0, 2), (25.0, 6)], 3),
    # three failures, one idle and the FD: one rescue short
    "over-budget": ([(25.0, 1), (25.0, 2), (25.0, 3)], 2),
    # the last worker finishes at 45.149 s; the FD still detects the kill
    "after-finish": ([(45.16, 1)], 3),
}


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_every_control_block_image_pairs_ack_with_a_positive_epoch(
        scenario, monkeypatch):
    kills, n_spares = SCENARIOS[scenario]
    images = []
    write_bytes = Segment.write_bytes

    def spy(self, offset, data):
        if (self.segment_id == FT_SEGMENT and offset == 0
                and len(data) == self.size):
            images.append(np.frombuffer(data, dtype=np.int64, count=5).copy())
        write_bytes(self, offset, data)

    monkeypatch.setattr(Segment, "write_bytes", spy)
    result = run_model(kills, n_spares=n_spares, until=120.0)

    for cells in images:
        assert cells[1] == (cells[0] > 0), cells
    epochs = {int(cells[0]) for cells in images}
    notices = [cells for cells in images if cells[0] > 0]
    done = [cells for cells in images if cells[2] == 1]
    assert 0 in epochs and done
    # each scenario reached the state it is here for
    if scenario == "sequential":
        assert epochs == {0, 1, 2}
    elif scenario == "simultaneous":
        assert epochs == {0, 1} and all(c[3] == 2 for c in notices)
    elif scenario == "over-budget":
        assert result.status == "unrecoverable"
        assert all(c[3] == 3 and c[4] == 2 for c in notices)
    else:
        assert result.status == "done"
        assert any(c[0] == 1 and c[2] == 1 for c in notices)
