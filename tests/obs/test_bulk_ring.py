"""Tracer retention tests: lifecycle milestones are always kept, the bulk
of the stream (pings, solver iterations, checkpoint spans) lives in the
one bounded ring, events merge back in emission order, and the sweep /
validation plumbing reports ring evictions without failing on them."""

import pickle
from collections import Counter

from repro.experiments.sweep import SweepTask, SweepTrace, run_traced_sweep
from repro.experiments.trace import validate_trace
from repro.obs.tracer import (LIFECYCLE_ETYPES, TraceEvent, Tracer,
                              deactivate, install)


def test_single_ring_semantics_unchanged_by_default():
    """The ring keeps the newest ``capacity`` non-lifecycle events, as a
    plain ring would, whatever milestones are interleaved with them."""
    tr = Tracer(capacity=8)
    for i in range(20):
        tr.emit(float(i), 0, "solver_iter", step=i)
        if i % 5 == 0:
            tr.emit(float(i), 0, "failure_ack", epoch=i)
    assert len(tr) == 8 + 4
    assert tr.dropped == 12
    kept = [e.fields["step"] for e in tr.events() if e.etype == "solver_iter"]
    assert kept == list(range(12, 20))


def test_bulk_ring_protects_lifecycle_events():
    tr = Tracer(capacity=4)
    # a ping flood that evicts every earlier ping from the 4-slot ring
    for i in range(100):
        tr.emit(float(i), 0, "ping", target=i)
    tr.emit(100.0, 0, "detection", epoch=1)
    for i in range(100):
        tr.emit(101.0 + i, 0, "ping", target=100 + i)
    # the milestone survives however many pings follow it
    events = tr.events()
    assert [e.etype for e in events] == ["detection"] + ["ping"] * 4
    assert [e.t for e in events] == [100.0, 197.0, 198.0, 199.0, 200.0]
    assert tr.dropped == 196
    assert len(tr) == 1 + 4


def test_events_merge_in_emission_order():
    tr = Tracer(capacity=2)
    tr.emit(0.0, 0, "detection", epoch=0)
    tr.emit(1.0, 0, "ping", target=1)
    tr.emit(2.0, 0, "group_rebuild", epoch=0)
    tr.emit(3.0, 0, "ping", target=2)
    tr.emit(4.0, 0, "solver_iter", step=0)
    tr.emit(5.0, 0, "rollback", epoch=0)
    # the first ping is evicted; milestones and the newest two ring
    # events interleave by emission, not by kind
    assert [e.etype for e in tr.events()] == [
        "detection", "group_rebuild", "ping", "solver_iter", "rollback"]
    assert [e.t for e in tr.events()] == [0.0, 2.0, 3.0, 4.0, 5.0]
    assert tr.dropped == 1


def test_exact_boundary_and_per_type_counts():
    tr = Tracer(capacity=4)
    for i in range(5):  # more milestones than ring slots: none dropped
        tr.emit(float(i), 0, "detection", epoch=i)
    for i in range(4):
        tr.emit(5.0 + i, 0, "ping", target=i)
    assert tr.dropped == 0
    tr.emit(9.0, 0, "solver_iter", step=0)  # 5th ring event into cap 4
    assert tr.dropped == 1
    assert Counter(e.etype for e in tr.events()) == {
        "detection": 5, "ping": 3, "solver_iter": 1}
    # the per-type totals count the evicted ping too
    assert tr.emitted == {"detection": 5, "ping": 4, "solver_iter": 1}


def test_bulk_etypes_are_the_high_volume_ones():
    """The per-probe and per-iteration streams must stay ring-bound, or a
    traced run's memory would grow with its length."""
    assert {"ping", "solver_iter", "ckpt_write"}.isdisjoint(LIFECYCLE_ETYPES)


def test_install_and_pickle_with_bulk():
    tr = install(capacity=2)
    try:
        for i in range(3):
            tr.emit(float(i), 1, "ping", target=i)
        tr.emit(3.0, 1, "failure_injected", kind="KillProcess")
        events = pickle.loads(pickle.dumps(tr.events()))
        assert [e.etype for e in events] == ["ping", "ping",
                                             "failure_injected"]
        assert events == tr.events()
    finally:
        deactivate()


# ----------------------------------------------------------------------
# sweep / validation plumbing
# ----------------------------------------------------------------------
def _noisy_task(n_pings):
    from repro.obs.tracer import active_tracer

    tr = active_tracer()
    for i in range(n_pings):
        tr.emit(float(i), 0, "ping", target=i)
    return n_pings


def test_traced_sweep_ships_bulk_drop_counts():
    tasks = [SweepTask("bulk", "noisy", _noisy_task, (50,))]
    results, traces = run_traced_sweep(tasks, jobs=1, capacity=8)
    assert results == [50]
    assert traces[0].dropped == 42
    assert len(traces[0].events) == 8
    assert traces[0].emitted == {"ping": 50}


def test_validation_tolerates_bulk_drops_but_not_lifecycle_drops():
    bulk_only = SweepTrace("e", "s", 0, events=(), emitted={"ping": 7})
    assert bulk_only.dropped == 7
    assert validate_trace(bulk_only) == []

    # a trace missing the milestones after an injection still fails
    injected = TraceEvent(1.0, 3, "failure_injected", 0.0,
                          {"kind": "KillProcess"})
    lifecycle = SweepTrace("e", "s", 0, events=(injected,),
                           emitted={"failure_injected": 1, "ping": 7})
    errors = validate_trace(lifecycle)
    assert len(errors) == 1 and "rank 3" in errors[0]
