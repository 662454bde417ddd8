"""Tracer ring-buffer semantics and the disabled-path guarantees."""

import pytest

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    TraceEvent,
    Tracer,
    active_tracer,
    deactivate,
    install,
)


# ----------------------------------------------------------------------
# ring buffer
# ----------------------------------------------------------------------
def test_emit_and_events_in_order():
    tr = Tracer(capacity=16)
    for i in range(5):
        tr.emit(float(i), i, "ping", target=i)
    events = tr.events()
    assert len(events) == 5 == len(tr)
    assert [e.t for e in events] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert events[0] == TraceEvent(0.0, 0, "ping", 0.0, {"target": 0})
    assert tr.dropped == 0


def test_ring_wraparound_keeps_newest_in_order():
    tr = Tracer(capacity=8)
    for i in range(20):
        tr.emit(float(i), 0, "solver_iter", step=i)
    assert len(tr) == 8
    assert tr.dropped == 12
    # the retained window is the newest 8 events, oldest first
    assert [e.fields["step"] for e in tr.events()] == list(range(12, 20))


def test_wraparound_boundary_exact_capacity():
    tr = Tracer(capacity=4)
    for i in range(4):
        tr.emit(float(i), 0, "ping")
    assert tr.dropped == 0
    assert [e.t for e in tr.events()] == [0.0, 1.0, 2.0, 3.0]
    tr.emit(4.0, 0, "ping")  # first overwrite
    assert tr.dropped == 1
    assert [e.t for e in tr.events()] == [1.0, 2.0, 3.0, 4.0]


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_events_are_picklable():
    import pickle

    tr = Tracer(capacity=4)
    tr.emit(1.0, 2, "detection", epoch=1, failed=[1], rescues=[8])
    restored = pickle.loads(pickle.dumps(tr.events()))
    assert restored == tr.events()


# ----------------------------------------------------------------------
# the disabled tracer
# ----------------------------------------------------------------------
def test_null_tracer_is_a_zero_event_sink():
    null = NullTracer()
    assert null.enabled is False
    null.emit(1.0, 0, "ping", target=3)
    assert len(null) == 0
    assert null.events() == []
    assert list(null) == []
    assert null.dropped == 0


def test_enabled_flag_distinguishes_real_from_null():
    assert Tracer(capacity=1).enabled is True
    assert NULL_TRACER.enabled is False


def test_install_deactivate_cycle():
    assert active_tracer() is NULL_TRACER
    tr = install(capacity=32)
    try:
        assert active_tracer() is tr
        for i in range(33):
            tr.emit(float(i), 0, "ping")
        assert len(tr) == 32 and tr.dropped == 1
    finally:
        previous = deactivate()
    assert previous is tr
    assert active_tracer() is NULL_TRACER


def test_install_existing_tracer():
    mine = Tracer(capacity=8)
    try:
        assert install(mine) is mine
        assert active_tracer() is mine
    finally:
        deactivate()


# ----------------------------------------------------------------------
# the zero-event guarantee on real simulations
# ----------------------------------------------------------------------
def test_untraced_ft_run_emits_nothing():
    """Without install(), a full failure/recovery run touches only the
    shared NULL_TRACER — the hot path stays allocation-free."""
    from repro.experiments.common import run_ft_scenario
    from repro.workloads.spec import scaled_spec

    assert active_tracer() is NULL_TRACER
    spec = scaled_spec(workers=8, iterations=40, name="untraced")
    outcome = run_ft_scenario("untraced", spec, kill_times=[(30.0, 1)],
                              n_spares=2)
    assert outcome.n_recoveries == 1
    assert active_tracer() is NULL_TRACER
    assert len(NULL_TRACER) == 0 and NULL_TRACER.events() == []
