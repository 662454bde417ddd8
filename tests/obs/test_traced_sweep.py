"""Serial-vs-parallel trace-merge determinism of the traced sweep."""

from repro.experiments.sweep import SweepTask, run_traced_sweep
from repro.obs.tracer import NULL_TRACER, active_tracer


def _emitting_task(scenario_id: int, n_events: int):
    """Module-level (picklable) worker: emits into the installed tracer."""
    tracer = active_tracer()
    assert tracer is not NULL_TRACER, "traced sweep must install a tracer"
    for i in range(n_events):
        tracer.emit(float(i), scenario_id, "solver_iter", dur=0.5,
                    step=i, scenario=scenario_id)
    return scenario_id * 100 + n_events


def _tasks():
    return [
        SweepTask("tsweep", f"s{i}", _emitting_task, (i, 3 + i), k=i)
        for i in range(4)
    ]


def test_traced_sweep_serial_collects_results_and_traces():
    results, traces = run_traced_sweep(_tasks(), jobs=1)
    assert results == [3, 104, 205, 306]
    assert [tr.label for tr in traces] == ["s0", "s1#1", "s2#2", "s3#3"]
    assert [len(tr.events) for tr in traces] == [3, 4, 5, 6]
    assert all(tr.dropped == 0 for tr in traces)
    # events carry their emitting scenario — no cross-task bleed
    for i, tr in enumerate(traces):
        assert {e.fields["scenario"] for e in tr.events} == {i}


def test_traced_sweep_serial_vs_parallel_identical():
    serial = run_traced_sweep(_tasks(), jobs=1)
    parallel = run_traced_sweep(_tasks(), jobs=4)
    assert repr(serial) == repr(parallel)
    assert serial == parallel


def test_traced_sweep_restores_null_tracer():
    assert active_tracer() is NULL_TRACER
    run_traced_sweep(_tasks(), jobs=1)
    assert active_tracer() is NULL_TRACER


def test_traced_sweep_ring_capacity_and_dropped():
    results, traces = run_traced_sweep(
        [SweepTask("tsweep", "big", _emitting_task, (0, 10))],
        jobs=1, capacity=4)
    assert traces[0].dropped == 6
    assert len(traces[0].events) == 4


def test_tiny_figure4_validates_through_a_small_ring():
    """Lifecycle milestones never enter the ring: at 512 slots each
    scenario of the tiny Figure-4 sweep that runs the fault detector
    evicts pings and solver iterations, and every failure chain still
    validates.  The ``events.<etype>`` rows of ``repro trace`` count
    every emitted event, so they match the default ring's, which evicts
    nothing, ``proc_kill`` included although none is retained."""
    from repro.experiments.figure4 import default_spec, scenario_tasks
    from repro.experiments.trace import metric_rows, validate_trace

    def traced(capacity):
        tasks = scenario_tasks(default_spec("tiny"))
        return run_traced_sweep(tasks, jobs=1, capacity=capacity)[1]

    def event_rows(traces):
        return [row for row in metric_rows(traces)
                if row[0].startswith("events.")]

    traces = traced(512)
    # the two scenarios without health checks emit no pings
    assert [tr.dropped > 0 for tr in traces] == [False] * 2 + [True] * 5
    assert [err for tr in traces for err in validate_trace(tr)] == []
    # the seven failures of the sweep, as at full capacity
    assert sum(ev.etype == "detection"
               for tr in traces for ev in tr.events) == 7
    full = traced(None)
    assert not any(tr.dropped for tr in full)
    assert event_rows(traces) == event_rows(full)
    assert "events.proc_kill" in [row[0] for row in event_rows(traces)]
    assert not any(ev.etype == "proc_kill"
                   for tr in traces for ev in tr.events)


def test_real_scenario_trace_identical_serial_vs_parallel():
    """The acceptance-criteria property on a real failure scenario: the
    merged trace is byte-identical however the sweep was executed."""
    from repro.experiments.figure4 import default_spec, kill_schedule

    spec = default_spec("tiny")
    from repro.experiments.common import run_ft_scenario

    def tasks():
        return [
            SweepTask("tsweep-real", f"{k} fail", _real_scenario,
                      (spec, k), k=k)
            for k in (1, 2)
        ]

    serial_res, serial_tr = run_traced_sweep(tasks(), jobs=1)
    par_res, par_tr = run_traced_sweep(tasks(), jobs=2)
    assert repr(serial_res) == repr(par_res)
    assert serial_tr == par_tr
    # and the traces are non-trivial: each task saw its failures
    from repro.obs.timeline import build_timelines
    for k, tr in zip((1, 2), serial_tr):
        recs = build_timelines(tr.events)
        assert len(recs) == k
        assert all(r.complete and r.nonnegative for r in recs)


def _real_scenario(spec, k):
    from repro.experiments.common import run_ft_scenario
    from repro.experiments.figure4 import kill_schedule

    outcome = run_ft_scenario(f"{k} fail", spec,
                              kill_times=kill_schedule(spec, k))
    outcome.result = None
    return outcome.total_runtime
