"""Seeded inputs, and tracing that observes without changing results."""

import json

import pytest

import spans
import worker
import workloads


def plain_json(data):
    return json.loads(json.dumps(data))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("quick", [False, True])
def test_a_seed_always_generates_the_same_inputs(name, quick):
    for seed in (0, 1, 2, 12345):
        first = workloads.make_inputs(name, seed, quick)
        assert workloads.make_inputs(name, seed, quick) == first
        assert plain_json(first) == first
    assert (workloads.make_inputs(name, 1, quick)["kills"]
            != workloads.make_inputs(name, 2, quick)["kills"])


def test_seed_zero_is_the_historical_scenario():
    fig4 = workloads.make_inputs("figure4_small", 0)
    assert fig4["kills"]["3 fail recovery"] == [
        [70.95814285714286, 1], [130.19328571428574, 2],
        [189.42842857142858, 3]]
    assert fig4["kills"]["3 sim. fail recovery"] == [
        [70.95814285714286, rank] for rank in (1, 2, 3)]
    assert workloads.make_inputs("weak_1024", 0)["kills"] == [[10.5, 3]]


def tiny_figure4(tracer=None):
    inputs = workloads.make_inputs("figure4_small", 0, quick=True)
    if tracer is None:
        return plain_json(workloads.run_pass(inputs))
    with spans.Installation(tracer):
        return plain_json(workloads.run_pass(inputs))


def test_tracing_leaves_tiny_figure4_rows_unchanged():
    from repro.gaspi.context import GaspiContext
    from repro.sim import Simulator

    run, allreduce = Simulator.run, GaspiContext.allreduce
    plain = tiny_figure4()
    traced = tiny_figure4(spans.Tracer())
    assert traced == plain
    assert plain == worker.golden_outputs("figure4_small", quick=True)
    # the installation is gone after the pass
    assert Simulator.run is run and GaspiContext.allreduce is allreduce


def test_two_traced_tiny_runs_count_the_same():
    first, second = spans.Tracer(), spans.Tracer()
    tiny_figure4(first)
    tiny_figure4(second)
    assert first.counts() == second.counts()
    assert first.calls["gaspi.allreduce"] > 0
    assert first.calls["ft.perform_recovery"] > 0
    assert first.events > 0
