"""The span tracer: proxy semantics and self-time arithmetic."""

import json
from pathlib import Path

import pytest

import spans


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class FakeSim:
    now = 0.0


def test_proxy_forwards_send_throw_close_and_return_value():
    log = []

    def inner():
        got = yield "first"
        log.append(("sent", got))
        try:
            yield "second"
        except KeyError as exc:
            log.append(("thrown", exc.args[0]))
        yield "third"
        return "done"

    tracer = spans.Tracer()
    span = spans.GenSpan(tracer, "ft.x", inner())

    def outer():
        result = yield from span
        return result

    gen = outer()
    assert next(gen) == "first"
    assert gen.send(42) == "second"
    assert gen.throw(KeyError("boom")) == "third"
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "done"
    assert log == [("sent", 42), ("thrown", "boom")]

    def endless():
        try:
            while True:
                yield
        finally:
            log.append("closed")

    closing = spans.GenSpan(tracer, "ft.y", endless())
    next(closing)
    closing.close()
    assert log[-1] == "closed"


def test_self_time_of_a_synthetic_nest():
    clock = FakeClock()
    sim = FakeSim()
    tracer = spans.Tracer(clock=clock)
    tracer.sim = sim

    def leaf():
        clock.t += 2.0        # 2 s inside the leaf

    def child():
        clock.t += 1.0        # 1 s own work, then a 2 s leaf
        tracer.call("spmvm.csr_spmv", leaf)
        yield
        clock.t += 0.5        # resumed later: 0.5 s more own work
        return 7

    def parent():
        clock.t += 3.0
        value = yield from tracer.call("spmvm.multiply", child)
        clock.t += 1.0
        return value

    gen = tracer.call("solvers.step", parent)
    gen.send(None)
    clock.t += 100.0          # waiting between resumptions costs nothing
    sim.now = 4.0             # ... but advances virtual time
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 7
    assert tracer.self_s == {"solvers.step": 4.0, "spmvm.multiply": 1.5,
                             "spmvm.csr_spmv": 2.0}
    assert tracer.calls == {"solvers.step": 1, "spmvm.multiply": 1,
                            "spmvm.csr_spmv": 1}
    assert tracer.virt_s == {"solvers.step": 4.0, "spmvm.multiply": 4.0}
    metrics = tracer.metrics(wall_s=10.0)
    assert metrics["spmvm.self_s"] == 3.5
    assert metrics["solvers.share"] == 0.4
    assert metrics["trace.attributed_share"] == 0.75


def test_gaspi_return_codes_are_classified():
    from repro.gaspi import ReturnCode

    tracer = spans.Tracer()
    tracer.outcome("gaspi.group_commit", ReturnCode.SUCCESS)
    tracer.outcome("gaspi.group_commit", ReturnCode.TIMEOUT)
    tracer.outcome("gaspi.allreduce", (ReturnCode.TIMEOUT, None))
    tracer.calls["gaspi.group_commit"] = 2
    metrics = tracer.metrics(wall_s=1.0)
    assert metrics["gaspi.group_commit.success_ratio"] == 0.5
    assert metrics["gaspi.timeouts"] == 2


def test_benchmark_json_lists_exactly_the_traced_metrics():
    import worker

    tracer = spans.Tracer()
    reported = set(tracer.metrics(wall_s=1.0))
    reported |= set(worker.ckpt_metrics({"ckpt": {
        k: 0 for k in worker.workloads.CKPT_OPS + worker.workloads.CKPT_BYTES}}))
    reported.add("trace_overhead")
    spec = json.loads((Path(__file__).resolve().parents[2]
                       / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert len(spec["per_layer"]) <= 128
