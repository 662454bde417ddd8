"""JSONL round-trip and chrome://tracing export structure."""

import json
from types import SimpleNamespace

from repro.obs.export import (
    chrome_trace,
    event_to_record,
    events_from_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    MetricsRegistry,
    registry_from_events,
    registry_from_traces,
)
from repro.obs.tracer import TraceEvent


def ev(t, rank, etype, dur=0.0, **fields):
    return TraceEvent(t, rank, etype, dur, fields)


TRACES = [
    ("scenario-a", [
        ev(1.0, 0, "ckpt_write", dur=0.5, version=1, bytes=1000),
        ev(2.0, 1, "detection", epoch=1, failed=[1], rescues=[3]),
    ]),
    ("scenario-b", [
        ev(3.0, 2, "solver_iter", dur=0.4, step=7),
    ]),
]


def test_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    assert write_jsonl(TRACES, path) == 3
    back = events_from_jsonl(path)
    assert [(task, e) for task, e in back] == [
        ("scenario-a", TRACES[0][1][0]),
        ("scenario-a", TRACES[0][1][1]),
        ("scenario-b", TRACES[1][1][0]),
    ]


def test_jsonl_lines_are_flat_json(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(TRACES, path)
    with open(path) as fh:
        first = json.loads(fh.readline())
    assert first == {"t": 1.0, "rank": 0, "etype": "ckpt_write", "dur": 0.5,
                     "task": "scenario-a",
                     "fields": {"version": 1, "bytes": 1000}}


def test_event_to_record_omits_empty():
    rec = event_to_record(ev(1.0, 0, "ping"))
    assert "task" not in rec and "fields" not in rec


def test_chrome_trace_structure():
    doc = chrome_trace(TRACES)
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    spans = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    # one named process per task
    assert [m["args"]["name"] for m in meta] == ["scenario-a", "scenario-b"]
    assert {m["pid"] for m in meta} == {0, 1}
    # spans start at (t - dur) microseconds
    ckpt = next(s for s in spans if s["name"] == "ckpt_write")
    assert ckpt["ts"] == (1.0 - 0.5) * 1e6
    assert ckpt["dur"] == 0.5 * 1e6
    assert ckpt["pid"] == 0 and ckpt["tid"] == 0
    # zero-duration events are instants, attributed to their rank
    det = next(i for i in instants if i["name"] == "detection")
    assert det["tid"] == 1 and det["args"]["failed"] == [1]
    # the solver event of the second task lives in pid 1
    solver = next(s for s in spans if s["name"] == "solver_iter")
    assert solver["pid"] == 1 and solver["tid"] == 2


def test_write_chrome_trace_is_loadable_json(tmp_path):
    path = str(tmp_path / "chrome.json")
    n = write_chrome_trace(TRACES, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert len(doc["traceEvents"]) == n


# ----------------------------------------------------------------------
# metrics aggregation over the same event shapes
# ----------------------------------------------------------------------
def test_registry_from_events_counts_and_histograms():
    events = TRACES[0][1] + TRACES[1][1]
    reg = registry_from_events(events)
    snap = reg.snapshot()
    assert snap["events.ckpt_write"]["value"] == 1
    assert snap["events.detection"]["value"] == 1
    assert snap["ckpt.write_s"]["count"] == 1
    assert snap["ckpt.write_s"]["mean"] == 0.5
    assert snap["ckpt.bytes_written"]["value"] == 1000


def test_registry_from_traces_aggregates_across_traces():
    traces = [SimpleNamespace(events=events) for _, events in TRACES]
    merged = registry_from_traces(traces).snapshot()
    assert merged == registry_from_events(
        TRACES[0][1] + TRACES[1][1]).snapshot()
    assert merged["events.solver_iter"]["value"] == 1


def test_registry_type_conflicts_rejected():
    import pytest

    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_histogram_streaming_stats():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    assert h.count == 3 and h.min == 1.0 and h.max == 3.0
    assert h.mean == 2.0
