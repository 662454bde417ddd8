"""JSONL round-trip, chrome://tracing export structure and the
aggregated-metrics table of ``repro trace``."""

import json
from collections import Counter
from types import SimpleNamespace

from repro.obs.export import (
    chrome_trace,
    event_to_record,
    events_from_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.experiments.trace import metric_rows
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
# the aggregated-metrics table over the same event shapes
# ----------------------------------------------------------------------
def _trace(events, evicted=()):
    """A task's trace: its retained ``events``, and per-type emitted
    totals that also count the ``evicted`` event types."""
    emitted = Counter(e.etype for e in events) + Counter(evicted)
    return SimpleNamespace(events=events, emitted=dict(emitted))


def _rows(traces):
    return {row[0]: row[1:] for row in metric_rows(traces)}


def test_metric_rows_count_events_and_checkpoint_spans():
    """``events.<etype>`` reads the emitted totals, so evicted events
    still count; the checkpoint rows need each event and cover only
    the retained ones."""
    traces = [_trace(TRACES[0][1], evicted=["ckpt_write"] * 2 + ["ping"]),
              _trace(TRACES[1][1], evicted=["solver_iter"] * 4)]
    rows = _rows(traces)
    assert rows["events.ckpt_write"] == [3, None, None, None]
    assert rows["events.detection"] == [1, None, None, None]
    assert rows["events.ping"] == [1, None, None, None]
    assert rows["events.solver_iter"] == [5, None, None, None]
    assert rows["ckpt.write_s"] == [1, 0.5, 0.5, 0.5]
    assert rows["ckpt.bytes_written"] == [1000, None, None, None]
    # rows come sorted by metric name, as the table prints them
    assert list(rows) == sorted(rows)


def _chain(t0, detect_after):
    """One complete epoch-1 failure chain of rank 1, injected at ``t0``."""
    t1 = t0 + detect_after
    return [
        ev(t0, 1, "failure_injected", kind="KillProcess"),
        ev(t1, 0, "detection", epoch=1, failed=[1], rescues=[3]),
        ev(t1, 0, "broadcast_flags", epoch=1),
        ev(t1 + 1.0, 3, "group_rebuild", dur=1.0, epoch=1),
        ev(t1 + 1.0, 3, "spare_promote", dur=0.5, epoch=1, logical=1),
        ev(t1 + 2.0, 3, "restore", dur=1.0, epoch=1, version=0),
        ev(t1 + 2.0, 3, "rollback", epoch=1, version=0),
    ]


def test_metric_rows_build_timelines_per_trace():
    """Both traces number their failure epoch 1; rebuilt per trace, they
    stay two failures instead of aliasing into one."""
    traces = [_trace(_chain(1.0, 2.0)), _trace(_chain(5.0, 4.0))]
    rows = _rows(traces)
    assert rows["phase.detection_latency_s"] == [2, 2.0, 3.0, 4.0]
    assert rows["phase.spare_promote_s"] == [2, 0.5, 0.5, 0.5]
    assert rows["phase.total_recovery_s"] == [2, 4.0, 5.0, 6.0]
    assert rows["events.detection"] == [2, None, None, None]
