"""Counters and histograms aggregating the trace event stream.

Where :mod:`repro.obs.tracer` records *what happened when*, this module
answers *how much and how long on average*: a :class:`MetricsRegistry`
holds named :class:`Counter`/:class:`Histogram` instruments,
and :func:`registry_from_events` derives the standard set — per-type event
counts, checkpoint write/mirror duration histograms, and the per-phase
failure-lifecycle latencies (detection / group rebuild / spare promotion /
restore) reconstructed via :mod:`repro.obs.timeline`.

Histograms are streaming (count/total/min/max), not bucketed — the event
stream itself is retained in the trace, so percentile analysis belongs in
post-processing; in-run aggregation only needs O(1) memory.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

from .tracer import CKPT_MIRROR, CKPT_SCATTER, CKPT_WRITE, TraceEvent


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Histogram:
    """Streaming distribution summary: count, total, min, max, mean."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        if not self.count:
            return {"type": "histogram", "count": 0}
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Get-or-create store of named instruments."""

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def _get(self, name: str, cls: type) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name)
            self._instruments[name] = inst
        elif not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}")
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, dict]:
        """All instruments as plain dicts, name-sorted (JSON-friendly)."""
        return {name: self._instruments[name].snapshot()
                for name in self.names()}


def registry_from_events(events: Iterable[TraceEvent],
                         reg: Optional[MetricsRegistry] = None,
                         ) -> MetricsRegistry:
    """Aggregate a trace into the standard metric set.

    Produces ``events.<etype>`` counters for every event type seen,
    duration histograms for checkpoint writes and mirrors, and per-phase
    latency histograms (``phase.detection_latency_s`` etc.) from the
    reconstructed failure timelines.  With ``reg`` given, the metrics
    are added to it instead of a fresh registry.
    """
    from .timeline import build_timelines  # local import: timeline uses tracer only

    events = list(events)
    if reg is None:
        reg = MetricsRegistry()
    for ev in events:
        reg.counter(f"events.{ev.etype}").inc()
        if ev.etype == CKPT_WRITE:
            reg.histogram("ckpt.write_s").observe(ev.dur)
            bytes_ = ev.fields.get("bytes")
            if bytes_:
                reg.counter("ckpt.bytes_written").inc(bytes_)
        elif ev.etype == CKPT_MIRROR:
            reg.histogram("ckpt.mirror_s").observe(ev.dur)
        elif ev.etype == CKPT_SCATTER:
            reg.histogram("ckpt.scatter_s").observe(ev.dur)

    for rec in build_timelines(events):
        for phase, value in rec.phases().items():
            if value is not None:
                reg.histogram(f"phase.{phase}").observe(value)
    return reg


def registry_from_traces(traces: Iterable[Any]) -> MetricsRegistry:
    """Like :func:`registry_from_events`, for multiple tasks' traces.

    Event counts and checkpoint histograms aggregate across all traces,
    but failure timelines are reconstructed *per trace* — recovery epochs
    are only unique within one simulation, so merging event streams first
    would collapse distinct failures that share an epoch number.
    """
    reg = MetricsRegistry()
    for trace in traces:
        registry_from_events(trace.events, reg)
    return reg
