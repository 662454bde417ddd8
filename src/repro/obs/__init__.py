"""repro.obs — structured observability for the failure lifecycle.

* :mod:`repro.obs.tracer` — typed trace events in a ring buffer, the
  module-level active tracer (``install``/``deactivate``/``active_tracer``)
  and the zero-overhead :data:`~repro.obs.tracer.NULL_TRACER` default.
* :mod:`repro.obs.metrics` — counters/histograms and the standard
  aggregation :func:`~repro.obs.metrics.registry_from_events`.
* :mod:`repro.obs.timeline` — per-failure lifecycle reconstruction
  (detection → rebuild → promote → restore → rollback chains), folded
  online by each run's always-on :class:`~repro.obs.timeline.FailureLog`
  or replayed over a stored trace.
* :mod:`repro.obs.export` — JSONL and ``chrome://tracing`` serialisation.

See ``OBSERVABILITY.md`` for the guide and ``python -m repro trace`` for
the CLI entry point.
"""

from .tracer import (  # noqa: F401
    BROADCAST_FLAGS, CKPT_MIRROR, CKPT_WRITE, DETECTION, EVENT_TYPES,
    FAILURE_ACK, FAILURE_INJECTED, GROUP_REBUILD, LIFECYCLE_ETYPES,
    NULL_TRACER, PING, PROC_KILL, RESTORE, ROLLBACK, SANITIZER_VIOLATION,
    SOLVER_ITER, SPARE_PROMOTE, VERSION_AGREED, TraceEvent, Tracer,
    NullTracer, active_tracer, deactivate, install,
)
from .metrics import (  # noqa: F401
    Counter, Histogram, MetricsRegistry, registry_from_events,
    registry_from_traces,
)
from .timeline import (  # noqa: F401
    FailureLog, FailureRecord, build_timelines, phase_stats, timeline_report,
)
from .export import (  # noqa: F401
    chrome_trace, events_from_jsonl, write_chrome_trace, write_jsonl,
)
