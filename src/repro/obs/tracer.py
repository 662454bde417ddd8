"""Structured failure-lifecycle tracing: typed events, bounded by a ring buffer.

The paper's claims are *timings of a failure lifecycle* — how long the
ping-based FD takes to notice a dead rank, how long the group rebuild and
rescue promotion cost, what the checkpoints add — so the observability
layer records exactly those moments as typed :class:`TraceEvent` records
with sim-time timestamps and rank attribution.

Design constraints, mirroring the FD's zero-overhead property:

* **The failure-free (and trace-free) path stays free.**  The module-level
  active tracer defaults to :data:`NULL_TRACER`, whose ``emit`` is a
  no-op and whose ``enabled`` flag is ``False``; hot loops guard their
  emission with ``if tracer.enabled:`` so a disabled run performs one
  attribute load per candidate event and allocates nothing.
* **Bounded memory, no lost milestone.**  :class:`Tracer` keeps every
  lifecycle milestone (:data:`LIFECYCLE_ETYPES`, O(ranks × failures),
  like the failure log) and puts every other event into a ring buffer
  of fixed capacity; once full, its oldest events are evicted and counted
  in :attr:`Tracer.dropped` — a ping or solver-iteration flood can never
  exhaust memory, nor evict a milestone.
* **Explicit timestamps.**  Emission sites pass the simulation clock
  (``ctx.now``); events that represent a span pass ``dur`` and are
  stamped at their *end* time, so ``t - dur`` recovers the start.

Event taxonomy (see ``OBSERVABILITY.md`` for the full glossary)::

    ping              one FD probe resolved              (detector)
    failure_injected  a fault-plan event fired           (injector)
    detection         the FD's scan resolved failures    (detector)
    broadcast_flags   failure notice written to ranks    (detector)
    group_rebuild     new group created + committed      (recovery)
    spare_promote     a rescue adopted a failed identity (recovery)
    failure_ack       a worker acknowledged a notice     (app)
    version_agreed    the team agreed a restore version  (app)
    proc_kill         gaspi_proc_kill of a suspect       (recovery)
    ckpt_write        local checkpoint written           (checkpoint)
    ckpt_mirror       neighbor copy landed               (checkpoint)
    ckpt_scatter      replica copy landed on a holder    (checkpoint)
    restore           checkpoint state restored          (checkpoint/app)
    solver_iter       one solver iteration finished      (solvers)
    rollback          app resumed from restored state    (app)

The lifecycle milestones (:data:`LIFECYCLE_ETYPES`) also feed the
always-on per-run failure log (``sim.failure_log``,
:class:`repro.obs.timeline.FailureLog`), whatever the tracer: their
sites run only on failure paths, so a failure-free run folds nothing.
"""

from __future__ import annotations

from collections import deque, namedtuple
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple, Union

# ----------------------------------------------------------------------
# event taxonomy
# ----------------------------------------------------------------------
PING = "ping"
FAILURE_INJECTED = "failure_injected"
DETECTION = "detection"
BROADCAST_FLAGS = "broadcast_flags"
GROUP_REBUILD = "group_rebuild"
SPARE_PROMOTE = "spare_promote"
FAILURE_ACK = "failure_ack"
VERSION_AGREED = "version_agreed"
PROC_KILL = "proc_kill"
CKPT_WRITE = "ckpt_write"
CKPT_MIRROR = "ckpt_mirror"
CKPT_SCATTER = "ckpt_scatter"
RESTORE = "restore"
SOLVER_ITER = "solver_iter"
ROLLBACK = "rollback"
#: emitted by the runtime protocol sanitizer (``repro.gaspi.sanitize``,
#: enabled via ``REPRO_SANITIZE=1``) just before it raises on a protocol
#: violation — double-posted live notification, post after ``QUEUE_FULL``
#: without drain, segment access out of bounds or after free
SANITIZER_VIOLATION = "sanitizer_violation"

EVENT_TYPES = frozenset({
    PING, FAILURE_INJECTED, DETECTION, BROADCAST_FLAGS, GROUP_REBUILD,
    SPARE_PROMOTE, FAILURE_ACK, VERSION_AGREED, PROC_KILL, CKPT_WRITE,
    CKPT_MIRROR, CKPT_SCATTER, RESTORE, SOLVER_ITER, ROLLBACK,
    SANITIZER_VIOLATION,
})

#: the milestones a failure record is folded from (the app-level,
#: epoch-tagged ``restore`` only; manager reads carry no epoch)
LIFECYCLE_ETYPES = frozenset({
    FAILURE_INJECTED, DETECTION, BROADCAST_FLAGS, GROUP_REBUILD,
    SPARE_PROMOTE, FAILURE_ACK, VERSION_AGREED, RESTORE, ROLLBACK,
})

#: one trace record: end timestamp (virtual s), emitting physical rank
#: (-1 = not rank-attributable), event type, span duration (0 = instant),
#: and a dict of type-specific fields (``epoch``, ``version``, ...)
TraceEvent = namedtuple("TraceEvent", ("t", "rank", "etype", "dur", "fields"))

#: default ring capacity — bounds the pings, solver iterations and
#: checkpoint spans a run keeps; lifecycle milestones never enter the ring
DEFAULT_CAPACITY = 1 << 16

#: internal slot: (global emission sequence, event) — the sequence lets
#: :meth:`Tracer.events` interleave milestones and ring in emission order
_Slot = Tuple[int, TraceEvent]


class Tracer:
    """Bounded recorder of :class:`TraceEvent` records.

    Retention is one rule.  Lifecycle milestones (:data:`LIFECYCLE_ETYPES`)
    are appended to a list that is never evicted: like the run's failure
    log, it grows only with ranks × failures.  Every other event goes into
    a ring of ``capacity`` slots; once full, the oldest is evicted and
    counted in :attr:`dropped`, so eviction is never silent.
    :attr:`emitted` counts every event per type, evicted ones included.
    """

    __slots__ = ("_milestones", "_ring", "_seq", "_emitted")

    #: hot-path guard: ``if tracer.enabled: tracer.emit(...)``
    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._milestones: List[_Slot] = []
        self._ring: Deque[_Slot] = deque(maxlen=capacity)
        self._seq = 0  # events ever emitted
        self._emitted: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def emit(self, t: float, rank: int, etype: str, dur: float = 0.0,
             **fields: Any) -> None:
        """Record one event; O(1), evicts the ring's oldest when full."""
        seq = self._seq
        self._seq = seq + 1
        emitted = self._emitted
        emitted[etype] = emitted.get(etype, 0) + 1
        record = (seq, TraceEvent(t, rank, etype, dur, fields))
        if etype in LIFECYCLE_ETYPES:
            self._milestones.append(record)
        else:
            self._ring.append(record)

    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Ring events lost to wraparound (never a lifecycle milestone)."""
        return self._seq - len(self)

    @property
    def emitted(self) -> Dict[str, int]:
        """Events ever emitted, per type (evicted ones included)."""
        return dict(self._emitted)

    def __len__(self) -> int:
        return len(self._milestones) + len(self._ring)

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first (emission order)."""
        merged = sorted(self._milestones + list(self._ring),
                        key=lambda slot: slot[0])
        return [event for _seq, event in merged]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Tracer {len(self)} events (+{self.dropped} dropped)>"


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A single module-level instance (:data:`NULL_TRACER`) is shared by
    every simulator and context, so the disabled path costs one attribute
    load (``tracer.enabled`` → ``False``) and zero allocations.
    """

    __slots__ = ()

    enabled = False
    dropped = 0

    def emit(self, t: float, rank: int, etype: str, dur: float = 0.0,
             **fields: Any) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTracer>"


#: the shared disabled tracer (identity-compared throughout the stack)
NULL_TRACER = NullTracer()

#: anything the stack accepts as "the tracer" — emission sites only touch
#: ``enabled`` and ``emit``, which both classes provide
TracerLike = Union[Tracer, NullTracer]

# ----------------------------------------------------------------------
# the module-level active tracer
# ----------------------------------------------------------------------
_active: TracerLike = NULL_TRACER


def install(tracer: Optional[Tracer] = None,
            capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Make ``tracer`` (or a fresh one) the process-wide active tracer.

    Simulations pick the active tracer up at launch (``run_gaspi`` copies
    it onto the simulator), so install *before* starting a run.  Returns
    the installed tracer.
    """
    global _active
    if tracer is None:
        tracer = Tracer(capacity=capacity)
    _active = tracer
    return tracer


def deactivate() -> TracerLike:
    """Restore the disabled default; returns the previously active tracer."""
    global _active
    previous = _active
    _active = NULL_TRACER
    return previous


def active_tracer() -> TracerLike:
    """The currently installed tracer (:data:`NULL_TRACER` when disabled)."""
    return _active
