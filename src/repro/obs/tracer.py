"""Structured failure-lifecycle tracing: typed events in a ring buffer.

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
* **Bounded memory.**  :class:`Tracer` appends into a preallocated ring
  buffer; once full, the oldest events are overwritten and counted in
  :attr:`Tracer.dropped` — a runaway scenario can never exhaust memory.
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

from collections import namedtuple
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

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

#: default ring capacity — enough for every paper-scale scenario's
#: lifecycle events while bounding a runaway ``solver_iter`` stream
DEFAULT_CAPACITY = 1 << 16

#: high-volume event types routed to the (opt-in) bulk ring: at 256+ rank
#: scale the per-probe pings and solver iterations outnumber lifecycle
#: milestones by orders of magnitude and would evict them
BULK_ETYPES = frozenset({PING, SOLVER_ITER})

#: internal ring slot: (global emission sequence, event) — the sequence
#: lets :meth:`Tracer.events` interleave the two rings in emission order
_Slot = Tuple[int, TraceEvent]


class Tracer:
    """Append-only ring buffer of :class:`TraceEvent` records.

    With ``bulk_capacity`` set, high-volume event types
    (:data:`BULK_ETYPES`) are segregated into their own ring of that size,
    so a 4096-rank ping storm can never evict the rare lifecycle
    milestones from the main ring.  Eviction is **never silent**: every
    overwritten event is counted, per event type
    (:attr:`dropped_by_type`), in aggregate (:attr:`dropped`) and for the
    bulk ring alone (:attr:`dropped_bulk`).
    """

    __slots__ = ("_buf", "_capacity", "_n", "_bulk_buf", "_bulk_capacity",
                 "_bulk_n", "_seq", "_dropped_by_type", "_dropped_bulk")

    #: hot-path guard: ``if tracer.enabled: tracer.emit(...)``
    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 bulk_capacity: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if bulk_capacity is not None and bulk_capacity < 1:
            raise ValueError(
                f"bulk_capacity must be positive, got {bulk_capacity}"
            )
        self._buf: List[Optional[_Slot]] = [None] * capacity
        self._capacity = capacity
        self._n = 0  # events ever routed to the main ring
        self._bulk_capacity = bulk_capacity
        self._bulk_buf: List[Optional[_Slot]] = (
            [None] * bulk_capacity if bulk_capacity else []
        )
        self._bulk_n = 0  # events ever routed to the bulk ring
        self._seq = 0  # total events ever emitted (both rings)
        self._dropped_by_type: Dict[str, int] = {}
        self._dropped_bulk = 0

    # ------------------------------------------------------------------
    def emit(self, t: float, rank: int, etype: str, dur: float = 0.0,
             **fields: Any) -> None:
        """Record one event; O(1), overwrites the oldest when full."""
        seq = self._seq
        self._seq = seq + 1
        record = (seq, TraceEvent(t, rank, etype, dur, fields))
        if self._bulk_capacity is not None and etype in BULK_ETYPES:
            slot = self._bulk_n % self._bulk_capacity
            old = self._bulk_buf[slot]
            if old is not None:
                dropped_type = old[1].etype
                self._dropped_by_type[dropped_type] = (
                    self._dropped_by_type.get(dropped_type, 0) + 1
                )
                self._dropped_bulk += 1
            self._bulk_buf[slot] = record
            self._bulk_n += 1
            return
        slot = self._n % self._capacity
        old = self._buf[slot]
        if old is not None:
            dropped_type = old[1].etype
            self._dropped_by_type[dropped_type] = (
                self._dropped_by_type.get(dropped_type, 0) + 1
            )
        self._buf[slot] = record
        self._n += 1

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def bulk_capacity(self) -> Optional[int]:
        """Bulk-ring size (None = single-ring mode)."""
        return self._bulk_capacity

    @property
    def total_emitted(self) -> int:
        """Events ever emitted, including overwritten ones."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Events lost to ring wraparound (both rings)."""
        return sum(self._dropped_by_type.values())

    @property
    def dropped_bulk(self) -> int:
        """Events lost from the bulk ring alone."""
        return self._dropped_bulk

    @property
    def dropped_by_type(self) -> Dict[str, int]:
        """Exact per-event-type eviction counts."""
        return dict(self._dropped_by_type)

    def __len__(self) -> int:
        retained = min(self._n, self._capacity)
        if self._bulk_capacity is not None:
            retained += min(self._bulk_n, self._bulk_capacity)
        return retained

    def _ring_slots(self, buf: List[Optional[_Slot]], n: int,
                    cap: int) -> List[_Slot]:
        if n <= cap:
            return [s for s in buf[:n] if s is not None]
        head = n % cap
        return [s for s in buf[head:] + buf[:head] if s is not None]

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first (emission order across rings)."""
        main = self._ring_slots(self._buf, self._n, self._capacity)
        if self._bulk_capacity is None or not self._bulk_n:
            return [event for _seq, event in main]
        bulk = self._ring_slots(self._bulk_buf, self._bulk_n,
                                self._bulk_capacity)
        merged = sorted(main + bulk, key=lambda slot: slot[0])
        return [event for _seq, event in merged]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())

    def clear(self) -> None:
        """Forget everything (capacities are kept)."""
        self._buf = [None] * self._capacity
        self._n = 0
        if self._bulk_capacity is not None:
            self._bulk_buf = [None] * self._bulk_capacity
        self._bulk_n = 0
        self._seq = 0
        self._dropped_by_type = {}
        self._dropped_bulk = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer {len(self)}/{self._capacity} events"
                f" (+{self.dropped} dropped)>")


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A single module-level instance (:data:`NULL_TRACER`) is shared by
    every simulator and context, so the disabled path costs one attribute
    load (``tracer.enabled`` → ``False``) and zero allocations.
    """

    __slots__ = ()

    enabled = False
    capacity = 0
    bulk_capacity: Optional[int] = None
    total_emitted = 0
    dropped = 0
    dropped_bulk = 0
    dropped_by_type: Dict[str, int] = {}

    def emit(self, t: float, rank: int, etype: str, dur: float = 0.0,
             **fields: Any) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def clear(self) -> None:
        pass

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
            capacity: int = DEFAULT_CAPACITY,
            bulk_capacity: Optional[int] = None) -> Tracer:
    """Make ``tracer`` (or a fresh one) the process-wide active tracer.

    Simulations pick the active tracer up at launch (``run_gaspi`` copies
    it onto the simulator), so install *before* starting a run.  Returns
    the installed tracer.  ``bulk_capacity`` sizes the optional separate
    ring for high-volume event types (pings, solver iterations) so they
    cannot evict lifecycle milestones at 256+ rank scale.
    """
    global _active
    if tracer is None:
        tracer = Tracer(capacity=capacity, bulk_capacity=bulk_capacity)
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
