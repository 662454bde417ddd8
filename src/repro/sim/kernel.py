"""The simulation kernel: virtual clock, event heap, process scheduling.

The kernel is a classic calendar-queue DES loop.  All state changes happen
inside scheduled thunks ordered by ``(time, sequence)``; the sequence
number makes execution order fully deterministic even for simultaneous
events.

Performance architecture (this module is the hottest loop in the repo —
every paper-scale experiment replays millions of events through it):

* **C-comparable heap entries.**  Heap entries are plain Python lists
  ``[time, seq, fn, proc, value]`` — including the handles ``schedule``
  returns (cancel one with :meth:`Simulator.cancel`; a ``list`` subclass
  handle would cost ~3x a literal to allocate).  Every ``heapq`` sift
  uses CPython's C list comparison instead of a Python-level ``__lt__``
  — ``(time, seq)`` is compared element-wise and the unique ``seq``
  guarantees later fields are never reached.  Where the new entry is
  known to carry the largest ``seq`` yet issued, the kernel compares
  bare times instead of whole entries: ``other[0] <= new[0]`` is then
  exactly ``other < new``.
* **Same-timestamp FIFO run-queue.**  Zero-delay schedules (process
  spawns, resumes on already-fired events, zero-delay callbacks) are
  appended to a deque instead of the heap.  Because ``now`` never
  advances while the run-queue is non-empty, its entries all carry
  ``time == now`` and strictly increasing ``seq``, so FIFO order *is*
  ``(time, seq)`` order; the dispatch loop merges the run-queue head with
  the heap top to preserve the exact seed total order bit-for-bit.
* **Next-event cache.**  The globally earliest delayed entry is held in
  the ``_next`` slot *outside* the heap (invariant: ``_next`` precedes
  every heap entry in ``(time, seq)`` order).  Workloads whose timers
  mostly dispatch in schedule order — timer chains, lock-step transfers,
  the FD scan — never touch ``heapq`` at all: schedule fills the slot,
  dispatch empties it.  Only an out-of-order schedule demotes the cached
  entry into the heap.
* **One dispatch loop.**  ``run(until)`` pops exactly as an unbounded
  run does (the deadline is ``inf`` there).  The first live entry later
  than ``until`` is put back into the ``_next`` slot: it came from that
  slot or from the heap top, so the slot invariant still holds, and the
  next run dispatches it first.  An ``until`` before ``now`` is rejected,
  so a run-queue entry is never late.
* **Dispatch records instead of closures.**  Process steps are encoded in
  the entry itself (``fn is None`` → resume ``proc`` with ``value``), so
  stepping a process allocates one small list — no lambda, no bound
  method.  Event waits register a single :class:`_EventWaiter` record.
* **Re-armed waits.**  A :class:`WaitEvent` with a ``recheck`` gets a
  :class:`_RecheckWaiter`: a long wait costs one timer per timeout
  period, not one generator re-entry.  Plain waits are unaffected.
* **Lazy-cancel compaction.**  Cancellation only flags the entry; a
  counter of dead entries triggers an O(n) rebuild of the heap once the
  dead fraction reaches one half, so long FD-scan runs do not accumulate
  cancelled timeout timers.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Generator, List, Optional

from repro.obs.timeline import FailureLog
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.sim.channel import Channel, ChannelGet, _ChannelWaiter
from repro.sim.errors import SimError
from repro.sim.events import Event, Sleep, WaitEvent
from repro.sim.process import Process, ProcessState

#: entries with fewer dead timers than this are never compacted
_COMPACT_MIN_DEAD = 64


#: A timer handle *is* its heap entry: a plain list ``[time, seq, fn,
#: proc, value]``.  Cancel one with :meth:`Simulator.cancel` — it nulls
#: the dispatch fields and leaves the entry for the kernel to skip (or
#: compact away) later.  The alias exists for annotations and imports.
Timer = list


class _EventWaiter:
    """One blocked process's registration on an event (+ optional timeout).

    A single ``__slots__`` record replaces the three closures the kernel
    used to allocate per wait: it is the event callback (``__call__``),
    the timeout callback (``_on_timeout``) and the deregistration hook
    (``cancel``, stored in ``proc._cleanup``).
    """

    __slots__ = ("sim", "proc", "event", "timer")

    def __init__(self, sim: "Simulator", proc: Process, event: Event) -> None:
        self.sim = sim
        self.proc = proc
        self.event = event
        self.timer: Optional[Timer] = None

    def __call__(self, event: Event) -> None:
        """The event fired first: cancel the timeout, resume the waiter."""
        timer = self.timer
        if timer is not None:
            self.sim._cancel_entry(timer)
        self.sim._step(self.proc, (True, event.value))

    def _on_timeout(self) -> None:
        """The timeout fired first: deregister, resume with failure."""
        self.event.discard_callback(self)
        self.sim._step(self.proc, (False, None))

    def cancel(self) -> None:
        """Deregister everything (the process was killed)."""
        self.event.discard_callback(self)
        timer = self.timer
        if timer is not None:
            self.sim._cancel_entry(timer)


class _RecheckWaiter(_EventWaiter):
    """An event wait whose timeout re-arms while ``recheck()`` is None
    (see :class:`WaitEvent`).  The event callback stays registered, and
    ``timer`` always holds the live entry, so a kill cancels the current
    one."""

    __slots__ = ("timeout", "recheck")

    def __init__(self, sim: "Simulator", proc: Process, event: Event,
                 timeout: Optional[float],
                 recheck: Callable[[], Any]) -> None:
        _EventWaiter.__init__(self, sim, proc, event)
        self.timeout = timeout
        self.recheck = recheck

    def _on_timeout(self) -> None:
        if self.recheck() is None:
            self.timer = self.sim.schedule(self.timeout, self._on_timeout)
        else:
            _EventWaiter._on_timeout(self)


class Simulator:
    """Deterministic discrete-event simulator with generator processes."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[list] = []
        self._runq: deque = deque()
        #: next-event cache: the earliest delayed entry, held out of the heap
        self._next: Optional[list] = None
        self._seq: int = 0
        self._n_cancelled: int = 0
        self._processes: List[Process] = []
        # structured observability (repro.obs): the per-simulation tracer.
        # Defaults to the shared no-op; instrumented sites guard emission
        # with ``tracer.enabled`` so the dispatch loop stays untouched.
        self.tracer: TracerLike = NULL_TRACER
        #: the run's failure record, fed by the lifecycle sites whatever
        #: the tracer; they run only on failure paths
        self.failure_log = FailureLog()

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` after ``delay`` virtual seconds; returns a handle.

        The handle is the heap entry itself; pass it to :meth:`cancel` to
        prevent the callback from running.
        """
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        timer = [time, seq, fn, None, None]
        if delay == 0.0:
            self._runq.append(timer)
            return timer
        # ``timer`` holds the largest seq yet, so bare-time comparisons
        # are exact (ties resolve in favour of the older entry).
        nxt = self._next
        if nxt is None:
            heap = self._heap
            if heap and heap[0][0] <= time:
                heappush(heap, timer)
            else:
                self._next = timer
        elif time < nxt[0]:
            heappush(self._heap, nxt)
            self._next = timer
        else:
            heappush(self._heap, timer)
        return timer

    def schedule_at(self, time: float, fn: Callable[[], None]) -> Timer:
        """Run ``fn()`` at absolute virtual ``time`` (must not be past)."""
        if time < self.now:
            raise SimError(
                f"cannot schedule at past time {time} (now={self.now})"
            )
        return self.schedule(time - self.now, fn)

    def cancel(self, timer: Timer) -> None:
        """Prevent a scheduled callback/resume (safe to call repeatedly)."""
        if timer[2] is not None or timer[3] is not None:
            timer[2] = None
            timer[3] = None
            self._note_cancelled()

    def _schedule_step(self, delay: float, proc: Process, value: Any) -> list:
        """Kernel-internal: queue a process resume (one list, no closure)."""
        seq = self._seq
        self._seq = seq + 1
        time = self.now + delay
        entry = [time, seq, None, proc, value]
        if delay == 0.0:
            self._runq.append(entry)
            return entry
        nxt = self._next
        if nxt is None:
            heap = self._heap
            if heap and heap[0][0] <= time:
                heappush(heap, entry)
            else:
                self._next = entry
        elif time < nxt[0]:
            heappush(self._heap, nxt)
            self._next = entry
        else:
            heappush(self._heap, entry)
        return entry

    @property
    def scheduled_count(self) -> int:
        """Total entries ever scheduled (timers + process resumes).

        The event-cost counter behind the ``sim_events_per_spmv`` bench
        metric: every `schedule`/`_schedule_step` call consumes exactly one
        sequence number, so differences of this counter measure how much
        kernel traffic a code path generates.
        """
        return self._seq

    # ------------------------------------------------------------------
    # lazy-cancel bookkeeping
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Count a newly dead entry; compact once half the heap is dead."""
        n = self._n_cancelled + 1
        self._n_cancelled = n
        if n >= _COMPACT_MIN_DEAD and 2 * n >= len(self._heap):
            self._compact()

    # kernel-internal alias (step entries and timers share one layout)
    _cancel_entry = cancel

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (order is unaffected)."""
        heap = self._heap
        live = [e for e in heap if e[2] is not None or e[3] is not None]
        if len(live) != len(heap):
            heap[:] = live
            heapify(heap)
        self._n_cancelled = 0

    def _drop_dead(self) -> None:
        """Bookkeeping for a dead entry that was popped naturally."""
        n = self._n_cancelled
        if n:
            self._n_cancelled = n - 1

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register generator ``gen`` as a process, starting it at ``now``."""
        proc = Process(self, gen, name=name or f"proc-{len(self._processes)}")
        self._processes.append(proc)
        self._schedule_step(0.0, proc, None)
        return proc

    def spawn_at(self, time: float, gen: Generator, name: str = "") -> Process:
        """Register ``gen`` as a process that starts at absolute ``time``."""
        if time < self.now:
            raise SimError(
                f"cannot spawn at past time {time} (now={self.now})"
            )
        proc = Process(self, gen, name=name or f"proc-{len(self._processes)}")
        self._processes.append(proc)
        self._schedule_step(time - self.now, proc, None)
        return proc

    @property
    def processes(self) -> List[Process]:
        """All processes ever spawned (including terminated ones)."""
        return list(self._processes)

    # ------------------------------------------------------------------
    # the main loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queues drain or ``until`` is reached.

        Returns the final virtual time.  With ``until`` set the clock ends
        at ``until`` (which must not be past), and the first entry later
        than it stays queued for the next run.
        """
        if until is not None and until < self.now:
            raise SimError(f"cannot run until past time {until} (now={self.now})")
        deadline = inf if until is None else until
        heap = self._heap
        runq = self._runq
        step = self._step
        while True:
            # Pop the earliest entry.  ``_next`` (when set) precedes every
            # heap entry, so the merge only ever compares the run-queue
            # head against one candidate.
            nxt = self._next
            if runq:
                timer = runq[0]
                if nxt is not None:
                    if nxt < timer:
                        timer = nxt
                        self._next = None
                    else:
                        runq.popleft()
                elif heap and heap[0] < timer:
                    timer = heappop(heap)
                else:
                    runq.popleft()
            elif nxt is not None:
                timer = nxt
                self._next = None
            elif heap:
                timer = heappop(heap)
            else:
                break
            fn = timer[2]
            if fn is None and timer[3] is None:
                self._drop_dead()
            elif timer[0] > deadline:
                # late: it came from ``_next`` or the heap top (run-queue
                # entries are never late), so the slot takes it back
                self._next = timer
                break
            else:
                self.now = timer[0]
                if fn is not None:
                    fn()
                else:
                    step(timer[3], timer[4])
        if until is not None:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # process stepping (kernel-internal, used by Process as well)
    # ------------------------------------------------------------------
    def _step(self, proc: Process, send_value: Any) -> None:
        """Advance ``proc`` by one yield, interpreting its request."""
        state = proc.state
        if state is ProcessState.DONE or state is ProcessState.KILLED:
            return
        proc.state = ProcessState.RUNNING
        proc._cleanup = None
        try:
            request = proc.gen.send(send_value)
        except StopIteration as stop:
            proc.state = ProcessState.DONE
            proc.result = stop.value
            return
        cls = request.__class__
        if cls is Sleep:
            proc.state = ProcessState.WAITING
            proc._cleanup = self._schedule_step(request.dt, proc, None)
        elif cls is WaitEvent:
            self._wait_event(proc, request.event, request.timeout,
                             request.recheck)
        elif cls is ChannelGet:
            self._wait_channel(proc, request.channel, request.timeout)
        else:
            raise SimError(
                f"process {proc.name!r} yielded unsupported request {request!r}; "
                "did you forget 'yield from' on a blocking call?"
            )

    def _wait_event(self, proc: Process, event: Event, timeout: Optional[float],
                    recheck: Optional[Callable[[], Any]] = None) -> None:
        proc.state = ProcessState.WAITING
        if event.fired:
            # Resume via the run-queue (not inline) to keep ordering uniform.
            proc._cleanup = self._schedule_step(0.0, proc, (True, event.value))
            return
        if recheck is None:
            waiter = _EventWaiter(self, proc, event)
        else:
            waiter = _RecheckWaiter(self, proc, event, timeout, recheck)
        event.add_callback(waiter)
        if timeout is not None:
            waiter.timer = self.schedule(timeout, waiter._on_timeout)
        proc._cleanup = waiter

    def _wait_channel(self, proc: Process, channel: Channel,
                      timeout: Optional[float]) -> None:
        """Block ``proc`` on a channel take (no per-get Event allocation)."""
        proc.state = ProcessState.WAITING
        items = channel._items
        if items:
            # An item landed since the generator's own fast-path check.
            proc._cleanup = self._schedule_step(0.0, proc, (True, items.popleft()))
            return
        waiter = _ChannelWaiter(self, proc, channel)
        channel._getters.append(waiter)
        if timeout is not None:
            waiter.timer = self.schedule(timeout, waiter._on_timeout)
        proc._cleanup = waiter
