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
* **Wait timeouts in per-length FIFOs.**  Arming a wait's timeout takes
  the seq a heap entry would have taken and appends a record ``[time,
  seq, waiter]`` to the FIFO of that timeout length.  ``now`` never
  decreases and seqs only grow, so each FIFO is sorted by ``(time, seq)``
  and only its head is on the heap: an entry ``[time, seq, None, None,
  fifo]`` carrying the head record's own key.  An event that fires
  first, or a kill, nulls the record and does no heap work.  Dispatching
  the head entry runs a live head's timeout (a :class:`WaitEvent` with a
  ``recheck`` re-arms by appending to the same FIFO, so a long wait costs
  one record per period and no generator re-entry), drops the dead
  records at the front and queues the next head; a dead head moves no
  clock.  Zero timeouts stay run-queue entries, and a cancelled
  ``schedule`` entry is skipped when it is popped.  The FIFOs pay off
  because timeouts share a few lengths: in the benchmark workloads at
  least 98.7 % of armed timeouts have the one ``comm_timeout``, and a
  length armed once costs a FIFO of one record.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, Dict, Generator, List, Optional, Union

from repro.obs.timeline import FailureLog
from repro.obs.tracer import NULL_TRACER, TracerLike
from repro.sim.channel import Channel, ChannelGet, _ChannelWaiter
from repro.sim.errors import SimError
from repro.sim.events import Event, Sleep, WaitEvent
from repro.sim.process import Process, ProcessState

#: the process states a step sets, bound once: on CPython 3.10 and 3.11
#: each read of an enum class attribute goes through the Python-level
#: ``EnumType.__getattr__``
_RUNNING = ProcessState.RUNNING
_WAITING = ProcessState.WAITING
_DONE = ProcessState.DONE
_KILLED = ProcessState.KILLED


#: A timer handle *is* its heap entry: a plain list ``[time, seq, fn,
#: proc, value]``.  Cancel one with :meth:`Simulator.cancel` — it nulls
#: the dispatch fields and leaves the entry for the kernel to skip when
#: it is popped.  The alias exists for annotations and imports.
Timer = list


class _TimeoutFifo(deque):
    """The wait-timeout records ``[time, seq, waiter]`` of one timeout
    length, oldest first; ``waiter`` is None once the wait ended."""

    __slots__ = ("timeout",)
    timeout: float


class _EventWaiter:
    """One blocked process's registration on an event (+ optional timeout).

    A single ``__slots__`` record replaces the three closures the kernel
    used to allocate per wait: it is the event callback (``__call__``),
    the timeout callback (``_on_timeout``) and the deregistration hook
    (``cancel``, stored in ``proc._cleanup``).  ``timer`` is its timeout
    record (or run-queue entry); nulling its slot 2 voids the timeout.
    """

    __slots__ = ("sim", "proc", "event", "timer")

    def __init__(self, sim: "Simulator", proc: Process, event: Event) -> None:
        self.sim = sim
        self.proc = proc
        self.event = event
        self.timer: Optional[list] = None

    def __call__(self, event: Event) -> None:
        """The event fired first: void the timeout, resume the waiter."""
        timer = self.timer
        if timer is not None:
            timer[2] = None
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
            timer[2] = None


class _RecheckWaiter(_EventWaiter):
    """An event wait whose timeout re-arms while ``recheck()`` is None
    (see :class:`WaitEvent`).  The event callback stays registered, and
    ``timer`` always holds the live record, so a kill voids the current
    one."""

    __slots__ = ("timeout", "recheck")

    def __init__(self, sim: "Simulator", proc: Process, event: Event,
                 timeout: float, recheck: Callable[[], Any]) -> None:
        _EventWaiter.__init__(self, sim, proc, event)
        self.timeout = timeout
        self.recheck = recheck

    def _on_timeout(self) -> None:
        if self.recheck() is None:
            self.timer = self.sim._arm(self.timeout, self)
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
        #: timeout length -> its FIFO of wait-timeout records, while any
        self._timeouts: Dict[float, _TimeoutFifo] = {}
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
        """Prevent a scheduled callback/resume (safe to call repeatedly).

        The entry stays queued and is skipped when it is popped.
        """
        timer[2] = timer[3] = timer[4] = None

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
        metric: every `schedule`/`_schedule_step` call and every armed
        wait timeout consumes exactly one sequence number, so differences
        of this counter measure how much kernel traffic a code path
        generates.
        """
        return self._seq

    # ------------------------------------------------------------------
    # wait timeouts
    # ------------------------------------------------------------------
    def _arm(self, timeout: float, waiter: Union[_EventWaiter, _ChannelWaiter],
             ) -> list:
        """Arm ``waiter``'s timeout; returns the record its wait nulls.

        A zero timeout is a run-queue entry calling ``waiter._on_timeout``
        (and ``schedule`` rejects a negative one).  Any other is a record
        at the tail of its length's FIFO; an empty FIFO queues the
        record's key as its head entry.
        """
        if timeout <= 0.0:
            return self.schedule(timeout, waiter._on_timeout)
        seq = self._seq
        self._seq = seq + 1
        time = self.now + timeout
        record = [time, seq, waiter]
        fifo = self._timeouts.get(timeout)
        if fifo is None:
            fifo = self._timeouts[timeout] = _TimeoutFifo()
            fifo.timeout = timeout
        if not fifo:
            self._push_head([time, seq, None, None, fifo])
        fifo.append(record)
        return record

    def _push_head(self, entry: list) -> None:
        """Queue a FIFO's head entry.  It may carry an older seq than
        entries already queued, so it is placed by a full ``(time, seq)``
        comparison, never by the bare time ``schedule`` compares."""
        nxt = self._next
        if nxt is None:
            heap = self._heap
            if heap and heap[0] < entry:
                heappush(heap, entry)
            else:
                self._next = entry
        elif entry < nxt:
            heappush(self._heap, nxt)
            self._next = entry
        else:
            heappush(self._heap, entry)

    def _advance(self, fifo: _TimeoutFifo, entry: list) -> None:
        """``fifo``'s head entry was dispatched: drop its record and the
        dead ones behind it, then queue ``entry`` for the next head."""
        fifo.popleft()
        while fifo and fifo[0][2] is None:
            fifo.popleft()
        if fifo:
            head = fifo[0]
            entry[0] = head[0]
            entry[1] = head[1]
            self._push_head(entry)
        else:
            del self._timeouts[fifo.timeout]

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
                fifo = timer[4]
                if fifo is None:
                    continue  # a cancelled entry
                # a timeout FIFO's head: a live record fires, a dead one
                # moves no clock; either way the next head is queued
                waiter = fifo[0][2]
                if waiter is None:
                    self._advance(fifo, timer)
                    continue
                if timer[0] > deadline:
                    self._next = timer
                    break
                self.now = timer[0]
                try:
                    waiter._on_timeout()
                finally:
                    # also when the woken process raised: the FIFO keeps
                    # a head, so a caller that runs on loses no timeout
                    self._advance(fifo, timer)
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
        if state is _DONE or state is _KILLED:
            return
        proc.state = _RUNNING
        proc._cleanup = None
        try:
            request = proc.gen.send(send_value)
        except StopIteration as stop:
            proc.state = _DONE
            proc.result = stop.value
            return
        cls = request.__class__
        if cls is Sleep:
            proc.state = _WAITING
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
        proc.state = _WAITING
        if event.fired:
            # Resume via the run-queue (not inline) to keep ordering uniform.
            proc._cleanup = self._schedule_step(0.0, proc, (True, event.value))
            return
        waiter: _EventWaiter
        if recheck is None or timeout is None:
            waiter = _EventWaiter(self, proc, event)
        else:
            waiter = _RecheckWaiter(self, proc, event, timeout, recheck)
        event.add_callback(waiter)
        if timeout is not None:
            waiter.timer = self._arm(timeout, waiter)
        proc._cleanup = waiter

    def _wait_channel(self, proc: Process, channel: Channel,
                      timeout: Optional[float]) -> None:
        """Block ``proc`` on a channel take (no per-get Event allocation)."""
        proc.state = _WAITING
        items = channel._items
        if items:
            # An item landed since the generator's own fast-path check.
            proc._cleanup = self._schedule_step(0.0, proc, (True, items.popleft()))
            return
        waiter = _ChannelWaiter(self, proc, channel)
        channel._getters.append(waiter)
        if timeout is not None:
            waiter.timer = self._arm(timeout, waiter)
        proc._cleanup = waiter
