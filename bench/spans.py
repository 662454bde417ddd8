"""Per-layer wall-time spans, installed on the program from outside.

The traced run replaces public entry points of the program with span
proxies at runtime; nothing in ``src/`` knows about them.  Three kinds of
span share one stack, so every span's *self* time is its duration minus
the part its child spans cover:

* **entry spans** — the named layer boundaries in :data:`ENTRIES`.  A
  generator entry (``yield from ctx.allreduce(...)``) is wrapped in a
  :class:`GenSpan` that times only the resumptions of the generator, so
  virtual-time waits between resumptions cost nothing; it also records
  ``virt_s``, the virtual ``sim.now`` elapsed from call to completion.
* **process and callback spans** — generators given to
  ``Simulator.spawn``/``spawn_at`` and callbacks given to
  ``Simulator.schedule``/``schedule_at``/``Event.add_callback`` are
  charged to the layer of the module that defined them.
* **the kernel span** — ``Simulator.run`` itself, whose self time is the
  discrete-event dispatch loop (layer ``sim``).

Entry spans of the ``gaspi`` layer also classify the GASPI return code
(``SUCCESS``/``TIMEOUT``) the call produced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layers, named after the program's packages; code of any other package
#: (model kernels, experiment drivers, observability) counts as ``app``
LAYERS = ("sim", "cluster", "gaspi", "ft", "checkpoint", "spmvm", "solvers",
          "app")

#: metric key -> the functions it wraps, as ``module:qualname``
ENTRIES: Dict[str, Tuple[str, ...]] = {
    "gaspi.allreduce": ("repro.gaspi.context:GaspiContext.allreduce",),
    "gaspi.group_commit": ("repro.gaspi.context:GaspiContext.group_commit",),
    "gaspi.write_list_notify": (
        "repro.gaspi.context:GaspiContext.write_list_notify",),
    "gaspi.read_list": ("repro.gaspi.context:GaspiContext.read_list",),
    "gaspi.GaspiWorld": ("repro.gaspi.runtime:GaspiWorld.__init__",),
    "ft.scan_once": ("repro.ft.detector:scan_once",),
    "ft.perform_recovery": ("repro.ft.recovery:perform_recovery",),
    "ft.agree_min": ("repro.ft.app:FTContext.agree_min",),
    "cluster.transfer_time_round": (
        "repro.cluster.network:Network.transfer_time_round",),
    "cluster.post_rdma_list": ("repro.cluster.transport:Transport.post_rdma_list",),
    "cluster.post_rdma_round": (
        "repro.cluster.transport:Transport.post_rdma_round",),
    "cluster.post_rdma_scatter": (
        "repro.cluster.transport:Transport.post_rdma_scatter",),
    "cluster.post_ping_sweep": (
        "repro.cluster.transport:Transport.post_ping_sweep",),
    "cluster.Machine": ("repro.cluster.machine:Machine.__init__",),
    "checkpoint.write_checkpoint": (
        "repro.checkpoint.manager:CheckpointLib.write_checkpoint",
        "repro.checkpoint.replicated:ReplicatedCheckpointLib.write_checkpoint",
        "repro.checkpoint.replicated:PfsCheckpointLib.write_checkpoint",
    ),
    "checkpoint.read_checkpoint": (
        "repro.checkpoint.manager:CheckpointLib.read_checkpoint",
        "repro.checkpoint.replicated:ReplicatedCheckpointLib.read_checkpoint",
        "repro.checkpoint.replicated:PfsCheckpointLib.read_checkpoint",
    ),
    "checkpoint.commit_round": (
        "repro.checkpoint.manager:CheckpointManager.commit_round",),
    "spmvm.multiply": ("repro.spmvm.spmv:SpMVMEngine.multiply",),
    "spmvm.csr_spmv": ("repro.spmvm.csr:CSRMatrix.spmv",),
    "spmvm.distribute_matrix": ("repro.spmvm.dist_matrix:distribute_matrix",),
    "solvers.eigenvalues": (
        "repro.solvers.tridiag:lanczos_matrix_eigenvalues",),
    "solvers.step": ("repro.solvers.lanczos:DistributedLanczos.step",),
}


def layer_of_module(module: Optional[str]) -> str:
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "app"


def _module_of_callable(fn: Any) -> Optional[str]:
    module = getattr(fn, "__module__", None)
    return module if isinstance(module, str) else type(fn).__module__


class Tracer:
    """Span stack and per-key counters of one traced pass.

    ``clock`` is injectable so tests can check the self-time arithmetic
    on a synthetic nest of spans.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.virt_s: Dict[str, float] = defaultdict(float)
        self.ok: Dict[str, int] = defaultdict(int)
        self.timeouts: Dict[str, int] = defaultdict(int)
        #: discrete events scheduled inside ``Simulator.run``
        self.events = 0
        #: the simulator currently being built or run (virtual clock source)
        self.sim: Any = None
        self._stack: List[List[float]] = []

    # ------------------------------------------------------------------
    def timed(self, key: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one resumption of span ``key``."""
        stack = self._stack
        frame = [0.0]  # time covered by child spans
        stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = self.clock() - t0
            stack.pop()
            self.self_s[key] += dt - frame[0]
            if stack:
                stack[-1][0] += dt

    def call(self, key: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """One call of span ``key``; a returned generator becomes a span."""
        self.calls[key] += 1
        result = self.timed(key, fn, *args, **kwargs)
        if type(result) is GeneratorType:
            return GenSpan(self, key, result)
        self.outcome(key, result)
        return result

    def outcome(self, key: str, value: Any) -> None:
        """Classify a ``gaspi`` entry's return code."""
        if not key.startswith("gaspi."):
            return
        code = value[0] if type(value) is tuple and value else value
        name = getattr(code, "name", None)
        if name == "SUCCESS":
            self.ok[key] += 1
        elif name == "TIMEOUT":
            self.timeouts[key] += 1

    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-entry and per-layer metrics of the pass (see README)."""
        out: Dict[str, float] = {}
        for key in ENTRIES:
            out[f"{key}.calls"] = self.calls.get(key, 0)
            out[f"{key}.self_s"] = self.self_s.get(key, 0.0)
            out[f"{key}.virt_s"] = self.virt_s.get(key, 0.0)
        attributed = 0.0
        for layer in LAYERS:
            keys = [k for k in set(self.calls) | set(self.self_s)
                    if k.split(".")[0] == layer]
            self_s = sum(self.self_s.get(k, 0.0) for k in keys)
            attributed += self_s
            out[f"{layer}.calls"] = sum(self.calls.get(k, 0) for k in keys)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / wall_s
        out["sim.events"] = self.events
        out["sim.ns_per_event"] = (out["sim.self_s"] / self.events * 1e9
                                   if self.events else 0.0)
        commits = self.calls.get("gaspi.group_commit", 0)
        out["gaspi.group_commit.success_ratio"] = (
            self.ok.get("gaspi.group_commit", 0) / commits if commits else 0.0)
        out["gaspi.timeouts"] = sum(self.timeouts.values())
        out["trace.attributed_share"] = attributed / wall_s
        return out

    def counts(self) -> Dict[str, float]:
        """The deterministic part of the trace: calls, virt_s, events."""
        return {"calls": dict(self.calls), "virt_s": dict(self.virt_s),
                "ok": dict(self.ok), "timeouts": dict(self.timeouts),
                "events": self.events}


class GenSpan:
    """Generator proxy: times each resumption of ``gen`` as span ``key``.

    Forwards ``send``/``throw``/``close`` and the return value (carried by
    ``StopIteration``), so it is a drop-in for ``yield from`` and for the
    kernel's process stepping.
    """

    __slots__ = ("_tracer", "_key", "_gen", "_sim", "_start", "_done")

    def __init__(self, tracer: Tracer, key: str, gen: Any,
                 sim: Any = None) -> None:
        self._tracer = tracer
        self._key = key
        self._gen = gen
        self._sim = sim if sim is not None else tracer.sim
        self._start = self._sim.now if self._sim is not None else 0.0
        self._done = False

    def __iter__(self) -> "GenSpan":
        return self

    def __next__(self) -> Any:
        return self._resume(self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._resume(self._gen.throw, *exc)

    def close(self) -> None:
        if self._done:
            return
        try:
            self._tracer.timed(self._key, self._gen.close)
        finally:
            self._finish(None)

    def _resume(self, method: Callable, *args: Any) -> Any:
        try:
            return self._tracer.timed(self._key, method, *args)
        except StopIteration as stop:
            self._finish(stop.value)
            raise
        except BaseException:
            self._finish(None)
            raise

    def _finish(self, value: Any) -> None:
        if self._done:
            return
        self._done = True
        tracer = self._tracer
        if self._sim is not None:
            tracer.virt_s[self._key] += self._sim.now - self._start
        tracer.outcome(self._key, value)


class _CallbackSpan:
    """A scheduled callback, timed as a span of its defining layer."""

    __slots__ = ("_tracer", "_key", "_fn")

    def __init__(self, tracer: Tracer, key: str, fn: Callable) -> None:
        self._tracer = tracer
        self._key = key
        self._fn = fn

    def __call__(self, *args: Any) -> Any:
        tracer = self._tracer
        tracer.calls[self._key] += 1
        return tracer.timed(self._key, self._fn, *args)


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``module:Class.attr`` -> (owner, attribute name, function)."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for name in path:
        owner = getattr(owner, name)
    fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    if not callable(fn) or isinstance(fn, (staticmethod, classmethod)):
        raise TypeError(f"{target} is not a plain function")
    return owner, attr, fn


def _overrides(cls: type, attr: str) -> List[type]:
    """``cls`` and every subclass that defines its own ``attr``."""
    found, stack, seen = [], [cls], set()
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        if attr in vars(c):
            found.append(c)
        stack.extend(c.__subclasses__())
    return found


class Installation:
    """Context manager: traces into ``tracer`` while the block runs, then
    restores every patched attribute."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _entry_proxy(self, key: str, fn: Callable) -> Callable:
        call = self.tracer.call

        @functools.wraps(fn)
        def proxy(*args: Any, **kwargs: Any) -> Any:
            return call(key, fn, *args, **kwargs)

        return proxy

    def install_entries(self) -> None:
        # resolving imports the target modules, which may bind entries into
        # other modules' globals: list the modules only afterwards
        resolved = [(key, _resolve(target))
                    for key, targets in ENTRIES.items() for target in targets]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "repro"
                                         or name.startswith("repro."))]
        for key, (owner, attr, fn) in resolved:
            if isinstance(owner, type):
                for cls in _overrides(owner, attr):
                    self._patch(cls, attr,
                                self._entry_proxy(key, vars(cls)[attr]))
                continue
            # a module-level function: its module and every repro module
            # global bound to the same object (from-imports, re-exports)
            proxy = self._entry_proxy(key, fn)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, proxy)

    def install_kernel(self) -> None:
        from repro.sim import Event, Simulator

        tracer = self.tracer
        run, spawn, spawn_at = Simulator.run, Simulator.spawn, Simulator.spawn_at
        schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
        add_callback = Event.add_callback

        def traced_run(sim, *args, **kwargs):
            tracer.sim = sim
            before = sim.scheduled_count
            try:
                tracer.calls["sim"] += 1
                return tracer.timed("sim", run, sim, *args, **kwargs)
            finally:
                tracer.events += sim.scheduled_count - before

        def process_span(sim, gen):
            tracer.sim = sim
            if type(gen) is not GeneratorType:
                return gen  # already an entry span, or a custom iterator
            key = layer_of_module(gen.gi_frame.f_globals.get("__name__"))
            tracer.calls[key] += 1
            return GenSpan(tracer, key, gen, sim)

        def traced_spawn(sim, gen, name=""):
            return spawn(sim, process_span(sim, gen), name)

        def traced_spawn_at(sim, at, gen, name=""):
            return spawn_at(sim, at, process_span(sim, gen), name)

        def callback_span(fn):
            if type(fn) is _CallbackSpan:  # schedule_at delegates to schedule
                return fn
            module = _module_of_callable(fn)
            # the kernel's own waiter records stay unwrapped: the kernel
            # deregisters them by identity
            if module is not None and module.startswith("repro.sim"):
                return fn
            return _CallbackSpan(tracer, layer_of_module(module), fn)

        def traced_schedule(sim, delay, fn):
            return schedule(sim, delay, callback_span(fn))

        def traced_schedule_at(sim, at, fn):
            return schedule_at(sim, at, callback_span(fn))

        def traced_add_callback(event, cb):
            return add_callback(event, callback_span(cb))

        self._patch(Simulator, "run", traced_run)
        self._patch(Simulator, "spawn", traced_spawn)
        self._patch(Simulator, "spawn_at", traced_spawn_at)
        self._patch(Simulator, "schedule", traced_schedule)
        self._patch(Simulator, "schedule_at", traced_schedule_at)
        self._patch(Event, "add_callback", traced_add_callback)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Installation":
        try:
            self.install_entries()
            self.install_kernel()
        except BaseException:
            self.remove()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self.remove()
