"""Parallel scenario-sweep engine for the experiment harness.

The paper's headline results (Figure 4, Table I, the ablations, the ULFM
comparison) are sweeps of many *independent* fault scenarios: each one is
a self-contained deterministic simulation, so they can fan out across a
process pool with no change in output.  This module provides that engine:

* :class:`SweepTask` — one scenario, identified by an
  ``(experiment, scenario, k)`` key.  The key is the task's *identity*:
  it orders result collection and derives the task's RNG seed, so the
  outcome never depends on which worker ran it or when.
* :func:`scenario_seed` — the shared seed-derivation rule (SHA-256 over
  the key), used by every experiment that consumes randomness.
* :func:`run_sweep` — runs tasks across ``jobs`` worker processes and
  returns the results *in task order*.  With ``jobs=1`` (the default)
  tasks run inline in the calling process — byte-identical to the
  historical serial drivers.  Environments without working process pools
  fall back to the serial path automatically, again with identical
  output.

Task functions must be module-level callables (picklable) and their
results travel back through pickle; experiment drivers therefore strip
heavyweight per-run objects (e.g. ``FTRunResult``) inside the worker
unless explicitly asked to keep them.
"""

from __future__ import annotations

import hashlib
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SweepTask", "SweepTrace", "run_sweep", "run_traced_sweep",
           "resolve_jobs", "scenario_seed"]


def scenario_seed(experiment: str, scenario: str, k: int = 0) -> int:
    """Deterministic 63-bit seed derived from a scenario's identity.

    Stable across runs, platforms, Python hash randomisation and —
    crucially — across serial vs. parallel execution, because it depends
    only on the ``(experiment, scenario, k)`` key, never on execution
    order or worker identity.
    """
    digest = hashlib.sha256(f"{experiment}:{scenario}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class SweepTask:
    """One independent scenario computation.

    ``fn`` must be a module-level callable; ``args``/``kwargs`` must be
    picklable.  ``(experiment, scenario, k)`` is the task's identity —
    two tasks of one sweep must not share it.
    """

    experiment: str
    scenario: str
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    k: int = 0

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.experiment, self.scenario, self.k)

    @property
    def seed(self) -> int:
        """The task's :func:`scenario_seed`."""
        return scenario_seed(self.experiment, self.scenario, self.k)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all cores."""
    if jobs is None or jobs == 0:
        return max(1, os.cpu_count() or 1)
    return max(1, int(jobs))


def _run_task(task: SweepTask) -> Any:
    return task.fn(*task.args, **task.kwargs)


def _pool_context() -> mp.context.BaseContext:
    # fork reuses the warm interpreter (no per-worker numpy re-import);
    # platforms without it (Windows, macOS default) get spawn.
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def _map_tasks(fn: Callable[[Any], Any], items: List[Any],
               jobs: Optional[int]) -> List[Any]:
    """The shared executor: map ``fn`` over ``items`` in item order.

    ``jobs=1`` runs inline; otherwise a fork-based process pool, degrading
    silently to the serial path on platforms without working pools — the
    results (and traces) are identical either way, because everything
    order-dependent is keyed on the task identity, never on the worker.
    """
    n_jobs = min(resolve_jobs(jobs), len(items)) if items else 1
    if n_jobs <= 1:
        return [fn(item) for item in items]
    try:
        pool = ProcessPoolExecutor(max_workers=n_jobs,
                                   mp_context=_pool_context())
    except (OSError, PermissionError, ValueError):
        return [fn(item) for item in items]
    with pool:
        # map() preserves submission order regardless of completion order
        return list(pool.map(fn, items))


def _check_unique(task_list: List[SweepTask]) -> None:
    seen = set()
    for task in task_list:
        if task.key in seen:
            raise ValueError(f"duplicate sweep task key {task.key!r}")
        seen.add(task.key)


def run_sweep(tasks: Iterable[SweepTask], jobs: Optional[int] = 1) -> List[Any]:
    """Run every task; return their results in task order.

    ``jobs=1`` runs inline (the serial reference path); ``jobs=None`` or
    ``0`` uses every core.  Worker exceptions propagate to the caller.
    If the platform cannot create a process pool at all (sandboxes
    without ``fork``/semaphores), the sweep silently degrades to the
    serial path — the results are identical either way.
    """
    task_list = list(tasks)
    _check_unique(task_list)
    return _map_tasks(_run_task, task_list, jobs)


@dataclass(frozen=True)
class SweepTrace:
    """One task's captured trace (``repro.obs`` events, emission order)."""

    experiment: str
    scenario: str
    k: int
    events: Tuple = ()
    #: events emitted per type, evicted ones included
    emitted: Dict[str, int] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        """Ring evictions (pings, solver iterations, checkpoint spans);
        lifecycle milestones are never evicted."""
        return sum(self.emitted.values()) - len(self.events)

    @property
    def label(self) -> str:
        return (self.scenario if self.k == 0
                else f"{self.scenario}#{self.k}")


def _run_task_traced(item: Tuple[SweepTask, int],
                     ) -> Tuple[Any, Tuple, Dict[str, int]]:
    """Worker wrapper: fresh tracer around one task, events shipped back."""
    from repro.obs import tracer as obs_tracer

    task, capacity = item
    tracer = obs_tracer.install(capacity=capacity)
    try:
        result = _run_task(task)
    finally:
        obs_tracer.deactivate()
    # TraceEvent is a namedtuple of plain values — picklable as-is
    return result, tuple(tracer.events()), tracer.emitted


def run_traced_sweep(tasks: Iterable[SweepTask], jobs: Optional[int] = 1,
                     capacity: Optional[int] = None,
                     ) -> Tuple[List[Any], List[SweepTrace]]:
    """Like :func:`run_sweep`, but with per-task structured tracing.

    Each task runs with its own fresh :class:`repro.obs.Tracer` installed
    (so parallel workers never share a buffer) and returns
    ``(results, traces)``, both in task order — the merged trace is
    therefore deterministic and byte-identical serial vs. parallel.
    ``capacity`` sizes each tracer's ring (default
    :data:`~repro.obs.tracer.DEFAULT_CAPACITY`).
    """
    from repro.obs.tracer import DEFAULT_CAPACITY

    task_list = list(tasks)
    _check_unique(task_list)
    cap = capacity or DEFAULT_CAPACITY
    outs = _map_tasks(_run_task_traced, [(t, cap) for t in task_list], jobs)
    results = [result for result, _, _ in outs]
    traces = [
        SweepTrace(experiment=t.experiment, scenario=t.scenario, k=t.k,
                   events=events, emitted=emitted)
        for t, (_, events, emitted) in zip(task_list, outs)
    ]
    return results, traces
