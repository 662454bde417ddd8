"""The dedicated fault-detector process (paper §III-B/§IV-A, Listing 1).

This module implements the paper's *fault detection* mechanism: a
dedicated FD process — one of the pre-allocated spares — periodically
pings every process it does not already know to be dead (the paper's
``avoid_list``).  GASPI deliberately has no built-in fault detection on
the failure-free path; instead, ``gaspi_proc_ping`` diagnoses a broken
channel only after the transport's error timeout, which is why the
healthy-case overhead is zero by construction (paper §III-A).  A ping
returning ``GASPI_ERROR`` marks a fail-stop; the FD then assigns rescues
from the spare pool, updates the authoritative logical→physical rank map
and broadcasts the failure notice into every healthy rank's control block
by one-sided writes (§IV-B) — workers never block on detection, they read
a local flag.

Parameter ↔ paper-symbol mapping:

===========================  ====================================================
parameter                    paper quantity
===========================  ====================================================
``cfg.fd_scan_period``       the FD's health-check interval (§IV-A; 3 s in
                             the paper's runs — dominates detection latency)
``cfg.comm_timeout``         the GASPI timeout passed to blocking calls
                             (§III-A, ``GASPI_TIMEOUT`` discipline; 1 s)
``cfg.scan_setup_overhead``  fixed per-scan cost before the first ping
                             (Table I's offset at small node counts)
``cfg.fd_threads``           the threaded-FD width (§V-C: *k* simultaneous
                             failures detected at roughly the cost of one)
transport error timeout      the channel-teardown delay a dead target adds
                             to its first ping (~3.5 s; `cluster.transport`)
===========================  ====================================================

Detection latency as measured in Figure 4/Table I therefore decomposes as
``fd_scan_period/2`` (expected wait for the next scan) + scan time +
error timeout — the flat-in-node-count sum the paper reports.

Observability (``repro.obs``): the ``detection`` instant at scan
resolution and the end of the notice broadcast are folded into the run's
failure log (``sim.failure_log``); the tracer mirrors them as a
``detection`` event and a ``broadcast_flags`` span, next to per-ping
``ping`` events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Tuple

from repro.sim import Sleep
from repro.gaspi.constants import GASPI_TEST, ReturnCode
from repro.gaspi.context import GaspiContext
from repro.ft import rankstate
from repro.ft.config import FTConfig
from repro.ft.control import ControlBlock
from repro.ft.roles import Role
from repro.ft.spares import SparePool

#: payload of the passive message that shuts the FD down at job end
FD_STOP = "fd-stop"


@dataclass
class DetectionEvent:
    """One detected failure batch (for the overhead benchmarks)."""

    epoch: int
    t_detected: float          # when the scan resolved the failures
    t_acknowledged: float      # when the notice broadcast completed
    failed: Tuple[int, ...]
    rescues: Tuple[int, ...]
    fd_joined: bool


@dataclass
class FDStats:
    """What the FD measured while running (Table I inputs)."""

    scan_times: List[float] = field(default_factory=list)
    detections: List[DetectionEvent] = field(default_factory=list)
    outcome: str = "running"

    @property
    def avg_scan_time(self) -> float:
        return sum(self.scan_times) / len(self.scan_times) if self.scan_times else 0.0


def scan_once(ctx: GaspiContext, targets: List[int], fd_threads: int = 1,
              ) -> Generator[Any, Any, List[int]]:
    """Generator: ping every target; returns the list that failed.

    The whole round runs as **one** batched probe sweep
    (:meth:`GaspiContext.proc_ping_sweep`): pings still go out in groups
    of ``fd_threads`` — concurrently within a group (the threaded-FD
    behaviour), sequentially between groups — but the FD process blocks a
    single time for the round instead of once per target.  Per-ping
    ``ping`` tracer events are emitted from the sweep's recorded per-probe
    timings, so observability output is unchanged.
    """
    failed: List[int] = []
    if not targets:
        return failed
    ret, results = yield from ctx.proc_ping_sweep(targets, fd_threads)
    if ret is not ReturnCode.SUCCESS:
        return failed
    tracer = ctx.tracer
    if not tracer.enabled:
        # all-alive rounds (the overwhelmingly common case) finish here
        # without touching a single per-target Python object
        return results.failed
    for rank, alive, t0, t1 in results:
        if not alive:
            failed.append(rank)
        if tracer.enabled:
            tracer.emit(t1, ctx.rank, "ping", dur=t1 - t0,
                        target=rank, alive=bool(alive))
    return failed


def fd_process(ctx: GaspiContext, cfg: FTConfig,
               block: Optional[ControlBlock] = None,
               takeover: bool = False,
               ) -> Generator[Any, Any, Tuple[str, dict]]:
    """Generator: the fault-detector main loop.

    Returns ``(outcome, stats)`` where outcome is

    * ``"stopped"`` — the application signalled completion;
    * ``"rescue"`` — the spare pool ran dry and this FD process joined the
      worker group as the final rescue (fault tolerance ends here);
    * ``"unrecoverable"`` — more failures than rescues; the notice was
      still broadcast so workers can terminate cleanly.

    With ``takeover=True`` (FD-watchdog extension) the process continues
    from its existing control block instead of initialising a fresh one.
    """
    if block is None:
        block = ControlBlock(ctx, cfg)
        if not takeover:
            block.init_local()
    # the FD mutates its status view in place as deaths are observed, so
    # it takes the writable (materialised) array, not the shared template
    statuses = block.statuses_rw()
    if takeover:
        statuses[ctx.rank] = Role.FD
    pool = SparePool(statuses, ctx.rank)
    rank_map_arr = block.rank_map_array()
    avoid = rankstate.avoid_mask(statuses)
    # the target list is derived once from the avoid mask and reused
    # across scans; it is invalidated only when the mask changes
    targets: Optional[List[int]] = None
    epoch = block.epoch
    stats = FDStats()

    while True:
        # non-blocking stop check (the app's completion signal)
        ret, _, payload = yield from ctx.passive_receive(GASPI_TEST)
        if (ret is ReturnCode.SUCCESS and payload == FD_STOP) or block.done:
            stats.outcome = "stopped"
            return ("stopped", stats)

        yield Sleep(cfg.fd_scan_period)

        if targets is None:
            targets = rankstate.scan_targets(avoid, ctx.rank)
        t0 = ctx.now
        yield Sleep(cfg.scan_setup_overhead)
        failed_now = yield from scan_once(ctx, targets, cfg.fd_threads)
        stats.scan_times.append(ctx.now - t0)
        if not failed_now:
            continue

        t_detected = ctx.now
        rankstate.mark_avoided(avoid, failed_now)
        targets = None  # avoid mask changed: re-derive before the next scan
        failed_workers, failed_others = rankstate.split_failed(failed_now, rank_map_arr)
        for rank in failed_others:
            statuses[rank] = Role.FAILED  # dead idles just shrink the pool

        if not failed_workers:
            continue  # no worker died: nothing to acknowledge

        assignment = pool.assign(failed_workers)
        epoch += 1
        rank_map_arr = rankstate.apply_rescues(
            rank_map_arr, assignment.failed, assignment.rescues)
        block.compose_notice(epoch, assignment.failed, assignment.rescues,
                             statuses, rank_map_arr)
        healthy = rankstate.healthy_targets(avoid, statuses)
        failures = ctx.world.sim.failure_log
        failures.fold(t_detected, ctx.rank, "detection", epoch=epoch,
                      failed=assignment.failed, rescues=assignment.rescues)
        tracer = ctx.tracer
        if tracer.enabled:
            tracer.emit(t_detected, ctx.rank, "detection", epoch=epoch,
                        failed=list(assignment.failed),
                        rescues=list(assignment.rescues),
                        fd_joined=assignment.fd_joined)
        yield from block.broadcast(healthy, timeout=cfg.comm_timeout)
        failures.fold(ctx.now, ctx.rank, "broadcast_flags", epoch=epoch)
        if tracer.enabled:
            tracer.emit(ctx.now, ctx.rank, "broadcast_flags",
                        dur=ctx.now - t_detected, epoch=epoch,
                        n_targets=len(healthy))
        stats.detections.append(DetectionEvent(
            epoch=epoch,
            t_detected=t_detected,
            t_acknowledged=ctx.now,
            failed=tuple(assignment.failed),
            rescues=tuple(assignment.rescues),
            fd_joined=assignment.fd_joined,
        ))

        if assignment.fd_joined:
            stats.outcome = "rescue"
            return ("rescue", stats)
        if not assignment.recoverable:
            stats.outcome = "unrecoverable"
            return ("unrecoverable", stats)
