"""The fault-tolerant application driver (paper Fig. 3).

At startup the physical ranks split into workers, idle spares and the FD.
Idles poll until designated as rescues; the FD scans until the
application completes or joins the workers as the very last rescue.
Every rank that computes runs one loop, :func:`worker_loop`, with one
:class:`FTContext` for the whole run.  Every blocking communication
checks the local failure-ack flag (its :class:`Team`'s guard), and a
posted notice unwinds the loop into the recovery stage: rebuild the
worker group (rescues adopt failed identities), agree on the newest
globally consistent checkpoint version, restore, redo the lost work and
continue.

Applications implement :class:`FTProgram` (setup / restore / run);
:func:`run_ft_application` wires everything onto the simulated cluster.
"""

from __future__ import annotations

import abc
import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.sim import Sleep
from repro.cluster import FaultPlan, MachineSpec
from repro.gaspi.config import GaspiConfig
from repro.gaspi.constants import GASPI_BLOCK, GASPI_OP_MIN, ReturnCode
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.gaspi.runtime import GaspiRun, run_gaspi
from repro.checkpoint.replicated import make_checkpoint_lib
from repro.spmvm.ft_hooks import FailureAcknowledged
from repro.spmvm.team import Team
from repro.ft import rankstate
from repro.ft.config import FTConfig
from repro.ft.control import ControlBlock, FailureNotice
from repro.ft.detector import FD_STOP, FDStats, fd_process
from repro.ft.recovery import perform_recovery
from repro.ft.roles import Role
from repro.obs.timeline import FailureRecord, milestone

SETUP_VERSION = 0


class FTContext:
    """Per-rank services handed to the application program: one per rank
    for the whole run, rebound to every team a recovery rebuilds."""

    def __init__(self, ctx: GaspiContext, cfg: FTConfig, team: Team) -> None:
        self.ctx = ctx
        self.cfg = cfg
        self.team = team
        # the team's interned membership: the libraries adopt it as-is
        participants = team.group.members
        state_cfg = dataclasses.replace(cfg.checkpoint, tag="state")
        setup_cfg = dataclasses.replace(cfg.checkpoint, tag="setup",
                                        keep_versions=1)
        self.state_ckpt = make_checkpoint_lib(ctx, team.logical_rank,
                                              participants, config=state_cfg)
        self.setup_ckpt = make_checkpoint_lib(ctx, team.logical_rank,
                                              participants, config=setup_cfg)
        #: free-form per-rank counters (e.g. iterations executed across
        #: recoveries)
        self.counters: Dict[str, float] = {}

    def rebind(self, team: Team) -> None:
        """Adopt the team a recovery rebuilt (the survivor side)."""
        self.team = team
        self.state_ckpt.refresh(team.group.members)
        self.setup_ckpt.refresh(team.group.members)

    @property
    def epoch(self) -> int:
        """The recovery epoch of the current team: its group's tag."""
        return self.team.group.tag

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    @property
    def now(self) -> float:
        return self.ctx.now

    # ------------------------------------------------------------------
    # checkpoint services
    # ------------------------------------------------------------------
    def checkpoint(self, version: int, payload: Dict[str, Any],
                   nominal_bytes: Optional[int] = None,
                   ) -> Generator[Any, Any, None]:
        """Generator: periodic state checkpoint (local + async neighbor)."""
        yield from self.state_ckpt.write_checkpoint(version, payload, nominal_bytes)

    def write_setup_checkpoint(self, payload: Dict[str, Any],
                               nominal_bytes: Optional[int] = None,
                               ) -> Generator[Any, Any, None]:
        """Generator: the one-time post-pre-processing checkpoint."""
        yield from self.setup_ckpt.write_checkpoint(SETUP_VERSION, payload,
                                                    nominal_bytes)

    def agree_min(self, value: int) -> Generator[Any, Any, int]:
        """Generator: team-wide integer MIN (a guarded team allreduce)."""
        return self.team.allreduce(int(value), GASPI_OP_MIN)

    def read_setup_checkpoint(
        self,
    ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        """Generator: the setup checkpoint, or ``None`` if the team agreed
        at least one rank cannot restore it (then everyone redoes setup)."""
        mine = self.setup_ckpt.restorable_latest()
        agreed = yield from self.agree_min(1 if mine >= SETUP_VERSION else 0)
        if agreed == 0:
            return None
        _, payload = yield from self.setup_ckpt.read_checkpoint(SETUP_VERSION)
        return payload


class FTProgram(abc.ABC):
    """The application contract of the Fig. 3 flowchart."""

    @abc.abstractmethod
    def setup(self, ftx: FTContext) -> Generator[Any, Any, Any]:
        """Generator: pre-processing from scratch; returns the work state.

        Should end by writing the setup checkpoint
        (``yield from ftx.write_setup_checkpoint(...)``).
        """

    @abc.abstractmethod
    def restore(self, ftx: FTContext,
                state_payload: Optional[Dict[str, Any]],
                ) -> Generator[Any, Any, Any]:
        """Generator: rebuild the work state after recovery.

        ``state_payload`` is the agreed periodic checkpoint (``None`` if no
        consistent version existed — restart from the beginning).
        """

    @abc.abstractmethod
    def run(self, ftx: FTContext, work: Any) -> Generator[Any, Any, Any]:
        """Generator: the compute loop; returns the program result.

        Must perform periodic checkpoints via ``ftx.checkpoint`` and let
        :class:`FailureAcknowledged` propagate out of blocking calls.
        """


# ----------------------------------------------------------------------
# role loops
# ----------------------------------------------------------------------
def _announce_done(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock):
    """Generator: publish completion to the idle spares and the FD.

    *Every* worker announces (writes the done flag into each non-worker
    rank's control block and sends the FD its stop message): announcement
    must not hinge on any single rank surviving the final instants of the
    run.  The writes and the stop are idempotent.
    """
    block.mark_done_local()
    targets = rankstate.ranks_with_roles(block.statuses(),
                                         (Role.IDLE, Role.FD))
    yield from block.broadcast(targets, timeout=cfg.comm_timeout)
    # re-read: a notice may have landed during the broadcast
    for rank in rankstate.ranks_with_roles(block.statuses(), (Role.FD,)):
        yield from ctx.passive_send(rank, FD_STOP, timeout=cfg.comm_timeout)


def _rebuild_context(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
                     notice: FailureNotice, ftx: Optional[FTContext]):
    """Generator: run Listing 2; a survivor rebinds its context to the new
    team, a rescue (``ftx is None``) builds its own around it."""
    team = yield from perform_recovery(
        ctx, cfg, block, notice,
        old_group=ftx.team.group if ftx is not None else None,
    )
    if ftx is None:
        return FTContext(ctx, cfg, team)
    ftx.rebind(team)
    return ftx


def worker_loop(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
                program: FTProgram, ftx: Optional[FTContext] = None,
                notice: Optional[FailureNotice] = None,
                ) -> Generator[Any, Any, Dict[str, Any]]:
    """Generator: compute / recover until completion (worker side of Fig. 3).

    An initial worker enters with its ``ftx``; a rescue enters with the
    ``notice`` that promoted it, and rebuilds for it before restoring.
    Records the worker's lifecycle milestones (folded into the run's
    failure log, and traced): ``failure_ack`` when a notice unwinds it,
    ``version_agreed`` when the team agreed the version to restore
    (before reading it), and the epoch-tagged ``restore`` and
    ``rollback`` once the program resumed.
    """
    sim = ctx.world.sim
    while True:
        try:
            if notice is None:
                # the initial group commit runs inside the recovery scope:
                # a rank dying during startup unwinds the survivors into a
                # regular recovery instead of spinning on commit timeouts
                yield from ftx.team.commit()
                work = yield from program.setup(ftx)
            else:
                ftx = yield from _rebuild_context(ctx, cfg, block, notice, ftx)
                t_restore = ctx.now
                # the newest checkpoint version every rank can restore
                version = yield from ftx.agree_min(
                    ftx.state_ckpt.restorable_latest())
                milestone(sim, ctx.now, ctx.rank, "version_agreed",
                          epoch=ftx.epoch, version=version)
                payload = None
                if version >= 0:
                    _, payload = yield from ftx.state_ckpt.read_checkpoint(
                        version)
                work = yield from program.restore(ftx, payload)
                milestone(sim, ctx.now, ctx.rank, "restore",
                          dur=ctx.now - t_restore, epoch=ftx.epoch,
                          version=version)
                milestone(sim, ctx.now, ctx.rank, "rollback",
                          epoch=ftx.epoch, version=version)
            result = yield from program.run(ftx, work)
            # completion consensus: nobody declares the job done until the
            # whole team reached this point — a member dying in its final
            # iterations unwinds everyone into a regular recovery instead
            # of silently losing its share of the result
            yield from ftx.team.barrier()
            yield from _announce_done(ctx, cfg, block)
            return {
                "status": "done",
                "logical_rank": ftx.team.logical_rank,
                "result": result,
                "counters": dict(ftx.counters),
                "t_done": ctx.now,
            }
        except FailureAcknowledged as ack:
            notice = ack.notice
            milestone(sim, ctx.now, ctx.rank, "failure_ack",
                      epoch=notice.epoch)
            if not notice.recoverable:
                yield from _announce_done(ctx, cfg, block)
                return {
                    "status": "unrecoverable",
                    "logical_rank": ftx.team.logical_rank,
                    "counters": dict(ftx.counters),
                    "t_done": ctx.now,
                }


def idle_loop(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
              program: FTProgram) -> Generator[Any, Any, Dict[str, Any]]:
    """Generator: wait to be needed (idle side of Fig. 3)."""
    seen_epoch = 0
    is_watchdog = cfg.fd_redundancy and ctx.rank == cfg.watchdog_rank
    next_fd_check = ctx.now + cfg.fd_scan_period
    poll = Sleep(cfg.idle_poll)
    while True:
        if block.done:
            return {"status": "idle-exit"}
        notice = block.check_failure(seen_epoch)
        if notice is not None:
            seen_epoch = notice.epoch
            if ctx.rank in notice.rescues and ctx.rank in notice.logical_of:
                return (yield from worker_loop(ctx, cfg, block, program,
                                               notice=notice))
        if is_watchdog and ctx.now >= next_fd_check:
            next_fd_check = ctx.now + cfg.fd_scan_period
            ret = yield from ctx.proc_ping(cfg.fd_rank, GASPI_BLOCK)
            if ret is ReturnCode.ERROR:
                return (yield from _fd_role(ctx, cfg, block, program,
                                            takeover=True))
        yield poll


def _fd_role(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
             program: FTProgram, takeover: bool = False):
    """Generator: run as FD; become the last rescue if spares run out."""
    stats = yield from fd_process(ctx, cfg, block=block, takeover=takeover)
    if stats.outcome == "rescue":
        result = yield from worker_loop(ctx, cfg, block, program,
                                        notice=block.read_notice())
        result["fd_stats"] = stats
        return result
    return {"status": f"fd-{stats.outcome}", "fd_stats": stats}


def ft_main(cfg: FTConfig,
            program: FTProgram) -> Callable[[GaspiContext], Any]:
    """Build the per-rank main function for :func:`run_gaspi`."""
    # the identity map is the same on every worker and never mutated
    # (recoveries build fresh maps), so all initial Teams share one dict
    # and one interned membership
    initial_map = {i: i for i in range(cfg.n_workers)}
    initial_members = _Members.intern(tuple(range(cfg.n_workers)))

    def main(ctx: GaspiContext):
        block = ControlBlock(ctx, cfg)
        role = cfg.role_of(ctx.rank)
        if role is Role.FD:
            return (yield from _fd_role(ctx, cfg, block, program))
        if role is Role.IDLE:
            return (yield from idle_loop(ctx, cfg, block, program))
        group = ctx.group_create(tag=0)
        group.adopt_members(initial_members)
        team = Team(
            ctx=ctx,
            group=group,
            logical_rank=ctx.rank,
            rank_map=initial_map,
            guard=partial(block.check_failure, 0),
            comm_timeout=cfg.comm_timeout,
        )
        ftx = FTContext(ctx, cfg, team)
        return (yield from worker_loop(ctx, cfg, block, program, ftx))

    return main


# ----------------------------------------------------------------------
# launcher
# ----------------------------------------------------------------------
@dataclass
class FTRunResult:
    """Aggregated outcome of one fault-tolerant job."""

    run: GaspiRun
    cfg: FTConfig

    @property
    def elapsed(self) -> float:
        return self.run.elapsed

    def worker_ranks(self) -> List[int]:
        """Physical ranks that finished as workers, ascending."""
        return [rank for rank, proc in self.run.procs.items()
                if isinstance(proc.result, dict)
                and "logical_rank" in proc.result]

    def worker_results(self) -> Dict[int, Dict]:
        """Results of every rank that finished as a worker, by logical rank."""
        out = {}
        for rank, proc in self.run.procs.items():
            result = proc.result
            if isinstance(result, dict) and "logical_rank" in result:
                out[result["logical_rank"]] = result
        return out

    def failures(self) -> List[FailureRecord]:
        """The run's failure record: one entry per recovery epoch."""
        return self.run.sim.failure_log.records()

    @property
    def fd_stats(self) -> Optional[FDStats]:
        for proc in self.run.procs.values():
            result = proc.result
            if isinstance(result, dict) and "fd_stats" in result:
                return result["fd_stats"]
        return None

    @property
    def status(self) -> str:
        workers = self.worker_results()
        if not workers:
            return "no-workers-finished"
        statuses = {r["status"] for r in workers.values()}
        return statuses.pop() if len(statuses) == 1 else "mixed"


def run_ft_application(
    cfg: FTConfig,
    program: FTProgram,
    machine_spec: Optional[MachineSpec] = None,
    gaspi_config: Optional[GaspiConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
    until: Optional[float] = None,
) -> FTRunResult:
    """Run a fault-tolerant application on a simulated cluster."""
    run = run_gaspi(
        ft_main(cfg, program),
        n_ranks=cfg.n_ranks,
        machine_spec=machine_spec,
        config=gaspi_config,
        fault_plan=fault_plan,
        until=until,
    )
    return FTRunResult(run=run, cfg=cfg)
