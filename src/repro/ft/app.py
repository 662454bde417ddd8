"""The fault-tolerant application driver (paper Fig. 3).

At startup the physical ranks split into workers, idle spares and the FD.
Workers run the application's compute loop; every blocking communication
checks the local failure-ack flag (via :class:`CommGuard`), and a posted
notice unwinds the loop into the recovery stage: rebuild the worker group
(rescues adopt failed identities), agree on the newest globally consistent
checkpoint version, restore, redo the lost work and continue.  Idles poll
until designated as rescues; the FD scans until the application completes
or joins the workers as the very last rescue.

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
from repro.gaspi.constants import GASPI_BLOCK, AllreduceOp, ReturnCode
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.gaspi.runtime import GaspiRun, run_gaspi
from repro.checkpoint.pfs import ParallelFileSystem
from repro.checkpoint.replicated import CheckpointBackend, make_checkpoint_lib
from repro.spmvm.ft_hooks import CommGuard, FailureAcknowledged
from repro.spmvm.team import Team
from repro.ft import rankstate
from repro.ft.config import FTConfig
from repro.ft.control import ControlBlock, FailureNotice
from repro.ft.detector import FD_STOP, fd_process
from repro.ft.rankmap import ActiveRankMap
from repro.ft.recovery import perform_recovery
from repro.ft.roles import Role
from repro.obs.timeline import FailureRecord

SETUP_VERSION = 0


class FTContext:
    """Per-rank services handed to the application program."""

    def __init__(self, ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
                 team: Team, epoch: int, extra_nodes: List[int],
                 state_ckpt: CheckpointBackend,
                 setup_ckpt: CheckpointBackend) -> None:
        self.ctx = ctx
        self.cfg = cfg
        self.block = block
        self.team = team
        self.epoch = epoch
        self.extra_nodes = extra_nodes
        self.state_ckpt = state_ckpt
        self.setup_ckpt = setup_ckpt
        self.guard = CommGuard(partial(block.check_failure, epoch))
        #: free-form per-rank counters (e.g. iterations executed across
        #: recoveries); carried over rebuilds
        self.counters: Dict[str, float] = {}

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
              team: Team, epoch: int, extra_nodes: List[int],
              pfs: Optional[ParallelFileSystem] = None,
              old: Optional["FTContext"] = None) -> "FTContext":
        """Create (or refresh, for survivors) the per-rank FT services."""
        # the team's interned membership: the libraries adopt it as-is
        participants = team.group.members
        if old is not None:
            old.state_ckpt.refresh(participants)
            old.setup_ckpt.refresh(participants)
            state_ckpt, setup_ckpt = old.state_ckpt, old.setup_ckpt
        else:
            state_cfg = dataclasses.replace(cfg.checkpoint, tag="state")
            setup_cfg = dataclasses.replace(cfg.checkpoint, tag="setup",
                                            keep_versions=1)
            state_ckpt = make_checkpoint_lib(ctx, team.logical_rank,
                                             participants, config=state_cfg,
                                             pfs=pfs)
            setup_ckpt = make_checkpoint_lib(ctx, team.logical_rank,
                                             participants, config=setup_cfg,
                                             pfs=pfs)
        merged_extra = set(extra_nodes)
        if old is not None:
            merged_extra |= set(old.extra_nodes)  # keep known data sources
        built = cls(ctx, cfg, block, team, epoch, sorted(merged_extra),
                    state_ckpt, setup_ckpt)
        if old is not None:
            built.counters = old.counters
        return built

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
        """Generator: team-wide integer MIN (guarded retry loop)."""
        contribution = int(value)
        while True:
            self.guard.assert_healthy()
            ret, result = yield from self.ctx.allreduce(
                contribution, AllreduceOp.MIN, self.team.group,
                self.cfg.comm_timeout,
            )
            if ret is ReturnCode.SUCCESS:
                return result

    def agree_restore_version(self) -> Generator[Any, Any, int]:
        """Generator: newest checkpoint version every rank can restore."""
        mine = self.state_ckpt.restorable_latest(self.extra_nodes)
        version = yield from self.agree_min(mine)
        return version

    def read_state_checkpoint(self, version: int,
                              ) -> Generator[Any, Any, Dict[str, Any]]:
        """Generator: restore the agreed periodic checkpoint payload."""
        _, payload = yield from self.state_ckpt.read_checkpoint(
            version, self.extra_nodes
        )
        return payload

    def read_setup_checkpoint(
        self,
    ) -> Generator[Any, Any, Optional[Dict[str, Any]]]:
        """Generator: the setup checkpoint, or ``None`` if the team agreed
        at least one rank cannot restore it (then everyone redoes setup)."""
        mine = self.setup_ckpt.restorable_latest(self.extra_nodes)
        agreed = yield from self.agree_min(1 if mine >= SETUP_VERSION else 0)
        if agreed == 0:
            return None
        _, payload = yield from self.setup_ckpt.read_checkpoint(
            SETUP_VERSION, self.extra_nodes
        )
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
                     notice: FailureNotice, old: Optional[FTContext],
                     pfs: Optional[ParallelFileSystem]):
    """Generator: run Listing 2 and wire fresh FT services around it."""
    recovery = yield from perform_recovery(
        ctx, cfg, block, notice,
        old_group=old.team.group if old is not None else None,
    )
    return FTContext.build(
        ctx, cfg, block, recovery.team, recovery.notice.epoch,
        recovery.extra_nodes, pfs=pfs, old=old,
    )


def worker_loop(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
                program: FTProgram, ftx: FTContext, mode: str,
                pfs: Optional[ParallelFileSystem] = None,
                ) -> Generator[Any, Any, Dict[str, Any]]:
    """Generator: compute / recover until completion (worker side of Fig. 3).

    Folds the worker's lifecycle milestones into the run's failure log:
    ``failure_ack`` when a notice unwinds it, ``version_agreed`` when the
    team agreed the version to restore (before reading it), and the
    epoch-tagged ``restore`` and ``rollback`` once the program resumed.
    """
    failures = ctx.world.sim.failure_log
    tracer = ctx.tracer
    while True:
        try:
            if mode == "fresh":
                # the initial group commit runs inside the recovery scope:
                # a rank dying during startup unwinds the survivors into a
                # regular recovery instead of spinning on commit timeouts
                yield from _commit_initial_group(ctx, cfg, ftx)
                work = yield from program.setup(ftx)
            else:
                t_restore = ctx.now
                version = yield from ftx.agree_restore_version()
                failures.fold(ctx.now, ctx.rank, "version_agreed")
                if tracer.enabled:
                    tracer.emit(ctx.now, ctx.rank, "version_agreed",
                                epoch=ftx.epoch, version=version)
                payload = None
                if version >= 0:
                    payload = yield from ftx.read_state_checkpoint(version)
                work = yield from program.restore(ftx, payload)
                failures.fold(ctx.now, ctx.rank, "restore", epoch=ftx.epoch,
                              version=version)
                failures.fold(ctx.now, ctx.rank, "rollback", epoch=ftx.epoch)
                if tracer.enabled:
                    tracer.emit(ctx.now, ctx.rank, "restore",
                                dur=ctx.now - t_restore, epoch=ftx.epoch,
                                version=version)
                    tracer.emit(ctx.now, ctx.rank, "rollback",
                                epoch=ftx.epoch, version=version)
            result = yield from program.run(ftx, work)
            # completion consensus: nobody declares the job done until the
            # whole team reached this point — a member dying in its final
            # iterations unwinds everyone into a regular recovery instead
            # of silently losing its share of the result
            while True:
                ftx.guard.assert_healthy()
                ret = yield from ctx.barrier(ftx.team.group, cfg.comm_timeout)
                if ret is ReturnCode.SUCCESS:
                    break
            yield from _announce_done(ctx, cfg, block)
            return {
                "status": "done",
                "logical_rank": ftx.team.logical_rank,
                "result": result,
                "counters": dict(ftx.counters),
                "t_done": ctx.now,
            }
        except FailureAcknowledged as ack:
            notice: FailureNotice = ack.notice
            failures.fold(ctx.now, ctx.rank, "failure_ack", epoch=notice.epoch)
            if tracer.enabled:
                tracer.emit(ctx.now, ctx.rank, "failure_ack",
                            epoch=notice.epoch)
            if not notice.recoverable:
                yield from _announce_done(ctx, cfg, block)
                return {
                    "status": "unrecoverable",
                    "logical_rank": ftx.team.logical_rank,
                    "counters": dict(ftx.counters),
                    "t_done": ctx.now,
                }
            ftx = yield from _rebuild_context(ctx, cfg, block, notice, ftx, pfs)
            mode = "restore"


def idle_loop(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
              program: FTProgram, pfs: Optional[ParallelFileSystem] = None,
              ) -> Generator[Any, Any, Dict[str, Any]]:
    """Generator: wait to be needed (idle side of Fig. 3)."""
    seen_epoch = 0
    is_watchdog = cfg.fd_redundancy and ctx.rank == cfg.watchdog_rank
    next_fd_check = ctx.now + cfg.fd_scan_period
    while True:
        if block.done:
            return {"status": "idle-exit"}
        notice = block.check_failure(seen_epoch)
        if notice is not None:
            seen_epoch = notice.epoch
            if ctx.rank in notice.rescues and ctx.rank in notice.logical_of:
                ftx = yield from _rebuild_context(ctx, cfg, block, notice,
                                                  None, pfs)
                return (yield from worker_loop(ctx, cfg, block, program, ftx,
                                               mode="restore", pfs=pfs))
        if is_watchdog and ctx.now >= next_fd_check:
            next_fd_check = ctx.now + cfg.fd_scan_period
            ret = yield from ctx.proc_ping(cfg.fd_rank, GASPI_BLOCK)
            if ret is ReturnCode.ERROR:
                return (yield from _fd_role(ctx, cfg, block, program, pfs,
                                            takeover=True))
        yield Sleep(cfg.idle_poll)


def _fd_role(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
             program: FTProgram, pfs: Optional[ParallelFileSystem],
             takeover: bool = False):
    """Generator: run as FD; become the last rescue if spares run out."""
    outcome, stats = yield from fd_process(ctx, cfg, block=block,
                                           takeover=takeover)
    if outcome == "rescue":
        notice = block.read_notice()
        ftx = yield from _rebuild_context(ctx, cfg, block, notice, None, pfs)
        result = yield from worker_loop(ctx, cfg, block, program, ftx,
                                        mode="restore", pfs=pfs)
        result["fd_stats"] = stats
        return result
    return {"status": f"fd-{outcome}", "fd_stats": stats}


def ft_main(cfg: FTConfig, program: FTProgram,
            pfs_factory: Optional[Callable[..., ParallelFileSystem]] = None,
            ) -> Callable[[GaspiContext], Any]:
    """Build the per-rank main function for :func:`run_gaspi`."""
    pfs_cache: Dict[int, ParallelFileSystem] = {}
    # the identity map is the same on every worker and never mutated
    # (recoveries build fresh maps), so all initial Teams share one dict
    # and one interned membership
    initial_map = ActiveRankMap.initial(cfg.n_workers).logical_to_physical
    initial_members = _Members.intern(tuple(range(cfg.n_workers)))

    def main(ctx: GaspiContext):
        pfs = None
        if pfs_factory is not None:
            if not pfs_cache:
                pfs_cache[0] = pfs_factory(ctx.world.sim)
            pfs = pfs_cache[0]
        block = ControlBlock(ctx, cfg)
        block.init_local()
        role = cfg.role_of(ctx.rank)
        if role is Role.FD:
            return (yield from _fd_role(ctx, cfg, block, program, pfs))
        if role is Role.IDLE:
            return (yield from idle_loop(ctx, cfg, block, program, pfs))
        group = ctx.group_create(tag=0)
        group.adopt_members(initial_members)
        team = Team(
            ctx=ctx,
            group=group,
            logical_rank=ctx.rank,
            rank_map=initial_map,
        )
        ftx = FTContext.build(ctx, cfg, block, team, epoch=0, extra_nodes=[],
                              pfs=pfs)
        return (yield from worker_loop(ctx, cfg, block, program, ftx,
                                       mode="fresh", pfs=pfs))

    return main


def _commit_initial_group(ctx: GaspiContext, cfg: FTConfig, ftx: FTContext):
    """Generator: guarded commit of the initial worker group.

    Honours the paper's pre-communication discipline: the local failure
    flag is read before every commit attempt — here by the kernel, at
    each ``comm_timeout`` of the one re-armed commit wait — so a failure
    during startup acknowledges instead of retrying the commit forever.
    """
    guard = ftx.guard
    guard.assert_healthy()
    ret = yield from ctx.group_commit(ftx.team.group, cfg.comm_timeout,
                                      recheck=guard.check)
    if ret is not ReturnCode.SUCCESS:
        guard.assert_healthy()  # the check tripped: acknowledge


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

    def rank_result(self, rank: int) -> Any:
        return self.run.result(rank)

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
    def fd_stats(self) -> Optional[Dict[str, Any]]:
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
    pfs_factory: Optional[Callable[..., ParallelFileSystem]] = None,
) -> FTRunResult:
    """Run a fault-tolerant application on a simulated cluster."""
    run = run_gaspi(
        ft_main(cfg, program, pfs_factory=pfs_factory),
        n_ranks=cfg.n_ranks,
        machine_spec=machine_spec,
        config=gaspi_config,
        fault_plan=fault_plan,
        until=until,
    )
    return FTRunResult(run=run, cfg=cfg)
