"""Non-shrinking communication recovery after failure (paper §IV, Listing 2).

This module implements the paper's *non-shrinking recovery*: the job keeps
its size after a failure because pre-allocated spare processes "overtake
the identity of the failed processes" — unlike ULFM's default shrinking
``MPI_Comm_shrink`` path (the paper's comparison target, `repro.ulfm`).
Every member of the *new* worker group — survivors and freshly designated
rescues — executes :func:`perform_recovery`:

1. adopt identity: look up one's logical rank in the FD-authoritative rank
   map carried by the failure notice;
2. delete the broken worker group (survivors only — rescues never had it);
3. ``gaspi_proc_kill`` every reported-failed rank, so transient and
   false-positive "failures" are forced to really die before the group is
   rebuilt (what makes the FD's false positives safe, §IV-B);
4. purge communication queues of operations stuck on dead targets;
5. create and *commit* the new group — the blocking, linear-in-group-size
   step the paper measures as **OHF2** ("re-initialisation" in Figure 4;
   ~10 s at 256 workers).  If yet another failure notice arrives while
   committing, the whole procedure restarts with the newer notice.

Parameter ↔ paper-symbol mapping: ``cfg.comm_timeout`` is the GASPI
timeout bounding each blocking step (``gaspi_proc_kill``,
``gaspi_group_commit``); ``notice.epoch`` numbers recovery rounds and is
the new group's tag; steps 3–5 together are the paper's OHF2, while the
subsequent checkpoint restore (`repro.checkpoint`) is OHF3 and the
redone iterations are OHF4.

Tracer events (``repro.obs``): a ``proc_kill`` span per enforced kill, a
``group_rebuild`` span ending at commit success, and a ``spare_promote``
span on each rescue covering its whole identity-adoption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional

from repro.gaspi.constants import ReturnCode
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import Group
from repro.checkpoint.neighbor import neighbor_of
from repro.ft import rankstate
from repro.ft.config import FTConfig
from repro.ft.control import ControlBlock, FailureNotice
from repro.ft.rankmap import ActiveRankMap
from repro.spmvm.team import Team


@dataclass
class RecoveryResult:
    """What one rank knows after a successful reconstruction."""

    notice: FailureNotice
    team: Team
    #: nodes that may hold this rank's logical predecessor's checkpoints
    #: (the failed process's node and its former checkpoint neighbor);
    #: empty for survivors
    extra_nodes: List[int]
    #: True if this rank joined the group during this recovery
    is_rescue: bool


def restore_sources(ctx: GaspiContext, notice: FailureNotice) -> List[int]:
    """Candidate nodes holding the checkpoints this rescue must inherit."""
    if ctx.rank not in notice.rescues:
        return []
    failed_phys = notice.failed[notice.rescues.index(ctx.rank)]
    machine = ctx.world.machine
    new_map = ActiveRankMap(dict(notice.rank_map))
    old_map = new_map.undo_recovery(notice.failed, notice.rescues)
    nodes = [machine.node_of(failed_phys)]
    old_neighbor = neighbor_of(
        failed_phys, old_map.physical_ranks(), machine.node_of
    )
    if old_neighbor is not None:
        nodes.append(machine.node_of(old_neighbor))
    return nodes


def perform_recovery(ctx: GaspiContext, cfg: FTConfig, block: ControlBlock,
                     notice: FailureNotice, old_group: Optional[Group] = None,
                     ) -> Generator[Any, Any, "RecoveryResult"]:
    """Generator: Listing 2 for one rank; returns :class:`RecoveryResult`.

    Restarts automatically if a newer failure notice supersedes ``notice``
    while the group commit is pending.
    """
    was_rescue = False
    tracer = ctx.tracer
    t_start = ctx.now
    while True:
        # the notice's map is shared (epoch-cached, never mutated) — using
        # it directly avoids one O(n_workers) dict copy per recovering rank
        rank_map = notice.rank_map
        my_logical = rankstate.logical_in_map(rank_map, ctx.rank)
        if my_logical is None:
            raise RuntimeError(
                f"rank {ctx.rank} performed recovery but is not in the new "
                f"worker map {rank_map}"
            )
        was_rescue = was_rescue or ctx.rank in notice.rescues

        if old_group is not None:
            ctx.group_delete(old_group)
            old_group = None

        # enforce the death of everything the FD reported (false positives
        # and transient failures are made permanent before we rebuild)
        for failed in notice.failed:
            t_kill = ctx.now
            yield from ctx.proc_kill(failed, cfg.comm_timeout)
            if tracer.enabled:
                tracer.emit(ctx.now, ctx.rank, "proc_kill",
                            dur=ctx.now - t_kill, target=failed,
                            epoch=notice.epoch)

        for queue_id in range(ctx.n_queues):
            ctx.queue_purge(queue_id)

        t_rebuild = ctx.now
        group = ctx.group_create(tag=notice.epoch)
        rankstate.group_fill(group, rankstate.map_members(rank_map))

        superseded = False
        while True:
            newer = block.check_failure(notice.epoch)
            if newer is not None:
                notice = newer
                superseded = True
                break
            ret = yield from ctx.group_commit(group, cfg.comm_timeout)
            if ret is ReturnCode.SUCCESS:
                break
        if superseded:
            # retire the half-built group before the next round rebinds
            # the handle — an uncommitted group left behind would keep
            # the runtime's group table growing across recovery storms
            ctx.group_delete(group)
            continue

        if tracer.enabled:
            tracer.emit(ctx.now, ctx.rank, "group_rebuild",
                        dur=ctx.now - t_rebuild, epoch=notice.epoch,
                        size=len(rank_map))
            if was_rescue:
                tracer.emit(ctx.now, ctx.rank, "spare_promote",
                            dur=ctx.now - t_start, epoch=notice.epoch,
                            logical=my_logical)
        team = Team(ctx=ctx, group=group, logical_rank=my_logical,
                    rank_map=rank_map)
        return RecoveryResult(
            notice=notice,
            team=team,
            extra_nodes=restore_sources(ctx, notice),
            is_rescue=was_rescue,
        )
