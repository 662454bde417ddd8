"""The distributed spMVM engine: one-sided halo exchange + local kernel.

Per iteration (paper Sect. V): every owner *pushes* the RHS values its
requesters need with a single fused ``gaspi_write_list_notify`` per
requester (notification id = provider's logical rank) — all pushes of one
iteration coalesce onto one queue doorbell at the transport — flushes its
queue with a single aggregate wait, then drains its providers'
notifications in batches and runs the local CSR kernel on
``[own block | halo]``.

Every blocking step is guarded by the team's failure-acknowledgment hook:
it is read before each blocking call, and a timed-out wait is retried in
the kernel, which re-reads it at every ``comm_timeout`` — the exact
restructuring the paper applies to the underlying spMVM library.

Recovery hygiene: a (re)built engine purges its queue and clears stale
notifications; redo-work is deterministic, so re-delivered halo data is
bit-identical and harmless.
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional

import numpy as np

from repro.sim import Sleep, WaitEvent
from repro.gaspi.constants import GASPI_SUCCESS
from repro.gaspi.errors import GaspiUsageError
from repro.spmvm.dist_matrix import DistMatrix
from repro.spmvm.ft_hooks import FailureAcknowledged
from repro.spmvm.team import Team

#: segment ids used by the engine (application segments live below); its
#: halo pushes and flushes use queue 0
X_SEGMENT = 40
STAGE_SEGMENT = 41
_F8 = 8  # bytes per float64


class SpMVMEngine:
    """Executes ``y = A @ x`` for one rank of a team."""

    def __init__(self, team: Team, matrix: DistMatrix,
                 time_model: Any = None) -> None:
        self.team = team
        self.matrix = matrix
        self.time_model = time_model
        self._tag = 0

        ctx = team.ctx
        x_bytes = max(_F8, (matrix.n_local + matrix.halo_size) * _F8)
        stage_bytes = max(_F8, matrix.plan.total_send * _F8)
        self._ensure_segment(ctx, X_SEGMENT, x_bytes)
        self._ensure_segment(ctx, STAGE_SEGMENT, stage_bytes)

        # recovery hygiene (no-ops on a fresh world)
        ctx.queue_purge(0)
        board = ctx.segment(X_SEGMENT).notifications
        for provider in matrix.plan.providers():
            board.reset(provider)

        self._x_full = ctx.segment_view(
            X_SEGMENT, np.float64, 0, matrix.n_local + matrix.halo_size
        ) if matrix.n_local + matrix.halo_size else np.zeros(0)
        self._stage = ctx.segment_view(
            STAGE_SEGMENT, np.float64, 0, matrix.plan.total_send
        ) if matrix.plan.total_send else np.zeros(0)
        # precompute contiguous staging offsets per requester (sorted
        # order) and check each send list once: the push gathers in wrap
        # mode, which would wrap a bad index where raise mode would fail
        self._stage_offsets = {}
        offset = 0
        for requester in matrix.plan.requesters():
            spec = matrix.plan.send[requester]
            idx = spec.local_idx
            if idx.size and (idx.min() < 0 or idx.max() >= matrix.n_local):
                raise ValueError(
                    f"send index for requester {requester} out of range")
            self._stage_offsets[requester] = offset
            offset += spec.count

    @staticmethod
    def _ensure_segment(ctx, segment_id: int, nbytes: int) -> None:
        if segment_id in ctx.segments:
            if ctx.segment(segment_id).size < nbytes:
                raise GaspiUsageError(
                    f"segment {segment_id} exists but is too small "
                    f"({ctx.segment(segment_id).size} < {nbytes})"
                )
        else:
            ctx.segment_create(segment_id, nbytes)

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, team: Team, matrix: DistMatrix, time_model: Any = None,
               ) -> Generator[Any, Any, "SpMVMEngine"]:
        """Generator: collective construction.

        Registers the engine's segments and synchronises the team before
        returning, so no rank can post halo writes into a not-yet-created
        remote segment.  Use this instead of the constructor in application
        code: ``engine = yield from SpMVMEngine.create(team, dmat)``.
        """
        engine = cls(team, matrix, time_model)
        yield from team.barrier()
        return engine

    @property
    def n_local(self) -> int:
        return self.matrix.n_local

    def _flush(self) -> Generator[Any, Any, None]:
        """Generator: guarded flush of the engine's queue."""
        team = self.team
        team.assert_healthy()
        ret = yield from team.ctx.wait(0, team.comm_timeout,
                                       recheck=team.guard)
        if ret is not GASPI_SUCCESS:
            raise FailureAcknowledged(team.guard())

    def multiply(self, x_local: np.ndarray, out: Optional[np.ndarray] = None,
                 tag: Optional[int] = None,
                 ) -> Generator[Any, Any, np.ndarray]:
        """Generator: distributed ``y = A @ x``.

        ``x_local`` is this rank's block of x; returns this rank's block of
        y.  ``tag`` disambiguates iterations across a recovery (the solver
        passes its iteration number); by default an internal counter is
        used.
        """
        if x_local.shape != (self.n_local,):
            raise GaspiUsageError(
                f"x block must have shape ({self.n_local},), got {x_local.shape}"
            )
        team = self.team
        ctx = team.ctx
        plan = self.matrix.plan
        if tag is None:
            tag = self._tag
        self._tag = tag + 1
        value = (tag % (2**31 - 1)) + 1  # notification values must be non-zero

        if self.n_local:
            self._x_full[: self.n_local] = x_local

        # push phase: one fused write_list_notify per requester; all posts
        # of this tick share one transport doorbell (a single completion
        # timer for the whole push phase)
        notification_id = self.matrix.logical_rank
        for requester in plan.requesters():
            spec = plan.send[requester]
            if spec.count == 0:
                continue
            offset = self._stage_offsets[requester]
            # gather straight into the staging segment (no temp array:
            # the indices were checked when the engine was built)
            np.take(x_local, spec.local_idx,
                    out=self._stage[offset : offset + spec.count], mode="wrap")
            entry = (STAGE_SEGMENT, offset * _F8, spec.count * _F8,
                     X_SEGMENT, spec.halo_start * _F8)
            while True:
                ret = ctx.write_list_notify(
                    (entry,), team.to_physical(requester),
                    X_SEGMENT, (notification_id, value),
                )
                if ret is GASPI_SUCCESS:
                    break
                yield from self._flush()  # queue full: drain and repost
        yield from self._flush()

        # receive phase: drain provider notifications for this tag in
        # batches — harvest everything already landed in one pass, then
        # block once on the whole outstanding span
        board = ctx.segment(X_SEGMENT).notifications
        pending = set(plan.providers())
        values = board.values
        guard = team.guard
        limit = None if math.isinf(team.comm_timeout) else team.comm_timeout
        while pending:
            team.assert_healthy()  # before each wait; the kernel rechecks timeouts
            landed = [p for p in pending if values[p] == value]
            if landed:
                ctx.notify_reset_many(X_SEGMENT, landed)
                pending.difference_update(landed)
                continue
            stale = [p for p in pending if values[p] != 0]
            if stale:
                # stale tags from before a recovery: consume and re-check
                ctx.notify_reset_many(X_SEGMENT, stale)
                continue
            # Every pending slot is zero right now, so the flags we need can
            # only arrive via future posts: subscribe to the span directly.
            # (notify_waitsome's pending_in fast path would spin here — an
            # already-consumed provider that ran ahead leaves its next-tag
            # flag set inside the span, returning instantly forever.)
            lo = min(pending)
            event = board.subscribe(lo, max(pending) - lo + 1)
            ok, _ = yield WaitEvent(event, limit, recheck=guard)
            if not ok:
                board.unsubscribe(event)  # the check tripped: raise above

        # local kernel, writing straight into the caller's buffer
        if out is None:
            out = np.empty(self.n_local)
        self.matrix.local.spmv(
            self._x_full if self._x_full.size else np.zeros(0), out=out
        )
        if self.time_model is not None:
            yield Sleep(self.time_model.spmv_time(self.matrix.local.nnz,
                                                  self.n_local))
        return out
