"""ULFM-style communicator on the simulated transport.

Semantics implemented (after the ULFM specification and its OpenMPI
prototype, which the paper cites as [9], [15], [16]):

* point-to-point and collective operations return ``SUCCESS``,
  ``PROC_FAILED`` (a participant is dead — detected through the failed
  communication itself after the transport's error-detection delay),
  or ``REVOKED`` (the communicator was revoked by some rank);
* ``revoke`` is asynchronous and sticky: one call eventually poisons the
  communicator on every surviving member;
* ``shrink`` is a collective among survivors producing a new communicator
  over the agreed alive-set, with the linearly-scaling cost reported for
  the OpenMPI prototype;
* ``agree`` performs fault-tolerant agreement (logical AND) among
  survivors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.sim import Sleep, WaitEvent
from repro.gaspi.constants import AllreduceOp
from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members


class UlfmResult(enum.Enum):
    """Return status of ULFM operations."""

    SUCCESS = 0
    PROC_FAILED = 1
    REVOKED = 2

    def __bool__(self) -> bool:  # pragma: no cover - misuse guard
        raise TypeError("compare UlfmResult explicitly")


@dataclass
class UlfmCosts:
    """Timing model of the ULFM prototype's FT operations.

    Laguna et al. (EuroMPI'14, the paper's [15]) measure revoke and shrink
    times growing linearly with node count on the OpenMPI prototype; the
    per-rank constants below land shrink(256) in the several-second range
    they report.
    """

    revoke_latency: float = 0.5e-3
    shrink_base: float = 0.100
    shrink_per_rank: float = 0.020
    agree_base: float = 0.010
    agree_per_rank: float = 0.002
    #: polling granularity while waiting for collective partners
    poll: float = 0.050


class UlfmComm:
    """One rank's handle of a ULFM communicator."""

    _KIND = "ulfm-ctl"

    def __init__(self, ctx: GaspiContext, ranks: List[int], comm_id: int = 0,
                 costs: Optional[UlfmCosts] = None) -> None:
        if ctx.rank not in ranks:
            raise ValueError(f"rank {ctx.rank} not in communicator {ranks}")
        self.ctx = ctx
        self.ranks = sorted(ranks)
        #: the interned membership every collective of this communicator
        #: hands the engine
        self._members = _Members.intern(tuple(self.ranks))
        self.comm_id = comm_id
        self.costs = costs or UlfmCosts()
        self.revoked = False
        self._known_failed: set = set()
        self._coll_seq = 0

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """This process's rank *within* the communicator."""
        return self.ranks.index(self.ctx.rank)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def _engine(self):
        return self.ctx.world.engine

    def _machine(self):
        return self.ctx.world.machine

    def _identity(self) -> Tuple:
        return ("ulfm", self.comm_id, self._members)

    # ------------------------------------------------------------------
    # failure knowledge
    # ------------------------------------------------------------------
    def _drain_control(self) -> None:
        """Process pending revoke notices (checked on entry of every op)."""
        inbox = self.ctx.world.transport.endpoint(self.ctx.rank).inbox(self._KIND)
        while True:
            ok, msg = inbox.try_get()
            if not ok:
                break
            kind, comm_id = msg.payload
            if kind == "revoke" and comm_id == self.comm_id:
                self.revoked = True

    def _alive_members(self) -> List[int]:
        machine = self._machine()
        return [r for r in self.ranks if machine.alive(r)]

    def _note_failures(self) -> List[int]:
        """ULFM's communication-based detection: learn of dead members.

        Models the runtime noticing broken links after the transport
        error-detection delay; callers only reach this after an operation
        already stalled for at least that long.
        """
        dead = [r for r in self.ranks if not self._machine().alive(r)]
        fresh = [r for r in dead if r not in self._known_failed]
        self._known_failed.update(dead)
        return fresh

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, dst: int, payload: Any, timeout: float = 60.0):
        """Generator: two-sided send to communicator rank ``dst``."""
        self._drain_control()
        if self.revoked:
            return UlfmResult.REVOKED
        target = self.ranks[dst]
        done = self.ctx.world.transport.post_control(
            self.ctx.rank, target, "ulfm-p2p", (self.comm_id, payload)
        )
        error_after = self.ctx.world.machine.spec.transport_params.error_timeout
        ok, _ = yield WaitEvent(done, min(timeout, error_after))
        self._drain_control()
        if self.revoked:
            return UlfmResult.REVOKED
        if ok:
            return UlfmResult.SUCCESS
        self._note_failures()
        if target in self._known_failed:
            return UlfmResult.PROC_FAILED
        ok, _ = yield WaitEvent(done, timeout)
        return UlfmResult.SUCCESS if ok else UlfmResult.PROC_FAILED

    def recv(self, timeout: float = 60.0):
        """Generator: returns ``(result, src_comm_rank, payload)``."""
        self._drain_control()
        if self.revoked:
            return (UlfmResult.REVOKED, -1, None)
        inbox = self.ctx.world.transport.endpoint(self.ctx.rank).inbox("ulfm-p2p")
        deadline = self.ctx.now + timeout
        while True:
            remaining = min(self.costs.poll * 20, max(0.0, deadline - self.ctx.now))
            ok, msg = yield from inbox.get(remaining)
            self._drain_control()
            if self.revoked:
                return (UlfmResult.REVOKED, -1, None)
            if ok:
                comm_id, payload = msg.payload
                if comm_id != self.comm_id:
                    continue  # stale generation
                return (UlfmResult.SUCCESS, self.ranks.index(msg.src), payload)
            if self.ctx.now >= deadline:
                self._note_failures()
                return (UlfmResult.PROC_FAILED, -1, None)

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def _collective(self, kind: str, contribution, finisher, nbytes: int):
        """Generator: engine-backed collective with ULFM error reporting."""
        engine = self._engine()
        seq = self._coll_seq
        event = engine.arrive(kind, self._identity(), seq, self.ctx.rank,
                              self._members, contribution=contribution,
                              finisher=finisher, nbytes=nbytes)
        error_after = self.ctx.world.machine.spec.transport_params.error_timeout
        waited = 0.0
        while True:
            ok, result = yield WaitEvent(event, self.costs.poll)
            self._drain_control()
            if self.revoked and not ok:
                return (UlfmResult.REVOKED, None)
            if ok:
                self._coll_seq += 1
                return (UlfmResult.SUCCESS, result)
            waited += self.costs.poll
            if waited >= error_after:
                self._note_failures()
                if any(r in self._known_failed for r in self.ranks):
                    return (UlfmResult.PROC_FAILED, None)

    def barrier(self):
        """Generator: barrier over the full membership."""
        self._drain_control()
        if self.revoked:
            return UlfmResult.REVOKED
        ret, _ = yield from self._collective("barrier", None, None, 0)
        return ret

    def allreduce(self, values, op: AllreduceOp):
        """Generator: returns ``(result, reduced array)``."""
        self._drain_control()
        if self.revoked:
            return (UlfmResult.REVOKED, None)
        contribution = np.array(values, copy=True)
        return (yield from self._collective(
            "allreduce", contribution, op, contribution.nbytes,
        ))

    # ------------------------------------------------------------------
    # ULFM specifics
    # ------------------------------------------------------------------
    def revoke(self):
        """Generator: ``MPIX_Comm_revoke`` — poison the communicator.

        Local completion is immediate; notices propagate to every member
        asynchronously (dead ones simply never receive theirs).
        """
        self.revoked = True
        for target in self.ranks:
            if target != self.ctx.rank:
                self.ctx.world.transport.post_control(
                    self.ctx.rank, target, self._KIND,
                    ("revoke", self.comm_id),
                )
        yield Sleep(self.costs.revoke_latency)
        return UlfmResult.SUCCESS

    def agree(self, flag: int):
        """Generator: ``MPIX_Comm_agree`` — AND over *surviving* members.

        Returns ``(result, agreed flag)``.  Works on revoked communicators
        (that is its purpose) and ignores dead members.  The instance
        completes at the last arrival; each member then charges the
        agreement's price, as :meth:`revoke` charges its latency.
        """
        self._note_failures()
        members = _Members.intern(tuple(self._alive_members()))
        if self.ctx.rank not in members:  # pragma: no cover - we are alive
            raise RuntimeError("agree called by dead rank")
        seq = self._coll_seq
        engine = self._engine()
        event = engine.arrive(
            "agree", self._identity() + ("agree",), seq, self.ctx.rank,
            members, contribution=int(flag), finisher=AllreduceOp.MIN,
        )
        ok, result = yield WaitEvent(event)
        yield Sleep(self.costs.agree_base
                    + self.costs.agree_per_rank * len(self.ranks))
        self._coll_seq += 1
        return (UlfmResult.SUCCESS, result)

    def shrink(self, new_comm_id: Optional[int] = None):
        """Generator: ``MPIX_Comm_shrink`` — consensus new communicator.

        Collective among survivors; returns ``(result, new UlfmComm)``.
        Cost is linear in the parent size (the OpenMPI prototype's
        behaviour reported by Laguna et al.); each member charges it after
        the instance completes at the last arrival, as in :meth:`agree`.
        """
        self._note_failures()
        members = _Members.intern(tuple(self._alive_members()))
        seq = self._coll_seq
        engine = self._engine()
        event = engine.arrive(
            "shrink", self._identity() + ("shrink",), seq, self.ctx.rank,
            members, contribution=None, finisher=lambda _: list(members),
        )
        ok, alive = yield WaitEvent(event)
        yield Sleep(self.costs.shrink_base
                    + self.costs.shrink_per_rank * len(self.ranks))
        self._coll_seq += 1
        new_id = new_comm_id if new_comm_id is not None else self.comm_id + 1
        return (UlfmResult.SUCCESS,
                UlfmComm(self.ctx, list(alive), new_id, self.costs))
