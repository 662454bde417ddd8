"""The failure-acknowledgment control block.

Every rank owns segment ``FT_SEGMENT`` laid out as int64 cells:

====================  =========================================================
cell                  meaning
====================  =========================================================
``epoch``             failure sequence number (0 = no failure yet)
``ack``               1 once a failure notice was composed (``epoch >= 1``)
``done``              1 once the application completed (tells idles to exit)
``n_failed``          failed ranks in this epoch's notice
``n_rescues``         rescues assigned (``< n_failed`` = unrecoverable)
``failed[]``          the failed physical ranks (this epoch)
``rescues[]``         their rescue physical ranks, pairwise
``status[]``          role/health of every physical rank (:class:`Role`)
``rank_map[]``        logical worker rank -> physical rank (FD-authoritative)
====================  =========================================================

The FD composes the block locally and one-sided-writes it into every
healthy rank ("This is done via one-sided write in the global memory of
all healthy processes").  Workers acknowledge by *reading local memory*
before each blocking call — the zero-overhead property in the failure-free
case.  The ``rank_map`` makes the FD the single authority on identity
takeover, so rescues and survivors cannot disagree about the new mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from repro.gaspi.context import GaspiContext
from repro.gaspi.groups import _Members
from repro.ft import rankstate
from repro.ft.config import FTConfig
from repro.ft.roles import Role

#: segment id reserved for the FT control block on every rank
FT_SEGMENT = 0

_I8 = 8


@dataclass(frozen=True)
class FailureNotice:
    """One epoch's failure notice, as read from the local control block.

    :meth:`ControlBlock.read_notice` shares one notice per epoch across a
    world, so whatever is a pure function of it is derived lazily, once,
    on the notice itself, and every rebuilding rank adopts the result.
    """

    epoch: int
    failed: Tuple[int, ...]
    rescues: Tuple[int, ...]
    rank_map: Dict[int, int]

    @property
    def recoverable(self) -> bool:
        return len(self.rescues) >= len(self.failed)

    @cached_property
    def members(self) -> _Members:
        """The new worker group: ``rank_map``'s physical ranks, sorted and
        interned."""
        return _Members.intern(tuple(rankstate.map_members(self.rank_map)))

    @cached_property
    def logical_of(self) -> Dict[int, int]:
        """Physical -> logical inverse of ``rank_map`` (the first entry
        wins should a physical rank repeat, as a forward scan would)."""
        return {phys: logical
                for logical, phys in reversed(self.rank_map.items())}


class ControlBlock:
    """Typed view over one rank's FT control segment.

    The segment is copy-on-write over shared, immutable images (see
    :mod:`repro.gaspi.segments`).  Every rank's block starts
    byte-identical (a pure function of the layout parameters), so the
    constructor installs the world's one initial image when it creates
    the segment, at no per-rank cost.  Whole-block writes keep it that
    way: a broadcast notice lands as the FD's one snapshot, adopted by
    every healthy rank, and :meth:`mark_done_local` swaps in the world's
    one done image derived from the image the block holds.  Only the FD's
    block, whose status array it mutates in place, gets a private buffer.
    """

    def __init__(self, ctx: GaspiContext, cfg: FTConfig) -> None:
        self.ctx = ctx
        self.cfg = cfg
        # capacity must allow *reporting* more failures than spares exist,
        # so workers can learn a failure batch is unrecoverable
        max_failed = cfg.n_ranks
        self._off_failed = 5
        self._off_rescues = self._off_failed + max_failed
        self._off_status = self._off_rescues + max_failed
        self._off_map = self._off_status + cfg.n_ranks
        self.n_cells = self._off_map + cfg.n_workers
        if FT_SEGMENT in ctx.segments:
            self._seg = ctx.segments.get(FT_SEGMENT)
        else:
            self._seg = ctx.segment_create(FT_SEGMENT, self.n_cells * _I8)
            self._seg.write_bytes(0, self._shared_template())

    def _world_cache(self, name: str) -> Dict[Any, Any]:
        """The dict named ``name`` that all blocks of this world share."""
        world = self.ctx.world
        cache = getattr(world, name, None)
        if cache is None:
            cache = {}
            setattr(world, name, cache)
        return cache

    def _shared_template(self) -> bytes:
        """The world's one image of the initial block content."""
        cfg = self.cfg
        key = (self.n_cells, cfg.n_ranks, cfg.n_workers, cfg.fd_rank)
        cache = self._world_cache("_ft_control_templates")
        template = cache.get(key)
        if template is None:
            cells = np.zeros(self.n_cells, dtype=np.int64)
            self._fill_initial(cells)
            template = cache[key] = cells.tobytes()
        return template

    @property
    def cells(self) -> np.ndarray:
        """Whole-block int64 view — read-only while the block is pristine."""
        return self._seg.cells64()

    def _cells_rw(self) -> np.ndarray:
        """Writable cells (materialises the private buffer on first use)."""
        seg = self._seg
        if seg.pristine:
            _ = seg.buf
        return seg.cells64()

    # ------------------------------------------------------------------
    # named accessors
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        return int(self.cells[0])

    @property
    def ack(self) -> bool:
        return bool(self.cells[1])

    @property
    def done(self) -> bool:
        return bool(self.cells[2])

    def statuses(self) -> np.ndarray:
        """Status array view — read-only while the block is pristine."""
        return self.cells[self._off_status : self._off_status + self.cfg.n_ranks]

    def statuses_rw(self) -> np.ndarray:
        """Writable, live status array (the FD's working view)."""
        cells = self._cells_rw()
        return cells[self._off_status : self._off_status + self.cfg.n_ranks]

    def rank_map(self) -> Dict[int, int]:
        cells = self.cells[self._off_map : self._off_map + self.cfg.n_workers]
        return {logical: int(phys) for logical, phys in enumerate(cells)}

    def rank_map_array(self) -> np.ndarray:
        """Logical->physical map as a dense int64 array (SoA view copy);
        index = logical worker rank, value = physical rank."""
        return np.array(
            self.cells[self._off_map : self._off_map + self.cfg.n_workers],
            dtype=np.int64,
        )

    def failed_list(self) -> List[int]:
        n = int(self.cells[3])
        return [int(r) for r in self.cells[self._off_failed : self._off_failed + n]]

    def rescue_list(self) -> List[int]:
        n = int(self.cells[4])
        return [int(r) for r in self.cells[self._off_rescues : self._off_rescues + n]]

    # ------------------------------------------------------------------
    # initialisation (the world's one initial image)
    # ------------------------------------------------------------------
    def _fill_initial(self, cells: np.ndarray) -> None:
        """Write the initial roles and identity map into ``cells``.

        Array fills rather than per-rank loops; equivalent to writing
        ``cfg.role_of(rank)`` for every rank (workers, then idles, with
        the last rank as FD) and the identity map.
        """
        cells[:] = 0
        statuses = cells[self._off_status : self._off_status + self.cfg.n_ranks]
        statuses[:] = int(Role.IDLE)
        statuses[: self.cfg.n_workers] = int(Role.WORKING)
        statuses[self.cfg.fd_rank] = int(Role.FD)
        cells[self._off_map : self._off_map + self.cfg.n_workers] = np.arange(
            self.cfg.n_workers, dtype=np.int64
        )

    # ------------------------------------------------------------------
    # worker-side acknowledgment (the zero-cost check)
    # ------------------------------------------------------------------
    def check_failure(self, seen_epoch: int) -> Optional[FailureNotice]:
        """Local-memory check: a new notice since ``seen_epoch``?  Reads the
        epoch cell alone, as every block image has ``ack == (epoch >= 1)``."""
        if self._seg.cells64()[0] <= seen_epoch:
            return None
        return self.read_notice()

    def read_notice(self) -> FailureNotice:
        """Parse the local block's current notice.

        Within one world a notice's content is a pure function of its
        epoch (the FD composes it once and byte-copies it everywhere), so
        the parse — O(n_workers) dict building — runs once per epoch per
        world instead of once per rank; every other rank gets the shared,
        never-mutated :class:`FailureNotice`.
        """
        epoch = self.epoch
        cache = self._world_cache("_ft_notice_cache")
        notice = cache.get(epoch)
        if notice is None:
            notice = FailureNotice(
                epoch=epoch,
                failed=tuple(self.failed_list()),
                rescues=tuple(self.rescue_list()),
                rank_map=self.rank_map(),
            )
            cache[epoch] = notice
        return notice

    # ------------------------------------------------------------------
    # FD-side composition and broadcast
    # ------------------------------------------------------------------
    def compose_notice(self, epoch: int, failed: List[int], rescues: List[int],
                       statuses: np.ndarray, rank_map: np.ndarray) -> None:
        """Write a notice into the *local* block (the FD's staging copy).

        ``rank_map`` is the dense logical->physical array the FD keeps.
        """
        max_failed = self.cfg.n_ranks
        if len(failed) > max_failed:
            raise ValueError(f"{len(failed)} failures exceed capacity {max_failed}")
        cells = self._cells_rw()
        cells[0] = epoch
        # nothing reads the ack cell (it equals epoch >= 1), but it stays in
        # the layout: the broadcast's byte count prices every notice write
        cells[1] = 1
        cells[3] = len(failed)
        cells[4] = len(rescues)
        cells[self._off_failed : self._off_failed + max_failed] = 0
        cells[self._off_failed : self._off_failed + len(failed)] = failed
        cells[self._off_rescues : self._off_rescues + max_failed] = 0
        cells[self._off_rescues : self._off_rescues + len(rescues)] = rescues
        cells[self._off_status : self._off_status + self.cfg.n_ranks] = statuses
        cells[self._off_map : self._off_map + len(rank_map)] = rank_map
        # the FD re-stages epoch content here before broadcasting it: drop
        # any notice parsed from a stale read of this epoch's cells
        cache = getattr(self.ctx.world, "_ft_notice_cache", None)
        if cache is not None:
            cache.pop(epoch, None)

    def mark_done_local(self) -> None:
        """Set the done flag.

        A pristine block swaps in the done image of the image it holds —
        the same cells with ``done = 1``, derived once per world and
        image — so every worker announces completion with one shared
        object.  A materialised block sets the flag in place.
        """
        seg = self._seg
        if not seg.pristine:
            seg.cells64()[2] = 1
            return
        image = seg.read_bytes(0, seg.size)
        cache = self._world_cache("_ft_done_images")
        done = cache.get(image)  # blocks share the image: an identity hit
        if done is None:
            cells = np.frombuffer(image, dtype=np.int64).copy()
            cells[2] = 1
            done = cache[image] = cells.tobytes()
        seg.write_bytes(0, done)

    def broadcast(self, targets: List[int], queue_id: int = 0,
                  timeout: float = 1.0) -> Generator[Any, Any, None]:
        """Generator: one-sided-write this block into every target rank.

        The whole fan-out is one round-priced ``write_round`` — a single
        queue slot and O(1) simulator events on a uniform fabric, with
        the virtual timing of one write per target (data lands per target
        at its own latency).  A dead target hangs the round's completion,
        so the final wait times out and purges the queue, and the stuck
        write cannot wedge later broadcasts.
        """
        from repro.gaspi.constants import ReturnCode

        nbytes = self.n_cells * _I8
        dsts = [t for t in targets if t != self.ctx.rank]
        if dsts:
            ret = self.ctx.write_round(FT_SEGMENT, 0, nbytes, dsts,
                                       FT_SEGMENT, 0, queue_id)
            if ret is not ReturnCode.SUCCESS:
                # queue full (wedged by ops stuck on dead ranks): drain —
                # purge on timeout — and repost
                drained = yield from self.ctx.wait(queue_id, timeout)
                if drained is not ReturnCode.SUCCESS:
                    self.ctx.queue_purge(queue_id)
                self.ctx.write_round(FT_SEGMENT, 0, nbytes, dsts,
                                     FT_SEGMENT, 0, queue_id)
        ret = yield from self.ctx.wait(queue_id, timeout)
        if ret is not ReturnCode.SUCCESS:
            self.ctx.queue_purge(queue_id)
        return ret
