"""Parallel file system model: one global store with shared bandwidth.

PFS-level checkpoints are the expensive classical alternative the paper's
neighbor-level scheme avoids; this model backs the ``pfs`` checkpoint
backend and the checkpoint-destination ablation.

Bandwidth is modelled as processor sharing (fluid flow): at any instant the
aggregate bandwidth is split equally among all in-flight transfers, and the
split is re-evaluated whenever a transfer starts or finishes.  Two
simultaneous 1 GB writes over a 1 GB/s PFS therefore both complete at
t = 2 s — not one at 1 s and one at 2 s.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.sim import Event, Simulator, Sleep, WaitEvent
from repro.checkpoint.store import CheckpointNotFound, Key, StoredBlob

_EPS = 1e-9


class _Transfer:
    __slots__ = ("remaining", "done")

    def __init__(self, nbytes: float) -> None:
        self.remaining = float(nbytes)
        self.done = Event()


class FluidLink:
    """Processor-sharing bandwidth pool (reusable beyond the PFS)."""

    def __init__(self, sim: Simulator, bandwidth: float) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.bandwidth = bandwidth
        self._active: List[_Transfer] = []
        self._last = 0.0
        self._timer = None

    def start(self, nbytes: int) -> Event:
        """Begin a transfer; the returned event fires at completion."""
        self._advance()
        transfer = _Transfer(max(float(nbytes), _EPS))
        self._active.append(transfer)
        self._reschedule()
        return transfer.done

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        now = self.sim.now
        if self._active:
            share = self.bandwidth / len(self._active)
            elapsed = now - self._last
            for transfer in self._active:
                transfer.remaining -= share * elapsed
        self._last = now

    def _reschedule(self) -> None:
        if self._timer is not None:
            self.sim.cancel(self._timer)
            self._timer = None
        if not self._active:
            return
        share = self.bandwidth / len(self._active)
        first = min(t.remaining for t in self._active)
        self._timer = self.sim.schedule(max(0.0, first / share), self._complete)

    def _complete(self) -> None:
        self._advance()
        # Tolerance absorbs float round-off between the scheduled finish time
        # and the advanced remaining bytes; 1e-3 bytes is far below a single
        # clock tick at any modelled bandwidth.
        finished = [t for t in self._active if t.remaining <= 1e-3]
        if not finished and self._active:
            # The timer fired for the minimum-remaining transfer; round-off
            # alone kept it nominally unfinished — force it done to guarantee
            # progress (otherwise a sub-resolution delay could loop forever).
            finished = [min(self._active, key=lambda t: t.remaining)]
        self._active = [t for t in self._active if t not in finished]
        for transfer in finished:
            transfer.done.succeed(None)
        self._reschedule()


class ParallelFileSystem:
    """Globally shared, contention-limited blob store."""

    def __init__(self, sim: Simulator, aggregate_bandwidth: float = 10.0e9,
                 latency: float = 2.0e-3) -> None:
        self.sim = sim
        self.latency = latency
        self.link = FluidLink(sim, aggregate_bandwidth)
        self._blobs: Dict[Key, StoredBlob] = {}

    # ------------------------------------------------------------------
    def write(self, key: Key,
              blob: StoredBlob) -> Generator[Any, Any, None]:
        """Generator: store a blob, charging contended transfer time.

        The classical PFS checkpoint cost (the baseline of Sect. IV-C and
        of ``recovery_compare``'s backend table): latency plus the blob's
        share of the *aggregate* bandwidth, so a whole team writing at
        once divides one pipe.
        """
        yield Sleep(self.latency)
        done = self.link.start(blob.nominal_bytes)
        yield WaitEvent(done)  # ftlint: disable=FT001 -- PFS transfer completion is a locally simulated event; it always fires, there is no remote failure mode
        self._blobs[key] = blob

    def read(self, key: Key) -> Generator[Any, Any, StoredBlob]:
        """Generator: fetch a blob (returns it), charging transfer time.

        Raises :class:`CheckpointNotFound` when the key was never
        written — checked eagerly, before any time is charged.
        """
        if key not in self._blobs:
            raise CheckpointNotFound(f"no blob {key} on PFS")
        blob = self._blobs[key]
        yield Sleep(self.latency)
        done = self.link.start(blob.nominal_bytes)
        yield WaitEvent(done)  # ftlint: disable=FT001 -- PFS transfer completion is a locally simulated event; it always fires, there is no remote failure mode
        return blob

    def has(self, key: Key) -> bool:
        return key in self._blobs

    def latest_version(self, tag: str, logical_rank: int) -> Optional[int]:
        versions = [
            k[2] for k in self._blobs if k[0] == tag and k[1] == logical_rank
        ]
        return max(versions) if versions else None

    def __len__(self) -> int:
        return len(self._blobs)
