"""Failure-timeline reconstruction: events → per-failure lifecycle chains.

This is the paper's Figure 4 decomposition derived from the lifecycle
events: each injected failure becomes one :class:`FailureRecord`
carrying the timestamps of its lifecycle milestones

    inject → detection → broadcast → group rebuild → spare promotion
           → restore → rollback

and per-phase latencies between them.  Records are keyed on the recovery
``epoch`` the FD assigns at detection time: every downstream event
(``group_rebuild``, ``spare_promote``, ``failure_ack``, ``restore``,
``rollback``) carries an ``epoch`` field, so correlation is exact even
when failures overlap.  Checkpoint-manager ``restore`` events without an
``epoch`` field (e.g. reads outside a recovery) are deliberately ignored
here — they stay in the raw trace but belong to no failure chain.

One fold, two feeds.  :class:`FailureLog` folds milestones online: every
simulator keeps one (``sim.failure_log``) that the emission sites feed
whether or not a tracer is installed, and Figure 4's decomposition reads
its records.  :func:`build_timelines` replays a stored trace through the
same fold, so a traced run's records equal its log's.

Phase durations are non-negative by construction of the protocol: the
group commit is a collective (all members finish together, after the
detection broadcast), the rescue's promotion is reported at commit
success, and restore/rollback happen after re-initialisation.  The
``repro trace`` CLI asserts this on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .tracer import (BROADCAST_FLAGS, DETECTION, FAILURE_ACK,
                     FAILURE_INJECTED, GROUP_REBUILD, LIFECYCLE_ETYPES,
                     RESTORE, ROLLBACK, SPARE_PROMOTE, VERSION_AGREED,
                     TraceEvent)

#: phase names in lifecycle order, mapping to FailureRecord properties
PHASES = (
    ("detection_latency_s", "Inject → detected"),
    ("broadcast_s", "Detected → all ranks notified"),
    ("group_rebuild_s", "Notified → new group committed"),
    ("spare_promote_s", "Rebuild span of the promoted rescue"),
    ("restore_s", "Committed → checkpoint restored"),
    ("rollback_s", "Restored → solver resumed"),
)


@dataclass
class FailureRecord:
    """One failure's reconstructed lifecycle."""

    epoch: int
    failed: Tuple[int, ...] = ()
    rescues: Tuple[int, ...] = ()
    scenario: str = ""
    t_injected: Optional[float] = None
    t_detected: Optional[float] = None
    t_broadcast: Optional[float] = None
    t_rebuilt: Optional[float] = None
    promote_dur: Optional[float] = None
    t_restored: Optional[float] = None
    t_rollback: Optional[float] = None
    restore_version: Optional[int] = None
    #: physical rank -> the instant it acknowledged this epoch's notice
    acks: Dict[int, float] = field(default_factory=dict)
    #: physical rank -> its re-initialisation span, from its own
    #: ``failure_ack`` (survivor) or ``spare_promote`` (rescue) to its
    #: next ``version_agreed``, credited to the epoch it started in
    reinit: Dict[int, float] = field(default_factory=dict)

    # -- per-phase latencies (None when an endpoint is missing) --------
    @staticmethod
    def _delta(a: Optional[float], b: Optional[float]) -> Optional[float]:
        return None if a is None or b is None else b - a

    @property
    def detection_latency_s(self) -> Optional[float]:
        return self._delta(self.t_injected, self.t_detected)

    @property
    def broadcast_s(self) -> Optional[float]:
        return self._delta(self.t_detected, self.t_broadcast)

    @property
    def group_rebuild_s(self) -> Optional[float]:
        return self._delta(self.t_broadcast, self.t_rebuilt)

    @property
    def spare_promote_s(self) -> Optional[float]:
        return self.promote_dur

    @property
    def restore_s(self) -> Optional[float]:
        return self._delta(self.t_rebuilt, self.t_restored)

    @property
    def rollback_s(self) -> Optional[float]:
        return self._delta(self.t_restored, self.t_rollback)

    @property
    def total_recovery_s(self) -> Optional[float]:
        """Inject → solver resumed, the paper's per-failure overhead."""
        return self._delta(self.t_injected, self.t_rollback)

    def phases(self) -> Dict[str, Optional[float]]:
        return {name: getattr(self, name) for name, _ in PHASES}

    @property
    def complete(self) -> bool:
        """Full detection→rebuild→promote→restore chain present?"""
        return (self.t_injected is not None
                and self.t_detected is not None
                and self.t_rebuilt is not None
                and (self.promote_dur is not None or not self.rescues)
                and self.t_restored is not None)

    @property
    def nonnegative(self) -> bool:
        return all(v is None or v >= -1e-9 for v in self.phases().values())


class FailureLog:
    """Online fold of lifecycle milestones into failure records.

    :meth:`fold` takes the arguments of ``Tracer.emit`` and must see one
    run's milestones in time order.  It keeps no event list: injection
    times, one record per epoch and each rank's open reinit span.
    """

    __slots__ = ("scenario", "folded", "_injected", "_records", "_open")

    def __init__(self, scenario: str = "") -> None:
        self.scenario = scenario
        #: milestones folded so far (none on a failure-free run)
        self.folded = 0
        self._injected: Dict[int, List[float]] = {}  # rank -> times, ascending
        self._records: Dict[int, FailureRecord] = {}
        #: rank -> (epoch, start instant) of its open reinit span
        self._open: Dict[int, Tuple[int, float]] = {}

    def _record(self, epoch: int) -> FailureRecord:
        rec = self._records.get(epoch)
        if rec is None:
            rec = self._records[epoch] = FailureRecord(
                epoch=epoch, scenario=self.scenario)
        return rec

    def fold(self, t: float, rank: int, etype: str, dur: float = 0.0,
             **fields: Any) -> None:
        """Fold one lifecycle milestone (see :data:`LIFECYCLE_ETYPES`)."""
        self.folded += 1
        if etype == FAILURE_INJECTED:
            self._injected.setdefault(rank, []).append(t)
            return
        if etype == VERSION_AGREED:
            # closes the rank's span, whichever epoch the team is in now
            opened = self._open.pop(rank, None)
            if opened is not None:
                epoch, t_start = opened
                self._record(epoch).reinit[rank] = t - t_start
            return
        epoch = fields.get("epoch")
        if epoch is None:
            return  # e.g. manager-level restore outside recovery
        rec = self._record(epoch)
        if etype == DETECTION:
            rec.failed = tuple(fields.get("failed", ()))
            rec.rescues = tuple(fields.get("rescues", ()))
            rec.t_detected = t
            # the failure this scan caught: for each failed rank, the
            # latest injection at or before detection; the record's
            # t_injected is the earliest of those (first unserved fault)
            times = []
            for failed in rec.failed:
                cands = [ti for ti in self._injected.get(failed, ())
                         if ti <= t + 1e-9]
                if cands:
                    times.append(cands[-1])
            rec.t_injected = min(times) if times else None
        elif etype == BROADCAST_FLAGS:
            rec.t_broadcast = (t if rec.t_broadcast is None
                               else max(rec.t_broadcast, t))
        elif etype == GROUP_REBUILD:
            # all members commit collectively; keep the last to finish
            rec.t_rebuilt = (t if rec.t_rebuilt is None
                             else max(rec.t_rebuilt, t))
        elif etype == SPARE_PROMOTE:
            rec.promote_dur = max(rec.promote_dur or 0.0, dur)
            self._open[rank] = (epoch, t)
        elif etype == FAILURE_ACK:
            rec.acks[rank] = t
            self._open[rank] = (epoch, t)
        elif etype == RESTORE:
            rec.t_restored = (t if rec.t_restored is None
                              else max(rec.t_restored, t))
            if "version" in fields:
                rec.restore_version = fields["version"]
        elif etype == ROLLBACK:
            rec.t_rollback = (t if rec.t_rollback is None
                              else max(rec.t_rollback, t))

    def records(self) -> List[FailureRecord]:
        """One record per epoch, ascending."""
        return [self._records[e] for e in sorted(self._records)]


def build_timelines(events: Iterable[TraceEvent],
                    scenario: str = "") -> List[FailureRecord]:
    """Replay a stored trace's lifecycle milestones through :class:`FailureLog`."""
    log = FailureLog(scenario)
    for ev in sorted(events, key=lambda e: e.t):
        if ev.etype in LIFECYCLE_ETYPES:
            log.fold(ev.t, ev.rank, ev.etype, ev.dur, **ev.fields)
    return log.records()


def injected_ranks(events: Iterable[TraceEvent]) -> List[int]:
    """Distinct ranks hit by ``failure_injected`` events (rank ≥ 0)."""
    return sorted({ev.rank for ev in events
                   if ev.etype == FAILURE_INJECTED and ev.rank >= 0})


def phase_stats(records: Sequence[FailureRecord]) -> Dict[str, dict]:
    """min/mean/max per phase over a set of failure records."""
    out: Dict[str, dict] = {}
    for name, _ in PHASES + (("total_recovery_s", ""),):
        values = [getattr(r, name) for r in records
                  if getattr(r, name) is not None]
        if values:
            out[name] = {
                "count": len(values),
                "min": min(values),
                "mean": sum(values) / len(values),
                "max": max(values),
            }
    return out


def timeline_report(records: Sequence[FailureRecord],
                    title: str = "Failure timeline") -> str:
    """Human-readable per-failure lifecycle report."""
    lines = [title, "=" * len(title)]
    if not records:
        lines.append("(no failures detected)")
        return "\n".join(lines)
    for rec in records:
        head = (f"epoch {rec.epoch}"
                + (f" [{rec.scenario}]" if rec.scenario else "")
                + f": failed={list(rec.failed)} rescues={list(rec.rescues)}")
        lines.append("")
        lines.append(head)
        lines.append("-" * len(head))
        milestones = [
            ("injected", rec.t_injected), ("detected", rec.t_detected),
            ("broadcast", rec.t_broadcast), ("group rebuilt", rec.t_rebuilt),
            ("restored", rec.t_restored), ("rolled back", rec.t_rollback),
        ]
        for label, t in milestones:
            lines.append(f"  {label:<14} "
                         + (f"t={t:12.4f} s" if t is not None else "—"))
        for name, desc in PHASES:
            v = getattr(rec, name)
            if v is not None:
                lines.append(f"    {name:<22} {v:10.4f} s   ({desc})")
        total = rec.total_recovery_s
        if total is not None:
            lines.append(f"    {'total_recovery_s':<22} {total:10.4f} s")
        if not rec.complete:
            lines.append("    !! incomplete chain")
    return "\n".join(lines)
