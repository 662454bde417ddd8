"""Failure-timeline reconstruction: synthetic chains + a scripted run."""

import pytest

from repro.obs.timeline import (
    FailureLog,
    build_timelines,
    injected_ranks,
    phase_stats,
    timeline_report,
    value_stats,
)
from repro.obs.tracer import TraceEvent


def ev(t, rank, etype, dur=0.0, **fields):
    return TraceEvent(t, rank, etype, dur, fields)


# ----------------------------------------------------------------------
# synthetic chains with known arithmetic
# ----------------------------------------------------------------------
def _one_failure_events():
    return [
        ev(10.0, 1, "failure_injected", kind="KillProcess"),
        ev(16.0, 9, "detection", epoch=1, failed=[1], rescues=[7]),
        ev(16.5, 9, "broadcast_flags", dur=0.5, epoch=1, n_targets=8),
        ev(18.0, 0, "group_rebuild", dur=1.2, epoch=1, size=4),
        ev(18.2, 7, "group_rebuild", dur=1.4, epoch=1, size=4),
        ev(18.2, 7, "spare_promote", dur=2.0, epoch=1, logical=1),
        ev(19.0, 7, "restore", dur=0.8, epoch=1, version=3),
        ev(19.0, 7, "rollback", epoch=1, version=3),
    ]


def test_single_failure_chain_reconstruction():
    (rec,) = build_timelines(_one_failure_events(), scenario="synthetic")
    assert rec.epoch == 1
    assert rec.failed == (1,) and rec.rescues == (7,)
    assert rec.t_injected == 10.0 and rec.t_detected == 16.0
    assert rec.detection_latency_s == pytest.approx(6.0)
    assert rec.broadcast_s == pytest.approx(0.5)
    # rebuild ends when the *last* member committed
    assert rec.t_rebuilt == 18.2
    assert rec.group_rebuild_s == pytest.approx(1.7)
    assert rec.spare_promote_s == pytest.approx(2.0)
    assert rec.restore_s == pytest.approx(0.8)
    assert rec.rollback_s == pytest.approx(0.0)
    assert rec.total_recovery_s == pytest.approx(9.0)
    assert rec.restore_version == 3
    assert rec.complete and rec.nonnegative


def test_incomplete_chain_flagged():
    events = _one_failure_events()[:2]  # inject + detection only
    (rec,) = build_timelines(events)
    assert not rec.complete
    assert rec.group_rebuild_s is None
    assert "incomplete chain" in timeline_report([rec])


def test_epoch_correlation_of_overlapping_failures():
    events = _one_failure_events() + [
        ev(30.0, 2, "failure_injected", kind="KillProcess"),
        ev(35.0, 9, "detection", epoch=2, failed=[2], rescues=[8]),
        ev(37.0, 8, "group_rebuild", dur=1.0, epoch=2, size=4),
        ev(37.0, 8, "spare_promote", dur=1.5, epoch=2, logical=2),
        ev(37.5, 8, "restore", dur=0.5, epoch=2, version=4),
    ]
    recs = build_timelines(events)
    assert [r.epoch for r in recs] == [1, 2]
    assert recs[1].t_injected == 30.0
    assert recs[1].detection_latency_s == pytest.approx(5.0)
    assert recs[1].complete


def test_manager_restore_without_epoch_ignored_by_chains():
    events = _one_failure_events() + [
        ev(2.0, 3, "restore", dur=0.1, version=0, source="local"),
    ]
    (rec,) = build_timelines(events)
    assert rec.t_restored == 19.0  # the out-of-recovery read did not attach


def test_injected_ranks_and_phase_stats():
    events = _one_failure_events()
    assert injected_ranks(events) == [1]
    stats = phase_stats(build_timelines(events))
    assert stats["detection_latency_s"]["count"] == 1
    assert stats["detection_latency_s"]["mean"] == pytest.approx(6.0)
    assert stats["total_recovery_s"]["max"] == pytest.approx(9.0)


def test_value_stats_min_mean_max():
    assert value_stats([1.0, 3.0, 2.0]) == {
        "count": 3, "min": 1.0, "mean": 2.0, "max": 3.0}


def test_latest_injection_before_detection_wins():
    """A rank killed, recovered, then killed again: each detection pairs
    with the newest injection at or before it."""
    events = [
        ev(10.0, 1, "failure_injected"),
        ev(15.0, 9, "detection", epoch=1, failed=[1], rescues=[7]),
        ev(16.0, 7, "group_rebuild", dur=1.0, epoch=1),
        ev(16.0, 7, "spare_promote", dur=1.0, epoch=1),
        ev(16.5, 7, "restore", dur=0.5, epoch=1),
        ev(40.0, 1, "failure_injected"),
        ev(45.0, 9, "detection", epoch=2, failed=[1], rescues=[8]),
        ev(46.0, 8, "group_rebuild", dur=1.0, epoch=2),
        ev(46.0, 8, "spare_promote", dur=1.0, epoch=2),
        ev(46.5, 8, "restore", dur=0.5, epoch=2),
    ]
    recs = build_timelines(events)
    assert recs[0].t_injected == 10.0
    assert recs[1].t_injected == 40.0


def test_reinit_spans_credit_the_epoch_they_started_in():
    """A survivor's span starts at its failure_ack, a rescue's at its
    spare_promote timestamp; each ends at the rank's next version_agreed
    and stays with the epoch it started in, even when a newer notice
    superseded that epoch during the rebuild."""
    events = [
        ev(10.0, 1, "failure_injected", kind="KillProcess"),
        ev(16.0, 9, "detection", epoch=1, failed=[1], rescues=[7]),
        ev(16.25, 0, "failure_ack", epoch=1),
        ev(17.0, 2, "failure_injected", kind="KillProcess"),
        ev(19.0, 9, "detection", epoch=2, failed=[2], rescues=[8]),
        ev(21.0, 7, "spare_promote", dur=4.0, epoch=2, logical=1),
        ev(21.0, 8, "spare_promote", dur=1.5, epoch=2, logical=2),
        ev(21.5, 0, "version_agreed", epoch=2, version=3),
        ev(21.5, 7, "version_agreed", epoch=2, version=3),
        ev(21.5, 8, "version_agreed", epoch=2, version=3),
        ev(22.0, 0, "version_agreed", epoch=2, version=3),  # no open span
    ]
    first, second = build_timelines(events)
    assert first.acks == {0: 16.25} and first.reinit == {0: 5.25}
    assert second.acks == {} and second.reinit == {7: 0.5, 8: 0.5}
    assert second.promote_dur == 4.0


def test_failure_log_folds_online_what_build_timelines_replays():
    log = FailureLog("synthetic")
    for e in _one_failure_events():
        log.fold(e.t, e.rank, e.etype, e.dur, **e.fields)
    assert log.folded == len(_one_failure_events())
    assert log.records() == build_timelines(_one_failure_events(),
                                            scenario="synthetic")


# ----------------------------------------------------------------------
# a scripted failure scenario through the real stack
# ----------------------------------------------------------------------
def test_timeline_from_scripted_failure_scenario():
    """One kill through the full FT stack must reconstruct into exactly
    one complete detection→rebuild→promote→restore chain."""
    from repro.experiments.common import run_ft_scenario
    from repro.obs import tracer as obs_tracer
    from repro.workloads.spec import scaled_spec

    spec = scaled_spec(workers=8, iterations=60, name="scripted")
    tr = obs_tracer.install()
    try:
        run_ft_scenario("scripted", spec, kill_times=[(40.0, 1)], n_spares=2)
    finally:
        obs_tracer.deactivate()
    events = tr.events()
    assert tr.dropped == 0
    assert injected_ranks(events) == [1]

    recs = build_timelines(events, scenario="scripted")
    assert len(recs) == 1
    rec = recs[0]
    assert rec.failed == (1,)
    assert rec.complete and rec.nonnegative
    assert rec.t_injected == pytest.approx(40.0)
    # detection latency ~ scan wait + error timeout: positive, bounded
    assert 0.0 < rec.detection_latency_s < 15.0
    assert rec.group_rebuild_s > 0.0
    assert rec.spare_promote_s > 0.0
    assert rec.restore_s > 0.0
    assert rec.total_recovery_s == pytest.approx(
        rec.t_rollback - rec.t_injected)
