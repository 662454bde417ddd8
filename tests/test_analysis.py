"""Per-failure timelines and recovery reports of traced FT runs
(``repro.obs.timeline``)."""

import pytest

from repro.cluster import FaultPlan
from repro.experiments.common import ft_config_for, machine_for
from repro.ft.app import run_ft_application
from repro.obs import (
    CKPT_WRITE,
    FAILURE_INJECTED,
    build_timelines,
    deactivate,
    install,
    timeline_report,
)
from repro.workloads import ModelLanczosProgram, scaled_spec


def _traced_run(spec, plan=None, until=600.0):
    cfg = ft_config_for(spec, n_spares=2)
    tracer = install()
    try:
        result = run_ft_application(
            cfg, ModelLanczosProgram(spec), machine_spec=machine_for(cfg),
            fault_plan=plan, until=until,
        )
    finally:
        deactivate()
    return result, tracer.events()


@pytest.fixture(scope="module")
def faulty_run():
    spec = scaled_spec(workers=4, iterations=80, name="analysis")
    return _traced_run(spec, FaultPlan().kill_process(30.0, 1))


@pytest.fixture(scope="module")
def clean_run():
    spec = scaled_spec(workers=4, iterations=40, name="analysis-clean")
    return _traced_run(spec, until=300.0)


class TestCollectTimeline:
    def test_events_chronological_and_complete(self, faulty_run):
        _, events = faulty_run
        records = build_timelines(events)
        assert len(records) == 1
        rec = records[0]
        milestones = [rec.t_injected, rec.t_detected, rec.t_broadcast,
                      rec.t_rebuilt, rec.t_restored, rec.t_rollback]
        assert milestones == sorted(milestones)
        assert rec.complete and rec.nonnegative

    def test_checkpoints_excluded_by_default(self, faulty_run):
        # checkpoint writes stay in the raw trace but join no failure chain
        _, events = faulty_run
        assert any(e.etype == CKPT_WRITE for e in events)
        without = [e for e in events if e.etype != CKPT_WRITE]
        assert build_timelines(without) == build_timelines(events)

    def test_sources_identify_origin(self, faulty_run):
        _, events = faulty_run
        injected = [e for e in events if e.etype == FAILURE_INJECTED]
        assert [e.rank for e in injected] == [1]
        assert build_timelines(events)[0].failed == (1,)

    def test_render_contains_rows(self, faulty_run):
        _, events = faulty_run
        text = timeline_report(build_timelines(events))
        assert "injected" in text
        assert "broadcast" in text


class TestRecoveryReport:
    def test_epoch_breakdown(self, faulty_run):
        _, events = faulty_run
        records = build_timelines(events)
        assert len(records) == 1
        e = records[0]
        assert e.epoch == 1
        assert e.failed == (1,)
        assert e.t_injected == 30.0
        assert e.t_injected < e.t_detected <= e.t_broadcast < e.t_restored
        assert 0 < e.detection_latency_s < 8
        assert 0 < e.t_restored - e.t_broadcast < 5

    def test_report_text(self, faulty_run):
        _, events = faulty_run
        report = timeline_report(build_timelines(events))
        assert "epoch 1" in report
        assert "injected" in report
        assert "restored" in report

    def test_failure_free_report(self, clean_run):
        _, events = clean_run
        assert build_timelines(events) == []
        assert "(no failures detected)" in timeline_report([])
