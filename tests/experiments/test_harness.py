"""Tests for the experiment harness: the paper's shape claims must hold."""

import pytest

from repro.experiments import figure4
from repro.experiments.figure4 import (
    as_rows,
    curve_shape,
    default_spec,
    kill_schedule,
    run_bare,
    run_curve,
    run_figure4,
)
from repro.experiments.common import run_ft_scenario
from repro.experiments.report import format_table
from repro.experiments.table1 import measure_detection, measure_scan_time
from repro.workloads import scaled_spec


@pytest.fixture(scope="module")
def tiny_figure4():
    return run_figure4(default_spec("tiny"))


class TestFigure4Shapes:
    """The paper's Figure 4 claims, asserted on the tiny preset."""

    def test_all_seven_scenarios_present(self, tiny_figure4):
        names = [o.name for o in tiny_figure4]
        assert names == [
            "w/o HC, w/o CP", "w/o HC, with CP", "with HC, with CP",
            "1 fail recovery", "2 fail recovery", "3 fail recovery",
            "3 sim. fail recovery",
        ]

    def test_checkpointing_overhead_negligible(self, tiny_figure4):
        base, with_cp = tiny_figure4[0], tiny_figure4[1]
        assert with_cp.total_runtime <= base.total_runtime * 1.001

    def test_health_check_adds_no_overhead(self, tiny_figure4):
        with_cp, with_hc = tiny_figure4[1], tiny_figure4[2]
        assert with_hc.total_runtime <= with_cp.total_runtime * 1.005

    def test_health_check_alone_triggers_no_recovery(self, tiny_figure4):
        assert tiny_figure4[2].n_recoveries == 0

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_each_sequential_failure_is_recovered(self, tiny_figure4, k):
        outcome = tiny_figure4[2 + k]
        assert outcome.n_recoveries == k
        assert outcome.redo_work_time > 0
        assert outcome.detection_time > 0

    def test_each_failure_adds_roughly_constant_overhead(self, tiny_figure4):
        base = tiny_figure4[2].total_runtime
        o1 = tiny_figure4[3].total_runtime - base
        o2 = tiny_figure4[4].total_runtime - base
        o3 = tiny_figure4[5].total_runtime - base
        assert o1 > 0
        assert o2 == pytest.approx(2 * o1, rel=0.35)
        assert o3 == pytest.approx(3 * o1, rel=0.35)

    def test_simultaneous_failures_cost_one_detection(self, tiny_figure4):
        one = tiny_figure4[3]
        sim3 = tiny_figure4[6]
        # three simultaneous failures recovered at ~the cost of one failure
        assert sim3.total_runtime <= one.total_runtime * 1.1
        assert sim3.n_recoveries == 1

    def test_recovery_decomposition_components_positive(self, tiny_figure4):
        one = tiny_figure4[3]
        assert one.detection_time > 0
        assert one.reinit_time > 0
        assert one.redo_work_time > 0
        # detection dominated by scan period (3 s) + error timeout (3.5 s)
        assert 3.5 <= one.detection_time <= 8.5

    def test_components_sum_to_total(self, tiny_figure4):
        for o in tiny_figure4:
            total = (o.computation_time + o.redo_work_time
                     + o.reinit_time + o.detection_time)
            assert total == pytest.approx(o.total_runtime, rel=1e-6)


class TestTable1Shapes:
    def test_scan_time_linear_in_processes(self):
        t8 = measure_scan_time(8)
        t16 = measure_scan_time(16)
        t32 = measure_scan_time(32)
        # ~1 ms per pinged process + small setup
        assert t8 == pytest.approx(0.002 + 0.001 * 7, rel=0.15)
        assert (t32 - t16) == pytest.approx(2 * (t16 - t8), rel=0.2)

    def test_detection_latency_flat_in_nodes(self):
        d8 = measure_detection(8, seed=1)
        d32 = measure_detection(32, seed=2)
        assert 3.5 <= d8 <= 8.0
        assert 3.5 <= d32 <= 8.0

    def test_detection_varies_with_seed(self):
        samples = {round(measure_detection(8, seed=s), 6) for s in range(4)}
        assert len(samples) > 1  # random kill instants → random scan phase


class TestFigure4Curve:
    """The --curve shape gate against the digitized reference points."""

    def test_shape_gate_passes_on_subset(self):
        nodes = [8, 16, 32]
        measured = run_curve(nodes)
        rows, worst = curve_shape(nodes, measured)
        assert [r[0] for r in rows] == nodes
        assert worst <= figure4.CURVE_TOL

    def test_shape_distance_catches_a_distorted_curve(self):
        # a flat (non-linear) 8-node point breaks the normalized shape
        _, worst = curve_shape([8, 256], [0.120, 0.258])
        assert worst > figure4.CURVE_TOL

    def test_curve_needs_two_points(self):
        with pytest.raises(ValueError, match="at least two"):
            curve_shape([256], [0.258])

    def test_curve_cli_prints_gate_verdict(self, capsys):
        figure4.main(["--curve", "--nodes", "8", "16", "32"])
        out = capsys.readouterr().out
        assert "shape gate" in out and "PASS" in out

    def test_curve_cli_rejects_unknown_node_count(self, capsys):
        with pytest.raises(SystemExit):
            figure4.main(["--curve", "--nodes", "8", "48"])
        assert "no digitized reference" in capsys.readouterr().err


class TestHarnessPlumbing:
    def test_bare_run_matches_spec_prediction(self):
        spec = scaled_spec(workers=8, iterations=30, name="plumbing")
        total = run_bare(spec, checkpoints=False)
        predicted = spec.setup_time + spec.baseline_runtime
        assert total == pytest.approx(predicted, rel=0.02)

    def test_kill_schedule_targets_are_workers(self):
        spec = default_spec("tiny")
        for t, rank in kill_schedule(spec, 3):
            assert 0 < rank < spec.n_workers
            assert t > spec.setup_time

    def test_scenario_raises_if_not_completed(self):
        spec = scaled_spec(workers=4, iterations=30, name="fail-case")
        # 2 kills, 1 spare (the FD joins for the first, nothing remains)
        with pytest.raises(RuntimeError, match="did not complete"):
            run_ft_scenario(
                "impossible", spec,
                kill_times=[(25.0, 1), (40.0, 2)],
                n_spares=1, until=300.0,
            )

    def test_format_table_renders(self, tiny_figure4):
        from repro.experiments.figure4 import HEADERS
        text = format_table(HEADERS, as_rows(tiny_figure4), title="t")
        assert "w/o HC, w/o CP" in text
        assert text.count("\n") >= 9
