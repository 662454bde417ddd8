"""Focused tests for detector scanning and recovery helpers."""

import pytest

from repro.cluster import FaultPlan, MachineSpec, TransportParams
from repro.gaspi import run_gaspi
from repro.ft.detector import scan_once
from repro.sim import Sleep


def machine_spec(n, error_timeout=1.0):
    return MachineSpec(n_nodes=n,
                       transport_params=TransportParams(error_timeout=error_timeout))


class TestScanOnce:
    def test_all_healthy_scan_time_linear(self):
        def main(ctx):
            if ctx.rank != 0:
                yield Sleep(60.0)
                return None
            t0 = ctx.now
            failed = yield from scan_once(ctx, list(range(1, 8)))
            return (failed, ctx.now - t0)

        run = run_gaspi(main, machine_spec=machine_spec(8), until=120.0)
        failed, dt = run.result(0)
        assert failed == []
        # 7 serial pings at ~1 ms each
        assert dt == pytest.approx(7 * 0.001, rel=0.1)

    def test_threaded_scan_overlaps_error_timeouts(self):
        """k dead targets cost ~one error timeout with fd_threads >= k."""

        def main(ctx, threads):
            if ctx.rank != 0:
                yield Sleep(60.0)
                return None
            yield Sleep(1.0)  # let the kills land
            t0 = ctx.now
            failed = yield from scan_once(ctx, list(range(1, 8)), threads)
            return (sorted(failed), ctx.now - t0)

        plan = FaultPlan().kill_process(0.1, 2).kill_process(0.1, 3) \
                          .kill_process(0.1, 4)

        serial = run_gaspi(lambda ctx: main(ctx, 1),
                           machine_spec=machine_spec(8), fault_plan=plan,
                           until=120.0)
        threaded = run_gaspi(lambda ctx: main(ctx, 8),
                             machine_spec=machine_spec(8), fault_plan=plan,
                             until=120.0)
        f_serial, t_serial = serial.result(0)
        f_threaded, t_threaded = threaded.result(0)
        assert f_serial == f_threaded == [2, 3, 4]
        # serial pays 3 error timeouts, threaded ~1
        assert t_serial == pytest.approx(3 * 1.0, rel=0.15)
        assert t_threaded == pytest.approx(1.0, rel=0.15)

    def test_empty_target_list(self):
        def main(ctx):
            failed = yield from scan_once(ctx, [])
            return failed

        run = run_gaspi(main, n_ranks=1)
        assert run.result(0) == []


class TestIdleOnlyFailures:
    def test_dead_idle_does_not_trigger_recovery(self):
        """A failed spare shrinks the pool but never interrupts workers."""
        from repro.experiments.common import run_ft_scenario
        from repro.workloads import scaled_spec

        spec = scaled_spec(workers=4, iterations=60, name="idle-death")
        # rank 4 and 5 are idles (n_spares=3 -> idles 4,5; FD 6)
        outcome = run_ft_scenario(
            "idle-death", spec, kill_times=[(30.0, 4)], n_spares=3,
        )
        assert outcome.n_recoveries == 0
        assert outcome.detection_time == 0.0
        # and the pool still rescues a later worker failure
        outcome2 = run_ft_scenario(
            "idle-death-then-worker", spec,
            kill_times=[(20.0, 4), (40.0, 1)], n_spares=3,
        )
        assert outcome2.n_recoveries == 1
        stats = outcome2.result.fd_stats
        assert stats.detections[0].rescues == (5,)  # 4 is dead, 5 steps in
