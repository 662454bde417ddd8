#!/usr/bin/env python
"""Anatomy of a recovery: timeline, cost report and capacity planning.

Runs a paper-scale (model-kernel) job with two injected failures under a
structured tracer, then uses `repro.obs.timeline` to dissect what
happened — each failure's detect → broadcast → rebuild → restore →
rollback chain with its per-phase latencies — and finally asks the
`repro.analysis` planner the question the paper leaves open: how many
spares should this job have reserved, and how often should it checkpoint?

Run:  python examples/recovery_anatomy.py
"""

from repro.analysis import plan_job
from repro.cluster import FaultPlan
from repro.experiments.common import ft_config_for, machine_for
from repro.ft.app import run_ft_application
from repro.obs import build_timelines, deactivate, install, timeline_report
from repro.workloads import ModelLanczosProgram, scaled_spec


def main():
    spec = scaled_spec(workers=32, iterations=300, name="anatomy")
    cfg = ft_config_for(spec, n_spares=3)
    plan = FaultPlan().kill_process(40.0, 5).kill_process(80.0, 11)

    print(f"Running {spec.n_workers} workers, {spec.n_iterations} iterations "
          f"(~{spec.setup_time + spec.baseline_runtime:.0f} s), "
          f"killing ranks 5 and 11 ...\n")
    tracer = install()
    try:
        result = run_ft_application(
            cfg, ModelLanczosProgram(spec),
            machine_spec=machine_for(cfg),
            fault_plan=plan,
            until=2000.0,
        )
    finally:
        deactivate()
    assert result.status == "done"

    records = build_timelines(tracer.events())
    assert len(records) == 2 and all(r.complete for r in records)
    print("=== recovery cost report ===")
    print(timeline_report(records, title="Per-failure lifecycle"))

    # capacity planning: the question the paper declares out of scope
    duration = max(w["t_done"] for w in result.worker_results().values())
    checkpoint_cost = spec.checkpoint_bytes_per_worker / 5.0e9
    print("\n=== planner: spares + checkpoint interval for this job ===")
    for mttf_hours in (2.0, 24.0):
        rec = plan_job(n_workers=spec.n_workers, duration=duration,
                       mttf_node=mttf_hours * 3600.0,
                       checkpoint_cost=checkpoint_cost,
                       recovery_cost=17.0, target_survival=0.99)
        print(f"  node MTTF {mttf_hours:5.1f} h -> reserve "
              f"{rec.n_spares} spare(s) "
              f"(survival {rec.survival_probability:.3f}, "
              f"E[failures] {rec.expected_failures:.2f}), "
              f"checkpoint every {rec.checkpoint_interval:.0f} s "
              f"(~{rec.expected_overhead_fraction * 100:.2f}% overhead)")
    print("\nOK")


if __name__ == "__main__":
    main()
