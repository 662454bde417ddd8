"""End-to-end determinism regression for the kernel run-queue change.

The simulator's contract is a total order on ``(time, seq)``: two
identically-configured runs must replay the exact same event sequence.
The same-timestamp FIFO run-queue added for performance bypasses the heap
for zero-delay events, so this test pins the contract at full-stack
scale: two identically-seeded Figure-4 runs (FT Lanczos, fault injection,
recovery) must produce byte-identical step traces and virtual end times.
"""

from repro.cluster import FaultPlan
from repro.experiments.common import ft_config_for, machine_for
from repro.experiments.figure4 import default_spec, kill_schedule
from repro.ft.app import ft_main
from repro.gaspi import run_gaspi
from repro.sim import Simulator
from repro.workloads.kernels import ModelLanczosProgram
from tests.sim.step_trace import record_steps


def _traced_run(spec):
    """One '1 fail recovery' Figure-4 scenario with step tracing on."""
    cfg = ft_config_for(spec)
    plan = FaultPlan()
    for t, rank in kill_schedule(spec, 1):
        plan.kill_process(t, rank)
    sim = Simulator()
    trace = record_steps(sim)
    run = run_gaspi(
        ft_main(cfg, ModelLanczosProgram(spec)),
        machine_spec=machine_for(cfg),
        fault_plan=plan,
        until=(spec.setup_time + spec.baseline_runtime) * 4 + 600,
        sim=sim,
    )
    workers = {r: p.result for r, p in run.procs.items()
               if isinstance(p.result, dict) and "logical_rank" in p.result}
    assert workers and all(w["status"] == "done" for w in workers.values())
    return trace, sim.now


def test_identically_seeded_runs_are_byte_identical():
    spec = default_spec("small")
    trace_a, now_a = _traced_run(spec)
    trace_b, now_b = _traced_run(spec)
    assert now_a == now_b            # virtual end times identical
    assert len(trace_a) == len(trace_b) > 0
    assert trace_a == trace_b        # same (time, process, kind) sequence
    assert repr(trace_a) == repr(trace_b)  # byte-identical serialisation
