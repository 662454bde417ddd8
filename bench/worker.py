"""One workload in one fresh process: warm-up, timed passes, checks.

Started by ``run.py``, never directly by users.  Prints progress lines and,
as its last stdout line, one JSON object with the measurements.

Untraced (``--trace 0``): one untimed warm-up pass, then timed passes until
the next one would end past ``--seconds``.  Each pass's wall time is split
into time inside ``Simulator.run`` and set-up time outside it (world build,
process launch, result decomposition).

Traced (``--trace 1``): after the warm-up, untraced and traced passes
alternate, so ``trace_overhead`` compares passes made under the same
conditions; the per-layer metrics come from the traced passes.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN = BENCH / "golden" / "seed0.json"


def golden_outputs(workload: str, quick: bool) -> Dict[str, Any]:
    """The exact seed-0 outputs of ``workload``."""
    return json.loads(GOLDEN.read_text())["quick" if quick else "full"][workload]


def summary(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and sample count of per-pass values."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


class SimClock:
    """Accumulates wall time spent inside ``Simulator.run`` (untraced)."""

    def __init__(self) -> None:
        from repro.sim import Simulator

        self.inside = 0.0
        run = Simulator.run

        def timed_run(sim, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.inside += time.perf_counter() - t0

        Simulator.run = timed_run


class Runner:
    """Runs and checks passes of one workload, counting failures."""

    def __init__(self, inputs: Dict[str, Any],
                 expected: Optional[Dict[str, Any]],
                 lambda_ref: Optional[float]) -> None:
        self.inputs = inputs
        self.expected = expected
        self.lambda_ref = lambda_ref
        self.clock = SimClock()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.last_outputs: Optional[Dict[str, Any]] = None

    def one(self, tracer: Optional[spans.Tracer] = None) -> Dict[str, float]:
        """One checked pass; returns its wall and set-up seconds."""
        gc.collect()
        self.attempted += 1
        self.clock.inside = 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outputs = workloads.run_pass(self.inputs)
            else:
                with spans.Installation(tracer):
                    outputs = workloads.run_pass(self.inputs)
            wall = time.perf_counter() - t0
            # JSON round trip: compare exactly what the golden file stores
            outputs = json.loads(json.dumps(outputs))
            errors = workloads.check(self.inputs, outputs, self.expected,
                                     self.lambda_ref)
        except Exception as exc:  # a pass that does not complete fails
            wall = time.perf_counter() - t0
            outputs, errors = None, [f"{type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.errors.extend(errors[:3])
        else:
            self.last_outputs = outputs
            if self.expected is None:
                # no golden for this seed: later passes must repeat this one
                self.expected = outputs
        return {"wall": wall, "setup": wall - self.clock.inside}


def timed_loop(seconds: float, step: Callable[[], float]) -> None:
    """Call ``step`` (which returns its duration) until the next call would
    end past ``seconds``; at least once."""
    start = time.perf_counter()
    while True:
        took = step()
        if time.perf_counter() - start + took > seconds:
            return


def ckpt_metrics(outputs: Optional[Dict[str, Any]]) -> Dict[str, float]:
    """Checkpoint-plane counts of the pass (``ScenarioOutcome.ckpt_phases``)."""
    if outputs is None:
        return {}
    parts = outputs["rows"] if "rows" in outputs else [outputs]
    total = {key: sum(p["ckpt"][key] for p in parts)
             for key in workloads.CKPT_OPS + workloads.CKPT_BYTES}
    out = {f"checkpoint.{key}": total[key] for key in workloads.CKPT_OPS}
    out["checkpoint.pack_mb"] = sum(total[k] for k in workloads.CKPT_BYTES) / 1e6
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    import numpy

    inputs = workloads.make_inputs(args.workload, args.seed, args.quick)
    expected = golden_outputs(args.workload, args.quick) if args.seed == 0 else None
    lambda_ref = workloads.reference(inputs)
    runner = Runner(inputs, expected, lambda_ref)

    result: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "quick": args.quick, "numpy": numpy.__version__, "inputs": inputs,
    }
    walls: List[float] = []
    setups: List[float] = []
    traced_walls: List[float] = []
    layer_runs: List[Dict[str, float]] = []
    counts: List[Dict[str, Any]] = []

    def plain() -> float:
        sample = runner.one()
        walls.append(sample["wall"])
        setups.append(sample["setup"])
        return sample["wall"]

    def traced() -> float:
        tracer = spans.Tracer()
        wall = runner.one(tracer)["wall"]
        traced_walls.append(wall)
        layer_runs.append(tracer.metrics(wall))
        counts.append(tracer.counts())
        return wall

    if args.quick:
        plain()
        if args.trace:
            traced()
    else:
        runner.one()  # untimed warm-up: caches fill, lazy set-up finishes
        if args.trace:
            timed_loop(args.seconds, lambda: plain() + traced())
        else:
            timed_loop(args.seconds, plain)

    metrics: Dict[str, float] = {}
    if args.trace:
        if any(c != counts[0] for c in counts[1:]):
            runner.failed += 1
            runner.errors.append("traced passes disagree on calls/virt_s")
        for key in layer_runs[0]:
            # median_low keeps the counts whole: it returns a pass's value
            metrics[key] = statistics.median_low(run[key] for run in layer_runs)
        metrics.update(ckpt_metrics(runner.last_outputs))
        metrics["trace_overhead"] = (statistics.median(traced_walls)
                                     / statistics.median(walls))
        result["traced_wall_s"] = summary(traced_walls)
        result["counts"] = counts[0]
    else:
        metrics["wall_s"] = statistics.median(walls)
        metrics["setup_s"] = statistics.median(setups)
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
    result.update({
        "wall_s": summary(walls),
        "setup_s": summary(setups),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "errors": runner.errors[:10],
        "metrics": metrics,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
