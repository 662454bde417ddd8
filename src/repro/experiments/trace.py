"""``python -m repro trace`` — run an experiment with structured tracing.

Runs a scenario sweep with the ``repro.obs`` tracer active in every task
and emits three artefacts:

* ``<out>/trace.jsonl`` — one JSON event per line, labelled by task;
* ``<out>/chrome_trace.json`` — load in ``chrome://tracing`` / Perfetto
  (one process row per scenario, one thread row per rank);
* a **failure-timeline report** on stdout reconstructing every failure's
  detection → group-rebuild → spare-promotion → restore → rollback chain
  with per-phase latencies (the paper's Figure 4 decomposition derived
  from the event stream), plus phase and checkpoint-overhead summaries.

The run *validates* the traces: every injected failure must resolve into
a complete lifecycle chain with non-negative per-phase durations, else
the exit status is non-zero.  ULFM scenarios of the ``compare``
experiment are exempt — the mini-ULFM layer measures the competing
recovery philosophy and is not instrumented by the FT stack.

Usage::

    python -m repro trace figure4 [--scale paper|small|tiny] [--jobs N]
    python -m repro trace compare [--sizes 8 16 ...] [--jobs N]
    python -m repro trace <experiment> --quick      # smallest preset
    python -m repro trace <experiment> --out DIR    # artefact directory

See ``OBSERVABILITY.md`` for the event taxonomy and trace formats.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence, Tuple

from repro.experiments.report import format_phase_summary, format_table
from repro.experiments.sweep import SweepTask, SweepTrace, run_traced_sweep

#: scenario-name prefixes exempt from strict chain validation (not
#: instrumented by the FT stack — see module docstring)
VALIDATION_EXEMPT_PREFIXES = ("ulfm",)


def _figure4_tasks(args) -> Tuple[List[SweepTask], str]:
    from repro.experiments.figure4 import default_spec, scenario_tasks

    scale = "tiny" if args.quick else args.scale
    spec = default_spec(scale)
    return scenario_tasks(spec), f"figure4 ({spec.name})"


def _compare_tasks(args) -> Tuple[List[SweepTask], str]:
    from repro.experiments.recovery_compare import measure_backend, measure_ulfm

    sizes = [8] if args.quick else args.sizes
    tasks = []
    for n in sizes:
        tasks.append(SweepTask("compare", f"gaspi-{n}", measure_backend,
                               (n, "neighbor")))
        tasks.append(SweepTask("compare", f"ulfm-{n}", measure_ulfm, (n,)))
        # the alternative checkpoint backends ride the same FT stack, so
        # their recovery chains are validated like the neighbor scheme's
        tasks.append(SweepTask("compare", f"gaspi-pfs-{n}",
                               measure_backend, (n, "pfs")))
        tasks.append(SweepTask("compare", f"gaspi-replicated-{n}",
                               measure_backend, (n, "replicated")))
    return tasks, f"compare (sizes {sizes})"


_EXPERIMENTS = {
    "figure4": _figure4_tasks,
    "compare": _compare_tasks,
}


def validate_trace(trace: SweepTrace) -> List[str]:
    """Chain-completeness errors for one task's trace (empty = OK)."""
    from repro.obs.timeline import build_timelines, injected_ranks

    if trace.scenario.startswith(VALIDATION_EXEMPT_PREFIXES):
        return []
    errors: List[str] = []
    records = build_timelines(trace.events, scenario=trace.label)
    covered = set()
    for rec in records:
        if not rec.complete:
            errors.append(f"{trace.label}: epoch {rec.epoch} chain "
                          f"incomplete ({rec.phases()})")
            continue
        if not rec.nonnegative:
            errors.append(f"{trace.label}: epoch {rec.epoch} has a negative "
                          f"phase duration ({rec.phases()})")
            continue
        covered.update(rec.failed)
    for rank in injected_ranks(trace.events):
        if rank not in covered:
            errors.append(f"{trace.label}: injected failure of rank {rank} "
                          f"has no complete lifecycle chain")
    lifecycle_dropped = trace.dropped - trace.dropped_bulk
    if lifecycle_dropped:
        errors.append(f"{trace.label}: ring buffer dropped "
                      f"{lifecycle_dropped} lifecycle events — raise "
                      f"--capacity")
    return errors


def bulk_drop_notes(traces: List[SweepTrace]) -> List[str]:
    """Human-readable notes on (tolerated) bulk-ring evictions.

    Bulk drops — pings and solver iterations beyond ``--bulk-capacity`` —
    are bounded by design and never fail validation, but they are also
    never silent: every affected task gets one note.
    """
    return [
        f"{tr.label}: bulk ring dropped {tr.dropped_bulk} high-volume "
        f"events (pings/solver iterations) — retained newest; raise "
        f"--bulk-capacity for full streams"
        for tr in traces if tr.dropped_bulk
    ]


def _metrics_table(traces: List[SweepTrace]) -> str:
    from repro.obs.metrics import registry_from_traces

    reg = registry_from_traces(traces)
    rows = []
    for name, snap in reg.snapshot().items():
        if snap["type"] == "counter":
            rows.append([name, snap["value"], None, None, None])
        elif snap["type"] == "histogram" and snap["count"]:
            rows.append([name, snap["count"], snap["min"], snap["mean"],
                         snap["max"]])
    return format_table(["metric", "count", "min", "mean", "max"], rows,
                        title="Aggregated metrics")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=sorted(_EXPERIMENTS),
                        help="which experiment to run traced")
    parser.add_argument("--quick", action="store_true",
                        help="smallest preset (CI smoke)")
    parser.add_argument("--scale", choices=["paper", "small", "tiny"],
                        default="tiny", help="figure4 workload scale")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[8, 16, 32], help="compare cluster sizes")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="sweep worker processes (0 = all cores)")
    parser.add_argument("--out", default="traces", metavar="DIR",
                        help="artefact directory (default: ./traces)")
    parser.add_argument("--capacity", type=int, default=None,
                        help="per-task tracer ring capacity")
    parser.add_argument("--bulk-capacity", type=int, default=None,
                        metavar="N",
                        help="segregate high-volume events (pings, solver "
                             "iterations) into their own ring of N slots; "
                             "lifecycle events then can never be evicted "
                             "by them (bulk evictions are reported, not "
                             "fatal)")
    args = parser.parse_args(argv)

    tasks, description = _EXPERIMENTS[args.experiment](args)
    print(f"tracing {description}: {len(tasks)} scenario(s), "
          f"jobs={args.jobs}")
    _, traces = run_traced_sweep(tasks, jobs=args.jobs,
                                 capacity=args.capacity,
                                 bulk_capacity=args.bulk_capacity)

    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.timeline import build_timelines, timeline_report

    os.makedirs(args.out, exist_ok=True)
    labelled = [(tr.label, tr.events) for tr in traces]
    jsonl_path = os.path.join(args.out, "trace.jsonl")
    chrome_path = os.path.join(args.out, "chrome_trace.json")
    n_lines = write_jsonl(labelled, jsonl_path)
    write_chrome_trace(labelled, chrome_path)
    print(f"wrote {n_lines} events to {jsonl_path}")
    print(f"wrote chrome://tracing export to {chrome_path}\n")

    for trace in traces:
        records = build_timelines(trace.events, scenario=trace.label)
        if records:
            print(timeline_report(
                records, title=f"Failure timeline — {trace.label}"))
            print()
    print(format_phase_summary(traces))
    print()
    print(_metrics_table(traces))

    notes = bulk_drop_notes(traces)
    if notes:
        print("\nbulk-ring evictions (tolerated, bounded by design):")
        for note in notes:
            print(f"  - {note}")

    errors: List[str] = []
    for trace in traces:
        errors.extend(validate_trace(trace))
    if errors:
        print("\nVALIDATION FAILED:")
        for err in errors:
            print(f"  - {err}")
        return 1
    print("\nvalidation OK: every injected failure has a complete "
          "non-negative lifecycle chain")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
