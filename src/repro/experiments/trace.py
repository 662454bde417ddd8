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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.report import format_phase_summary, format_table
from repro.experiments.sweep import SweepTask, SweepTrace, run_traced_sweep
from repro.obs.tracer import (CKPT_MIRROR, CKPT_SCATTER, CKPT_WRITE,
                              DEFAULT_CAPACITY)

#: scenario-name prefixes exempt from strict chain validation (not
#: instrumented by the FT stack — see module docstring)
VALIDATION_EXEMPT_PREFIXES = ("ulfm",)


def _figure4_tasks(args) -> Tuple[List[SweepTask], str]:
    from repro.experiments.figure4 import default_spec, scenario_tasks

    scale = "tiny" if args.quick else args.scale
    spec = default_spec(scale)
    return scenario_tasks(spec), f"figure4 ({spec.name})"


def _compare_tasks(args) -> Tuple[List[SweepTask], str]:
    from repro.experiments.recovery_compare import compare_tasks

    sizes = [8] if args.quick else args.sizes
    # every checkpoint backend rides the same FT stack, so each one's
    # recovery chains are validated like the neighbor scheme's
    return compare_tasks(sizes), f"compare (sizes {sizes})"


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
    return errors


#: checkpoint span event types and their duration rows
_CKPT_SPANS = {CKPT_WRITE: "ckpt.write_s", CKPT_MIRROR: "ckpt.mirror_s",
               CKPT_SCATTER: "ckpt.scatter_s"}


def metric_rows(traces: Sequence[SweepTrace]) -> List[List]:
    """The aggregated-metrics rows, ``[name, count, min, mean, max]``.

    Event counts per type (``events.<etype>``) are exact totals of what
    each task emitted, ring evictions included.  Checkpoint payload
    bytes (``ckpt.bytes_written``, a total) and span durations need each
    event, so they cover the retained events only; the spans and the
    per-failure phases (``phase.<name>``) are summarised by
    :func:`repro.obs.timeline.value_stats`.  Failure records are rebuilt
    per trace, because recovery epochs are unique only within one run.
    """
    from repro.obs.timeline import build_timelines, phase_stats, value_stats

    counts: Dict[str, int] = {}
    spans: Dict[str, List[float]] = {}
    bytes_written = 0
    records = []
    for trace in traces:
        for etype, n in trace.emitted.items():
            counts[etype] = counts.get(etype, 0) + n
        for ev in trace.events:
            if ev.etype in _CKPT_SPANS:
                spans.setdefault(_CKPT_SPANS[ev.etype], []).append(ev.dur)
            if ev.etype == CKPT_WRITE:
                bytes_written += ev.fields.get("bytes") or 0
        records.extend(build_timelines(trace.events))
    rows = [[f"events.{etype}", n, None, None, None]
            for etype, n in counts.items()]
    if bytes_written:
        rows.append(["ckpt.bytes_written", bytes_written, None, None, None])
    stats = {name: value_stats(values) for name, values in spans.items()}
    stats.update((f"phase.{name}", s)
                 for name, s in phase_stats(records).items())
    rows.extend([name, s["count"], s["min"], s["mean"], s["max"]]
                for name, s in stats.items())
    return sorted(rows, key=lambda row: row[0])


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
    parser.add_argument("--capacity", type=int, default=None, metavar="N",
                        help="per-task ring of the newest N events other "
                             "than lifecycle milestones, which are always "
                             f"kept (default {DEFAULT_CAPACITY})")
    args = parser.parse_args(argv)

    tasks, description = _EXPERIMENTS[args.experiment](args)
    print(f"tracing {description}: {len(tasks)} scenario(s), "
          f"jobs={args.jobs}")
    _, traces = run_traced_sweep(tasks, jobs=args.jobs,
                                 capacity=args.capacity)

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
    print(format_table(["metric", "count", "min", "mean", "max"],
                       metric_rows(traces), title="Aggregated metrics"))

    dropped = [trace for trace in traces if trace.dropped]
    if dropped:
        print("\nring evictions (lifecycle milestones are never evicted):")
        for trace in dropped:
            print(f"  - {trace.label}: dropped its {trace.dropped} oldest "
                  f"other events (pings, solver iterations, checkpoint "
                  f"spans) — raise --capacity for full streams")

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
