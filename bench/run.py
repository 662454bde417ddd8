"""The repository benchmark: four fault-tolerance workloads, end to end and
per layer.

    python bench/run.py --seed S [--workload NAME] [--seconds N]
                        [--trace 0|1 | --traced] [--quick] [--out PATH]

Each workload runs in its own fresh child process (``bench/worker.py``),
one child at a time, with single-threaded BLAS.  ``--trace 0`` reports the
end-to-end metrics (``wall_s``, ``setup_s``, ``peak_rss_mb``); ``--trace 1``
reports the per-layer metrics of a traced run instead.  Without
``--workload`` every workload runs, and ``--traced`` adds a traced child
after each untraced one.  Every pass's output is checked; the last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``bench/README.md`` for the metrics, workloads and how to compare two
commits.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import PASS_ENV, WORKLOADS  # noqa: E402

#: one run's measuring window, as fixed in BENCHMARK.json
DEFAULT_SECONDS = 20
#: a child that runs longer than this is killed and counts as failed
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a metric, derived from its name (see README)."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "virt_s": "s", "share": "fraction",
            "ns_per_event": "ns", "success_ratio": "fraction", "pack_mb": "MB",
            "attributed_share": "fraction", "trace_overhead": "ratio",
            }.get(suffix, "count")


def run_child(workload: str, seed: int, seconds: float, trace: int,
              quick: bool) -> Optional[Dict[str, Any]]:
    """One workload in a fresh single-threaded process; its JSON result."""
    env = dict(os.environ, **PASS_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + (["--quick"] if quick else [])
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: worker exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines: every metric with its unit."""
    mode = "traced" if result["trace"] else "untraced"
    wall = result["wall_s"]
    print(f"== {result['workload']} seed={result['seed']} ({mode}): "
          f"{result['attempted']} passes checked, {result['failed']} failed "
          f"(error_rate {result['error_rate']:.3f}); wall_s median "
          f"{wall['median']:.4f} q1 {wall['q1']:.4f} q3 {wall['q3']:.4f} "
          f"n={wall['n']}")
    for error in result["errors"]:
        print(f"   ! {error}")
    for name, value in result["metrics"].items():
        print(f"   {name:44s} {value:>16.6g} {unit_of(name)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, required=True,
                        help="drives every input; 0 = the historical scenarios")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measuring window per run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics of a traced run")
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--quick", action="store_true",
                        help="one pass of a shrunken variant of each workload")
    parser.add_argument("--out", default=None,
                        help="also write the full results as JSON here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    # a single workload reports exactly one mode; a full run adds the traced
    # child to the untraced one
    modes = [args.trace] if args.workload else sorted({0, args.trace})
    results: Dict[str, Dict[str, Any]] = {}
    for name in names:
        entry = results[name] = {"loadavg": list(os.getloadavg())}
        for trace in modes:
            result = run_child(name, args.seed, args.seconds, trace, args.quick)
            if result is None:
                return 1
            report(result)
            entry["traced" if trace else "untraced"] = result

    runs = [r for entry in results.values() for k, r in entry.items()
            if k != "loadavg"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, entry in results.items():
        for key, result in entry.items():
            if key == "loadavg":
                continue
            for metric, value in result["metrics"].items():
                label = metric if args.workload else f"{name}.{metric}"
                metrics[label] = {"value": value, "unit": unit_of(metric)}
    line = {
        "correct": all(r["failed"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": runs[0]["numpy"], "machine": platform.machine(),
            "workloads": results,
        }, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
