"""Microbenchmarks of the hot paths, tracked in ``BENCH_core.json``.

The experiments in this reproduction are bounded by two loops: the DES
kernel's event dispatch and the CSR spMVM called once per solver
iteration.  This module measures both (plus the end-to-end Figure-4
harness wall time) and records the numbers in a JSON file at the repo
root, so every optimisation PR has a before/after trajectory:

* ``python -m repro bench --record-seed``  — run once *before* an
  optimisation; stores the measurements under the ``"seed"`` key.
* ``python -m repro bench``                — measures again, stores the
  results under ``"current"`` and the per-metric ``"speedup"`` ratios
  (current/seed for throughputs, seed/current for wall times — bigger is
  always better).

Timing methodology: every bench runs ``repeats`` times and the *best*
run is recorded.  Throughput noise on shared machines is strictly
additive (interference only ever slows a run down), so min-time /
max-throughput is the stable statistic, as pytest-benchmark's own
calibration notes recommend.

Metric naming convention: ``*_eps`` are events (or operations) per
second, ``*_mflops`` are MFLOP/s, ``*_mb_s`` are MB/s,
``sweep_parallel_speedup`` is a dimensionless parallel-over-serial
ratio, ``*_wall_s`` are wall-clock seconds, ``*_ms`` are milliseconds
per kernel call and ``sim_events_per_spmv`` is a simulated-event count
per iteration (wall times and the metrics in ``LOWER_IS_BETTER`` are the
lower-is-better families).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Callable, Dict, List, Optional

from repro.perf.scaling import RANKS_LADDER

BENCH_FILE = "BENCH_core.json"
SCHEMA_VERSION = 1

#: acceptance thresholds tracked by the CI smoke job (see ISSUES 1-2, 4, 6)
TARGET_SPEEDUP = {
    "des_event_throughput_eps": 2.0,
    "spmv_graphene_mflops": 1.5,
    "ckpt_pack_mb_s": 3.0,
    "event_chain_eps": 1.3,
    "channel_pingpong_eps": 1.3,
    "sim_events_per_spmv": 3.0,
    "figure4_small_wall_s": 1.5,
    "fd_scan_us_per_rank": 5.0,
    "group_rebuild_us_per_rank": 5.0,
    "ckpt_mirror_us_per_rank": 4.0,
}

#: absolute floors checked by ``--check`` against the effective current
#: values (weak-scaling acceptance: the checkpoint-plane ladder must
#: clear 1024 ranks inside the wall cap — four times the paper's scale)
TARGET_FLOOR = {
    "ranks_max_at_60s": 1024,
}

#: absolute ceilings checked by ``--check`` — lower-is-better metrics
#: whose gate is a maximum, not a minimum (the replicated restore round
#: must stay cheap enough that in-memory recovery beats the PFS path;
#: the ladder-top scenario must not hold a control-block copy per rank,
#: which took the 4096-rank rung to ~1.4 GB)
TARGET_CEILING = {
    "ckpt_replicated_restore_us_per_rank": 500.0,
    "scenario_peak_mb": 900.0,
}

#: metrics where smaller numbers are better (besides ``*_wall_s``);
#: ``_speedup`` inverts their improvement ratio so > 1.0 means better
LOWER_IS_BETTER = {
    "sim_events_per_spmv",
    "fd_scan_us_per_rank",
    "group_rebuild_us_per_rank",
    "ckpt_mirror_us_per_rank",
    "ckpt_replicated_restore_us_per_rank",
    "world_build_s",
    "world_peak_mb",
    "scenario_peak_mb",
    "ql_eigenvalues_ms",
    "graphene_rows_ms",
}

#: ``--check`` fails when a metric regresses more than this fraction
#: against the committed ``current`` values (CI smoke guard)
REGRESSION_TOLERANCE = 0.30

#: absolute slack added to the ``--world-build`` gate limit: the
#: flyweight build is single-digit milliseconds, so a purely relative
#: tolerance would flap on scheduler noise; the gate exists to catch a
#: reintroduced O(ranks) construction path (hundreds of ms at 2048
#: ranks), which this slack cannot mask
WORLD_BUILD_ABS_SLACK_S = 0.05


def _best(fn: Callable[[], float], repeats: int) -> float:
    """Run ``fn`` (returning a throughput / score) and keep the best."""
    return max(fn() for _ in range(repeats))


def _best_ms(fn: Callable[[], object], repeats: int) -> float:
    """Fastest of ``repeats`` calls of ``fn``, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


# ----------------------------------------------------------------------
# DES kernel benches
# ----------------------------------------------------------------------
def bench_event_chain(n: int = 100_000) -> float:
    """Timer-chain throughput with a near-empty heap (events/s)."""
    from repro.sim import Simulator

    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    assert count[0] == n
    return n / dt


def bench_event_pending(n: int = 100_000, pending: int = 256) -> float:
    """Timer throughput with ``pending`` timers outstanding (events/s).

    This is the representative kernel load: a paper-scale run keeps one
    FD timeout, transport delivery and checkpoint timer in flight per
    worker, so every push/pop traverses a ~256-entry heap.  This is the
    headline ``des_event_throughput`` metric.
    """
    from repro.sim import Simulator

    sim = Simulator()
    count = [0]
    horizon = float(n + pending + 10)

    def noop() -> None:
        pass

    def tick() -> None:
        count[0] += 1
        if count[0] < n:
            sim.schedule(1.0, tick)

    for i in range(pending):
        sim.schedule(horizon + i, noop)
    sim.schedule(1.0, tick)
    t0 = time.perf_counter()
    sim.run(until=horizon - 1.0)
    dt = time.perf_counter() - t0
    assert count[0] == n
    return n / dt


def bench_process_switch(n_procs: int = 20, n_sleeps: int = 5000) -> float:
    """Generator-process context switches per second."""
    from repro.sim import Simulator, Sleep

    sim = Simulator()

    def proc():
        for _ in range(n_sleeps):
            yield Sleep(1.0)

    for _ in range(n_procs):
        sim.spawn(proc())
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return n_procs * n_sleeps / dt


def bench_zero_delay_resume(n: int = 50_000) -> float:
    """Resumes on already-fired events per second (the run-queue path)."""
    from repro.sim import Event, Simulator, WaitEvent

    sim = Simulator()
    fired = Event(name="fired")
    fired.succeed(1)

    def proc():
        for _ in range(n):
            yield WaitEvent(fired)

    sim.spawn(proc())
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return n / dt


def bench_channel_pingpong(n: int = 10_000) -> float:
    """Channel round-trips per second (two processes)."""
    from repro.sim import Channel, Simulator

    sim = Simulator()
    a, b = Channel("a"), Channel("b")

    def left():
        for _ in range(n):
            a.put(1)
            yield from b.get()

    def right():
        for _ in range(n):
            yield from a.get()
            b.put(1)

    sim.spawn(left())
    sim.spawn(right())
    t0 = time.perf_counter()
    sim.run()
    dt = time.perf_counter() - t0
    return n / dt


# ----------------------------------------------------------------------
# communication-layer benches (ISSUE 4: batched one-sided fast path)
# ----------------------------------------------------------------------
def bench_sim_events_per_spmv(n_ranks: int = 8) -> float:
    """Scheduled kernel entries per spMVM iteration at 8 ranks.

    Lower is better: this is the event-count collapse the batched
    ``write_list_notify`` path delivers.  Measured as the difference
    quotient between a 40- and a 10-iteration run, so setup costs cancel;
    the value is deterministic (a count, not a timing).
    """
    import numpy as np
    from repro.gaspi import run_gaspi
    from repro.spmvm import SpMVMEngine, Team, distribute_matrix
    from repro.spmvm.matgen import RandomSparse
    from repro.spmvm.partition import RowPartition

    gen = RandomSparse(n_ranks * 24, nnz_per_row=12, seed=1)
    partition = RowPartition(gen.n_rows, n_ranks)

    def count_for(iterations: int) -> int:
        sims = []

        def main(ctx):
            team = Team.trivial(ctx)
            dmat = yield from distribute_matrix(team, gen)
            engine = yield from SpMVMEngine.create(team, dmat)
            r0, r1 = partition.range_of(ctx.rank)
            x = np.ones(r1 - r0)
            if ctx.rank == 0:
                sims.append(ctx.world.sim)
            for it in range(iterations):
                x = yield from engine.multiply(x, tag=it)
            return x

        run_gaspi(main, n_ranks=n_ranks)
        return sims[0].scheduled_count

    lo, hi = 10, 40
    return (count_for(hi) - count_for(lo)) / (hi - lo)


def bench_fd_ping_round(n_ranks: int = 33, rounds: int = 400) -> float:
    """FD probe throughput: pings per wall-second over full scan rounds.

    One rank sweeps all 32 others ``rounds`` times via ``scan_once`` —
    the detector's hot loop, now one batched sweep per round.  Only the
    scan loop is timed (the 33-rank world setup would otherwise dominate
    and drown the measurement in noise).
    """
    from repro.gaspi import run_gaspi
    from repro.ft.detector import scan_once

    wall = [0.0]

    def main(ctx):
        if ctx.rank != n_ranks - 1:
            return
        targets = [r for r in range(n_ranks) if r != ctx.rank]
        t0 = time.perf_counter()
        for _ in range(rounds):
            failed = yield from scan_once(ctx, targets, 1)
            assert not failed
        wall[0] = time.perf_counter() - t0

    run_gaspi(main, n_ranks=n_ranks)
    return (n_ranks - 1) * rounds / wall[0]


# ----------------------------------------------------------------------
# spMVM benches
# ----------------------------------------------------------------------
def _spmv_mflops(matrix, reps: int = 30) -> float:
    import numpy as np

    x = np.random.default_rng(0).standard_normal(matrix.n_cols)
    out = np.empty(matrix.n_rows)
    for _ in range(3):  # warm caches / lazy plans
        matrix.spmv(x, out=out)
    t0 = time.perf_counter()
    for _ in range(reps):
        matrix.spmv(x, out=out)
    dt = (time.perf_counter() - t0) / reps
    return 2.0 * matrix.nnz / dt / 1e6


def bench_spmv_graphene() -> float:
    """CSR spMVM MFLOP/s, graphene sheet (28.8k rows, ~115k nnz)."""
    from repro.spmvm.matgen import GrapheneSheet

    return _spmv_mflops(GrapheneSheet(120, 120, disorder=1.0, seed=0).full())


def bench_spmv_laplacian() -> float:
    """CSR spMVM MFLOP/s, 2-D Laplacian (90k rows, ~449k nnz)."""
    from repro.spmvm.matgen import Laplacian2D

    return _spmv_mflops(Laplacian2D(300, 300).full())


def bench_lanczos_sequential(n_steps: int = 50) -> float:
    """Sequential Lanczos wall time (s): spMVM + BLAS1 mix."""
    from repro.solvers import lanczos_sequential
    from repro.spmvm.matgen import GrapheneSheet

    matrix = GrapheneSheet(120, 120, disorder=1.0, seed=0).full()
    lanczos_sequential(matrix, 5)  # warm-up
    t0 = time.perf_counter()
    lanczos_sequential(matrix, n_steps)
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# numeric-path kernels: the host-side work of the FT Lanczos run
# ----------------------------------------------------------------------
def bench_ql_eigenvalues_ms(repeats: int = 5) -> float:
    """QL eigenvalues of the 300-step Lanczos tridiagonal of a 100x100
    disordered graphene sheet (ms per solve, best of ``repeats``)."""
    from repro.solvers import lanczos_matrix_eigenvalues, lanczos_sequential
    from repro.spmvm.matgen import GrapheneSheet

    matrix = GrapheneSheet(100, 100, disorder=1.0).full()
    alpha, beta = lanczos_sequential(matrix, 300)
    return _best_ms(lambda: lanczos_matrix_eigenvalues(alpha, beta), repeats)


def bench_graphene_rows_ms(repeats: int = 5) -> float:
    """One worker's 20k-row block of a 400x400 disordered graphene sheet
    (ms per block, best of ``repeats``)."""
    from repro.spmvm.matgen import GrapheneSheet

    gen = GrapheneSheet(400, 400, disorder=1.0)
    return _best_ms(lambda: gen.generate_rows(0, 20_000), repeats)


# ----------------------------------------------------------------------
# checkpoint data-plane benches
# ----------------------------------------------------------------------
def _ckpt_payload(total_mib: int = 64):
    """Representative solver state: a few big vectors + small scalars."""
    import numpy as np

    rng = np.random.default_rng(7)
    quarter = total_mib * (1 << 20) // 4
    return {
        "v_j": rng.standard_normal(2 * quarter // 8),
        "v_prev": rng.standard_normal(quarter // 8),
        "halo": rng.standard_normal(quarter // 4).astype(np.float32),
        "alphas": rng.standard_normal(512),
        "betas": rng.standard_normal(512),
        "step": np.int64(12345),
    }


def bench_ckpt_pack(total_mib: int = 64) -> float:
    """Zero-copy checkpoint pack throughput (MB/s) into a reused buffer."""
    from repro.checkpoint.serialization import pack_checkpoint_into, packed_size

    payload = _ckpt_payload(total_mib)
    size = packed_size(payload)
    buf = bytearray(size)
    pack_checkpoint_into(payload, buf)  # warm-up
    t0 = time.perf_counter()
    pack_checkpoint_into(payload, buf)
    dt = time.perf_counter() - t0
    return size / dt / 1e6


def bench_ckpt_unpack(total_mib: int = 64) -> float:
    """Zero-copy checkpoint unpack throughput (MB/s), ``copy=False``."""
    from repro.checkpoint.serialization import pack_checkpoint, unpack_checkpoint

    payload = _ckpt_payload(total_mib)
    blob = pack_checkpoint(payload)
    unpack_checkpoint(blob, copy=False)  # warm-up (validates CRC too)
    t0 = time.perf_counter()
    out = unpack_checkpoint(blob, copy=False)
    dt = time.perf_counter() - t0
    assert len(out) == len(payload)
    return len(blob) / dt / 1e6


# ----------------------------------------------------------------------
# end-to-end
# ----------------------------------------------------------------------
def bench_figure4(scale: str, jobs: int = 1) -> float:
    """Wall time (s) of the full Figure-4 scenario suite at ``scale``."""
    from repro.experiments.figure4 import default_spec, run_figure4

    spec = default_spec(scale)
    t0 = time.perf_counter()
    outcomes = run_figure4(spec, jobs=jobs)
    dt = time.perf_counter() - t0
    assert len(outcomes) == 7
    return dt


def bench_sweep_scaling() -> Optional[float]:
    """Parallel-over-serial speedup of the tiny Figure-4 sweep.

    Runs the same seven-scenario suite serially and with one worker per
    core (capped at 4).  On a single-core box there is nothing to
    measure — parallel == serial by construction — so the metric is
    reported as ``None`` (null in the JSON) rather than a meaningless
    1.0 that would pollute speedup ratios across machines.
    """
    jobs = min(4, os.cpu_count() or 1)
    if jobs <= 1:
        return None
    serial = min(bench_figure4("tiny", jobs=1) for _ in range(2))
    parallel = min(bench_figure4("tiny", jobs=jobs) for _ in range(2))
    return serial / parallel


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def run_benches(quick: bool = False,
                repeats: int = 5) -> Dict[str, Optional[float]]:
    """Run the suite; returns ``{metric: value}`` (see naming convention).

    A value of ``None`` means the metric could not be measured on this
    machine (currently only ``sweep_parallel_speedup`` on 1-core boxes);
    it is recorded as null and excluded from speedup/regression math.
    """
    if quick:
        repeats = max(2, repeats // 2)
    metrics: Dict[str, Optional[float]] = {}
    metrics["des_event_throughput_eps"] = _best(bench_event_pending, repeats)
    metrics["event_chain_eps"] = _best(bench_event_chain, repeats)
    metrics["process_switch_eps"] = _best(bench_process_switch, repeats)
    metrics["zero_delay_resume_eps"] = _best(bench_zero_delay_resume, repeats)
    metrics["channel_pingpong_eps"] = _best(bench_channel_pingpong, repeats)
    metrics["sim_events_per_spmv"] = bench_sim_events_per_spmv()
    metrics["fd_ping_round_eps"] = _best(bench_fd_ping_round, max(2, repeats // 2))
    metrics["spmv_graphene_mflops"] = _best(bench_spmv_graphene, repeats)
    metrics["spmv_laplacian_mflops"] = _best(bench_spmv_laplacian, repeats)
    metrics["lanczos_seq_wall_s"] = min(
        bench_lanczos_sequential() for _ in range(repeats)
    )
    # cheap kernels: keep the full repeat count in --quick, so the CI
    # regression gate compares like with like
    metrics["ql_eigenvalues_ms"] = bench_ql_eigenvalues_ms(max(5, repeats))
    metrics["graphene_rows_ms"] = bench_graphene_rows_ms(max(5, repeats))
    metrics["ckpt_pack_mb_s"] = _best(bench_ckpt_pack, repeats)
    metrics["ckpt_unpack_mb_s"] = _best(bench_ckpt_unpack, repeats)
    metrics["figure4_tiny_wall_s"] = min(
        bench_figure4("tiny") for _ in range(max(2, repeats - 2))
    )
    metrics["sweep_parallel_speedup"] = bench_sweep_scaling()
    metrics["figure4_small_wall_s"] = min(bench_figure4("small")
                                          for _ in range(2))
    return {k: round(v, 3) if v is not None else None
            for k, v in metrics.items()}


def _speedup(seed: Dict[str, float], cur: Dict[str, float]) -> Dict[str, float]:
    """Per-metric improvement ratio; > 1.0 always means faster."""
    out = {}
    for key, new in cur.items():
        old = seed.get(key)
        if not old or not new:
            continue
        lower_better = key.endswith("_wall_s") or key in LOWER_IS_BETTER
        ratio = old / new if lower_better else new / old
        out[key] = round(ratio, 3)
    return out


def _regressions(previous: Dict[str, float],
                 cur: Dict[str, float],
                 tolerance: float = REGRESSION_TOLERANCE) -> Dict[str, float]:
    """Metrics whose improvement ratio vs ``previous`` fell below
    ``1 - tolerance`` (i.e. regressed more than ``tolerance``)."""
    ratios = _speedup(previous, cur)
    return {k: v for k, v in ratios.items() if v < 1.0 - tolerance}


def _environment() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "recorded": time.strftime("%Y-%m-%d"),
    }


def load_report(path: str) -> Dict:
    if os.path.exists(path):
        with open(path) as fh:
            try:
                report = json.load(fh)
            except json.JSONDecodeError:
                report = {}
        if report.get("schema") == SCHEMA_VERSION:
            return report
    return {"schema": SCHEMA_VERSION}


def _strip_env(section: Optional[Dict]) -> Dict[str, float]:
    out = dict(section or {})
    out.pop("environment", None)
    return out


def _delta_table(report: Dict, effective: Dict[str, float]) -> str:
    """S2: the compact per-metric status table printed on ``--check``.

    One row per effective metric: current value, improvement vs seed,
    and the tracked target (speedup or floor) when one exists.
    """
    speedup = report.get("speedup", {})
    lines = [f"{'metric':<28} {'current':>14} {'vs seed':>9} {'target':>9}"]
    for key in sorted(effective):
        ratio = speedup.get(key)
        ratio_s = f"x{ratio:.2f}" if ratio is not None else "-"
        if key in TARGET_SPEEDUP:
            target_s = f"x{TARGET_SPEEDUP[key]:.1f}"
        elif key in TARGET_FLOOR:
            target_s = f">={TARGET_FLOOR[key]}"
        elif key in TARGET_CEILING:
            target_s = f"<={TARGET_CEILING[key]:g}"
        else:
            target_s = "-"
        value = effective[key]
        value_s = f"{value:>14,.3f}" if value is not None else f"{'null':>14}"
        lines.append(f"{key:<28} {value_s} {ratio_s:>9} {target_s:>9}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Hot-path microbenchmarks, tracked in BENCH_core.json.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats of the micro benches")
    parser.add_argument("--record-seed", action="store_true",
                        help="store this run as the 'seed' baseline "
                             "(run before an optimisation)")
    parser.add_argument("--out", default=BENCH_FILE,
                        help=f"output JSON path (default: {BENCH_FILE})")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if a tracked speedup target is "
                             "missed, a floor is not met, or any metric "
                             f"regresses >{REGRESSION_TOLERANCE:.0%}% vs the "
                             "committed 'current' values")
    parser.add_argument("--scaling", action="store_true",
                        help="run the weak-scaling suite instead of the "
                             "micro suite, recording the rank ladder as "
                             "'current' (the pre-vectorization 'seed' ladder "
                             "stays frozen in the report)")
    parser.add_argument("--ranks", type=int, nargs="+", default=None,
                        metavar="N",
                        help="override the weak-scaling rank ladder "
                             "(default: "
                             f"{' '.join(map(str, RANKS_LADDER))})")
    parser.add_argument("--world-build", type=int, default=None, metavar="N",
                        help="construction-only probe: build the N-rank "
                             "world once, print world_build_s and "
                             "world_peak_mb; with --check, fail if "
                             "world_build_s regresses more than "
                             f"{REGRESSION_TOLERANCE:.0%}% vs the committed "
                             "scaling table (CI wall-capped step)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI weak-scaling smoke: one traced scenario "
                             "under a wall cap with clean trace "
                             "validation; writes nothing")
    parser.add_argument("--smoke-ranks", type=int, default=None, metavar="N",
                        help="worker count for --smoke (default: 256; CI "
                             "also runs the 1024-rank rung)")
    parser.add_argument("--smoke-backend", default="neighbor",
                        metavar="BACKEND",
                        help="checkpoint backend for --smoke (neighbor, "
                             "pfs or replicated; CI runs the replicated "
                             "rung at 256 ranks)")
    args = parser.parse_args(argv)

    if args.smoke:
        from repro.perf.scaling import run_smoke

        kwargs = {"backend": args.smoke_backend}
        if args.smoke_ranks is not None:
            kwargs["workers"] = args.smoke_ranks
        return run_smoke(**kwargs)

    report = load_report(args.out)
    committed = _strip_env(report.get("current"))

    if args.world_build is not None:
        from repro.perf.scaling import bench_world_build

        n = args.world_build
        probe = bench_world_build(n)
        build_s = probe["world_build_s"]
        peak_mb = probe["world_peak_mb"]
        print(f"# world construction, {n} ranks")
        print(f"world_build_s   {build_s:>10.4f}")
        print(f"world_peak_mb   {peak_mb:>10.3f}")
        if args.check:
            table = (report.get("scaling", {}).get("current", {})
                     .get("world_build_s", {}))
            baseline = table.get(str(n)) if isinstance(table, dict) else None
            if baseline is None:
                print(f"FAIL: no committed world_build_s baseline for "
                      f"{n} ranks in {args.out} — run "
                      "'python -m repro bench --scaling' to record one")
                return 1
            limit = (baseline * (1.0 + REGRESSION_TOLERANCE)
                     + WORLD_BUILD_ABS_SLACK_S)
            if build_s > limit:
                print(f"FAIL: world_build_s {build_s:.4f}s regresses "
                      f">{REGRESSION_TOLERANCE:.0%} vs committed "
                      f"{baseline:.4f}s (limit {limit:.4f}s)")
                return 1
            print(f"OK — within {REGRESSION_TOLERANCE:.0%} of committed "
                  f"{baseline:.4f}s")
        return 0

    if args.scaling:
        from repro.perf.scaling import run_scaling, summary_metrics

        ladder = args.ranks or RANKS_LADDER
        print(f"# weak scaling, ranks {list(ladder)}")
        current_scaling = run_scaling(ladder)
        metrics = summary_metrics(current_scaling)
        report.setdefault("scaling", {})["current"] = current_scaling
        report["current"] = {**committed, **metrics,
                             "environment": _environment()}
    else:
        metrics = run_benches(quick=args.quick)
        if args.record_seed:
            report["seed"] = {**_strip_env(report.get("seed")), **metrics,
                              "environment": _environment()}
        else:
            # merge, don't replace: the scaling metrics live in the same
            # section and must survive a micro-suite refresh
            report["current"] = {**committed, **metrics,
                                 "environment": _environment()}

    seed = _strip_env(report.get("seed"))
    current = _strip_env(report.get("current"))
    if seed and current and not args.record_seed:
        report["speedup"] = _speedup(seed, current)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    width = max(len(k) for k in metrics)
    section = "seed" if args.record_seed else "current"
    print(f"# {section} -> {args.out}")
    for key, value in metrics.items():
        if value is None:
            print(f"{key:<{width}}  {'null (not measurable here)':>14}")
            continue
        line = f"{key:<{width}}  {value:>14,.3f}"
        ratio = report.get("speedup", {}).get(key)
        if ratio is not None and not args.record_seed:
            line += f"   x{ratio:.2f} vs seed"
        print(line)

    if args.check:
        effective = {**committed, **metrics}
        # the per-metric delta table (current / vs-seed / target) prints
        # on failure too: a missed ckpt_mirror_us_per_rank target should
        # show its scaling delta right in the CI log
        print()
        print(_delta_table(report, effective))
        failed = False
        if "speedup" in report:
            missed = {k: v for k, v in TARGET_SPEEDUP.items()
                      if k in report["speedup"]
                      and report["speedup"][k] < v}
            if missed:
                print(f"FAIL: speedup targets missed: {missed}")
                failed = True
        below = {k: effective[k] for k, floor in TARGET_FLOOR.items()
                 if effective.get(k) is not None and effective[k] < floor}
        if below:
            print(f"FAIL: floors not met (targets {TARGET_FLOOR}): {below}")
            failed = True
        above = {k: effective[k] for k, ceiling in TARGET_CEILING.items()
                 if effective.get(k) is not None and effective[k] > ceiling}
        if above:
            print(f"FAIL: ceilings exceeded (targets {TARGET_CEILING}): "
                  f"{above}")
            failed = True
        regressed = _regressions(committed, metrics)
        if regressed:
            print("FAIL: regression vs committed current "
                  f"(> {REGRESSION_TOLERANCE:.0%}): {regressed}")
            failed = True
        if failed:
            return 1
        print(f"\nOK — targets met, no regression > "
              f"{REGRESSION_TOLERANCE:.0%}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
