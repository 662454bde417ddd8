"""GASPI non-shrinking vs ULFM shrinking recovery (paper's future work).

The paper's Sect. VIII plans a comparison with OpenMPI's ULFM.  This
experiment measures, per cluster size, the *communication reconstruction*
cost of the two philosophies after one process failure:

* **GASPI / paper scheme** (non-shrinking): dedicated-FD detection +
  failure acknowledgment + group rebuild with blocking commit; a rescue
  adopts the failed identity, so the data distribution is unchanged and
  data recovery is a checkpoint read.
* **ULFM style** (shrinking): survivors detect through failed
  communication, ``revoke``, ``agree``, ``shrink``; the communicator gets
  smaller, so on top of the reconstruction every rank must *redistribute*
  its domain (the paper's motivation for non-shrinking recovery).

A second table compares the non-shrinking scheme's *data-recovery path*
across the three checkpoint backends of ``CHECKPOINTS.md`` — the paper's
neighbor mirroring, the classical synchronous PFS, and the ReStore-style
in-memory replicated backend — with per-backend restore bytes/latency
columns.  Backends that never enter the restore phase (a failure-free
run) report a dash, not zero.

Run: ``python -m repro.experiments.recovery_compare [--sizes 8 16 ...]
[--jobs N] [--backend neighbor|pfs|replicated|all] [--replication r]
[--failure-free]`` — every measurement is an independent simulation,
run once even when both tables read it; ``--jobs`` fans them across a
process pool.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim import Sleep
from repro.cluster import FaultPlan, MachineSpec, TransportParams
from repro.gaspi import AllreduceOp, run_gaspi
from repro.ulfm import UlfmComm, UlfmResult
from repro.checkpoint.manager import BACKENDS, CheckpointConfig
from repro.experiments.common import run_ft_scenario
from repro.experiments.report import format_table
from repro.experiments.sweep import SweepTask, run_sweep
from repro.workloads.spec import scaled_spec


@dataclass
class CompareRow:
    n_ranks: int
    gaspi_detection: float
    gaspi_reconstruction: float
    ulfm_detection: float
    ulfm_reconstruction: float
    #: data-recovery phase of the non-shrinking scheme, read straight off
    #: the checkpoint manager's per-phase totals (the round data plane's
    #: bookkeeping) rather than summed per-rank stats dicts: checkpoint
    #: bytes read back and the virtual seconds spent restoring them.  The
    #: ULFM columns stay zero by construction — after a shrink there is no
    #: checkpoint read, the domain is redistributed (full redo).
    gaspi_restore_bytes: float = 0.0
    gaspi_restore_s: float = 0.0

    @property
    def gaspi_total(self) -> float:
        return self.gaspi_detection + self.gaspi_reconstruction

    @property
    def ulfm_total(self) -> float:
        return self.ulfm_detection + self.ulfm_reconstruction


def measure_ulfm(n_ranks: int, error_timeout: float = 3.5) -> tuple:
    """Detection + revoke/agree/shrink of the ULFM pattern."""
    kill_t = 10.0

    def main(ctx):
        comm = UlfmComm(ctx, list(range(n_ranks)))
        step = 0
        while True:
            ret, _ = yield from comm.allreduce(  # ftlint: disable=FT001 -- ULFM model: failures surface as UlfmResult error codes, not the GASPI health flag
                np.array([float(step)]), AllreduceOp.SUM
            )
            if ret is not UlfmResult.SUCCESS:
                break
            yield Sleep(0.414)
            step += 1
        t_detect = ctx.now
        yield from comm.revoke()
        yield from comm.agree(1)
        ret, new_comm = yield from comm.shrink()
        t_ready = ctx.now
        # sanity: the shrunken communicator is usable
        ret, _ = yield from new_comm.allreduce(np.array([1.0]), AllreduceOp.SUM)  # ftlint: disable=FT001 -- ULFM model: post-shrink sanity check, failures surface as error codes
        assert ret is UlfmResult.SUCCESS
        return (t_detect, t_ready)

    spec = MachineSpec(
        n_nodes=n_ranks,
        transport_params=TransportParams(error_timeout=error_timeout),
    )
    plan = FaultPlan().kill_process(kill_t, 1)
    run = run_gaspi(main, machine_spec=spec, fault_plan=plan, until=3600.0)
    detects, readies = zip(*(
        run.result(r) for r in range(n_ranks) if run.result(r) is not None
    ))
    t_detect = max(detects)
    t_ready = max(readies)
    return t_detect - kill_t, t_ready - t_detect


@dataclass
class BackendRow:
    """One (cluster size, backend) cell of the three-way backend table."""

    n_ranks: int
    backend: str
    detection: float
    reconstruction: float
    #: restores actually performed — 0 in a failure-free run, in which
    #: case the restore columns render as a dash, not zero
    restore_ops: int
    restore_bytes: float
    restore_s: float

    @property
    def total(self) -> float:
        return self.detection + self.reconstruction


def measure_backend(n_ranks: int, backend: str = "neighbor",
                    replication: int = 2,
                    failure_free: bool = False) -> Tuple:
    """One backend's detection/reconstruction/restore measurements.

    One process kill just after a checkpoint round, with the checkpoint
    backend picked by the config knob; the ``"neighbor"`` run is also the
    GASPI column of the ULFM comparison.  ``failure_free`` runs the
    identical workload without the kill, so the restore phase never
    happens (the dash case).
    """
    spec = scaled_spec(workers=n_ranks, iterations=120,
                       name=f"cmp-{backend}-{n_ranks}")
    kill_times = None
    if not failure_free:
        kill_t = spec.setup_time + spec.time_of_iteration(
            spec.checkpoint_interval + spec.checkpoint_interval // 4)
        kill_times = [(kill_t, 1)]
    outcome = run_ft_scenario(
        f"gaspi-{backend}-{n_ranks}", spec, kill_times=kill_times,
        n_spares=2,
        checkpoint=CheckpointConfig(backend=backend,
                                    replication=replication),
    )
    phases = outcome.ckpt_phases
    return (outcome.detection_time, outcome.reinit_time,
            int(phases.get("restore_ops", 0)),
            phases.get("restore_bytes", 0.0), phases.get("restore_s", 0.0))


def _label(n_ranks: int, backend: str, failure_free: bool) -> str:
    return (f"gaspi-{backend}-{n_ranks}"
            + ("-failure-free" if failure_free else ""))


def compare_tasks(sizes: Sequence[int],
                  backends: Sequence[str] = BACKENDS,
                  replication: int = 2,
                  failure_free: bool = False) -> List[SweepTask]:
    """Every simulation behind the two tables, each scenario once.

    Per size: one :func:`measure_backend` run per backend of the backend
    table, the ULFM run, and the killed neighbor run whose result fills
    the ULFM table's GASPI columns.  The backend table makes that
    neighbor run itself unless ``failure_free`` or ``backends`` leave it
    out; only then is it added.
    """
    runs = [(backend, failure_free) for backend in backends]
    if ("neighbor", False) not in runs:
        runs.insert(0, ("neighbor", False))
    tasks = []
    for n in sizes:
        tasks.extend(
            SweepTask("compare", _label(n, backend, ff), measure_backend,
                      (n, backend, replication, ff))
            for backend, ff in runs)
        tasks.append(SweepTask("compare", f"ulfm-{n}", measure_ulfm,
                               (n,)))
    return tasks


def _sweep(tasks: List[SweepTask], jobs: Optional[int]) -> Dict[str, Any]:
    """Run ``tasks``; their results keyed by scenario label."""
    return dict(zip((task.scenario for task in tasks),
                    run_sweep(tasks, jobs=jobs)))


def _backend_rows(sizes: Sequence[int], backends: Sequence[str],
                  failure_free: bool, results: Dict[str, Any],
                  ) -> List[BackendRow]:
    rows = []
    for n in sizes:
        for backend in backends:
            det, rec, r_ops, r_bytes, r_s = results[
                _label(n, backend, failure_free)]
            rows.append(BackendRow(
                n_ranks=n, backend=backend, detection=det,
                reconstruction=rec, restore_ops=r_ops,
                restore_bytes=r_bytes, restore_s=r_s,
            ))
    return rows


def _compare_rows(sizes: Sequence[int],
                  results: Dict[str, Any]) -> List[CompareRow]:
    rows = []
    for n in sizes:
        g_det, g_rec, _, g_rbytes, g_rs = results[_label(n, "neighbor", False)]
        u_det, u_rec = results[f"ulfm-{n}"]
        rows.append(CompareRow(
            n_ranks=n,
            gaspi_detection=g_det, gaspi_reconstruction=g_rec,
            ulfm_detection=u_det, ulfm_reconstruction=u_rec,
            gaspi_restore_bytes=g_rbytes, gaspi_restore_s=g_rs,
        ))
    return rows


def run_comparison(sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
                   jobs: Optional[int] = 1) -> List[CompareRow]:
    results = _sweep(compare_tasks(sizes, backends=()), jobs)
    return _compare_rows(sizes, results)


HEADERS = ["ranks", "GASPI detect[s]", "GASPI rebuild[s]",
           "GASPI restore[MiB]", "GASPI restore[s]", "GASPI total[s]",
           "ULFM detect[s]", "ULFM shrink[s]", "ULFM total[s]"]


def as_rows(rows: List[CompareRow]) -> List[List]:
    # a scenario that never entered the restore phase (no bytes and no
    # time) renders a dash, not a misleading 0
    return [[r.n_ranks, r.gaspi_detection, r.gaspi_reconstruction,
             (r.gaspi_restore_bytes / 2**20
              if r.gaspi_restore_bytes or r.gaspi_restore_s else None),
             (r.gaspi_restore_s
              if r.gaspi_restore_bytes or r.gaspi_restore_s else None),
             r.gaspi_total, r.ulfm_detection, r.ulfm_reconstruction,
             r.ulfm_total] for r in rows]


BACKEND_HEADERS = ["ranks", "backend", "detect[s]", "rebuild[s]",
                   "restore[MiB]", "restore[s]", "total[s]"]


def backend_as_rows(rows: List[BackendRow]) -> List[List]:
    # the dash fix: a backend that never restored (failure-free run)
    # reports "—" in the restore columns instead of 0
    return [[r.n_ranks, r.backend, r.detection, r.reconstruction,
             r.restore_bytes / 2**20 if r.restore_ops else None,
             r.restore_s if r.restore_ops else None,
             r.total] for r in rows]


def main(argv: Optional[Sequence[str]] = None) -> str:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[8, 16, 32, 64, 128, 256])
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="scenario-sweep worker processes "
                             "(0 = all cores, default 1 = serial)")
    parser.add_argument("--backend", choices=list(BACKENDS) + ["all"],
                        default="all",
                        help="checkpoint backend(s) for the three-way "
                             "recovery-path table (default: all)")
    parser.add_argument("--replication", type=int, default=2, metavar="R",
                        help="replica count r of the replicated backend "
                             "(tolerates r-1 concurrent losses; default 2)")
    parser.add_argument("--failure-free", action="store_true",
                        help="run the backend table without the process "
                             "kill (restore columns report a dash)")
    args = parser.parse_args(argv)
    backends = BACKENDS if args.backend == "all" else (args.backend,)
    # one sweep fills both tables
    results = _sweep(compare_tasks(args.sizes, backends, args.replication,
                                   args.failure_free), args.jobs)
    table = format_table(
        HEADERS, as_rows(_compare_rows(args.sizes, results)),
        title="Recovery comparison: non-shrinking (GASPI+FD) vs shrinking (ULFM)")
    print(table)
    print(
        "\nNote: after ULFM's shrink the domain must be redistributed over\n"
        "fewer ranks (full pre-processing redo); the non-shrinking scheme\n"
        "keeps the distribution and only reads checkpoints — the paper's\n"
        "argument for spare processes."
    )
    backend_rows = _backend_rows(args.sizes, backends, args.failure_free,
                                 results)
    backend_table = format_table(
        BACKEND_HEADERS, backend_as_rows(backend_rows),
        title=(f"Checkpoint-backend recovery paths "
               f"(neighbor vs PFS vs replicated, r={args.replication})"))
    print()
    print(backend_table)
    return table + "\n\n" + backend_table


if __name__ == "__main__":  # pragma: no cover
    main()
