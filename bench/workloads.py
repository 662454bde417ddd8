"""The benchmark's four workloads: pinned parameters, seeded inputs, one pass.

Every parameter that shapes a workload is written out here rather than
imported from the program (``repro.perf.scaling``, ``figure4.default_spec``),
so a later change to the program's defaults cannot silently change what the
benchmark measures.  The program sees only the generated inputs:

* :func:`make_inputs` turns ``(workload, seed)`` into a JSON-able dict
  (kill victims, kill times, matrix disorder seed).  Seed 0 reproduces the
  repository's historical scenarios exactly.
* :func:`run_pass` runs one pass through public entry points and returns
  the pass's outputs as plain JSON data (floats kept exact), which
  :func:`check` validates against invariants and the golden fixture.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional

WORKLOADS = ("figure4_small", "weak_1024", "restore_storm", "numeric_lanczos")

#: environment of every pass.  BLAS threading changes the summation order
#: of numpy dot products, so the numeric golden outputs hold only under it.
PASS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# Per-worker shape of the paper's graphene case (Sect. V-VI: 1.2e8 rows,
# 1.5e9 nnz, 1.9 GB checkpoints over 256 workers, 1450 s for 3500
# iterations, 20 s pre-processing).  Model specs keep these per-worker
# numbers at any worker count, i.e. weak scaling.
ROWS_PER_WORKER = 468_750
NNZ_PER_WORKER = 5_859_375
CKPT_BYTES_PER_WORKER = 7_421_875
ITERATION_TIME = 0.4142857142857143
SETUP_TIME = 20.0

#: Figure-4 kill placement: this fraction of a checkpoint interval past a
#: checkpoint (the paper's ~114 of 500 iterations of redo work)
REDO_FRACTION = 114 / 500
#: scan half-period + error timeout + notice, as the figure's estimate
DETECTION_EST_S = 3.0 / 2 + 3.5 + 0.5

#: Full and ``--quick`` sizes of each workload.  ``commit_est_s`` is the
#: modelled group-commit cost at that worker count, used only to space
#: sequential kills one recovery apart.
SIZES: Dict[str, Dict[bool, Dict[str, Any]]] = {
    "figure4_small": {
        False: {"workers": 64, "iterations": 700, "commit_est_s": 1.778},
        True: {"workers": 16, "iterations": 140, "commit_est_s": 0.482},
    },
    "weak_1024": {
        False: {"workers": 1024, "iterations": 25, "spares": 4},
        True: {"workers": 256, "iterations": 25, "spares": 4},
    },
    "restore_storm": {
        False: {"workers": 256, "iterations": 700, "spares": 7, "kills": 6,
                "replication": 2, "commit_est_s": 6.962},
        True: {"workers": 64, "iterations": 140, "spares": 7, "kills": 6,
               "replication": 2, "commit_est_s": 1.778},
    },
    "numeric_lanczos": {
        False: {"nx": 400, "workers": 16, "spares": 4, "steps": 300,
                "checkpoint_every": 50},
        True: {"nx": 100, "workers": 16, "spares": 4, "steps": 300,
               "checkpoint_every": 50},
    },
}

#: seed-0 kill of the weak-scaling workload: worker 3 during setup
WEAK_KILL = (10.5, 3)
#: seed-0 kill times of the numeric workload (victims: workers 1 and 2)
NUMERIC_KILLS = (12.0, 22.0)
#: numeric check: recovered lambda_min vs the sequential reference
LAMBDA_TOL = 1e-9


def _rng(workload: str, seed: int) -> random.Random:
    # a str seed is hashed with SHA-512, so the stream is independent of
    # PYTHONHASHSEED and of the Python build
    return random.Random(f"{workload}/{seed}")


def _checkpoint_interval(iterations: int) -> int:
    # the paper checkpoints every 500 of 3500 iterations
    return max(1, iterations // 7)


def _staggered_kills(size: Dict[str, Any], victims: List[int],
                     offset: float) -> List[List[float]]:
    """Sequential kills, each ``REDO_FRACTION`` of an interval past the
    k-th checkpoint, shifted by the previous recoveries' estimated cost."""
    ci = _checkpoint_interval(size["iterations"])
    redo = max(1, int(round(ci * REDO_FRACTION)))
    per_failure = (DETECTION_EST_S + size["commit_est_s"]
                   + redo * ITERATION_TIME + 1.0)
    kills = []
    for k, rank in enumerate(victims):
        t = (SETUP_TIME + (ci * (k + 1) + redo) * ITERATION_TIME
             + k * per_failure)
        kills.append([t + offset, rank])
    return kills


def make_inputs(workload: str, seed: int, quick: bool = False) -> Dict[str, Any]:
    """Everything a pass needs, generated from the seed alone."""
    size = dict(SIZES[workload][quick])
    rng = _rng(workload, seed)
    inputs: Dict[str, Any] = {"workload": workload, "seed": seed,
                              "quick": quick, **size}
    if workload == "figure4_small":
        # the kill offset stays inside one iteration, so every seed redoes
        # the same number of iterations
        victims = ([1, 2, 3] if seed == 0
                   else rng.sample(range(1, size["workers"]), 3))
        offset = 1e-3 if seed == 0 else rng.uniform(1e-3, 0.1)
        staggered = _staggered_kills(size, victims, offset)
        inputs["kills"] = {
            f"{k} fail recovery": staggered[:k] for k in (1, 2, 3)
        }
        inputs["kills"]["3 sim. fail recovery"] = [
            [staggered[0][0], rank] for rank in victims
        ]
    elif workload == "weak_1024":
        t, rank = WEAK_KILL
        if seed:
            t += rng.uniform(-0.5, 0.5)
            rank = rng.randrange(1, size["workers"])
        inputs["kills"] = [[t, rank]]
    elif workload == "restore_storm":
        victims = (list(range(1, size["kills"] + 1)) if seed == 0
                   else rng.sample(range(1, size["workers"]), size["kills"]))
        offset = 1e-3 if seed == 0 else rng.uniform(1e-3, 0.1)
        inputs["kills"] = _staggered_kills(size, victims, offset)
    else:
        victims = [1, 2] if seed == 0 else rng.sample(range(1, size["workers"]), 2)
        times = [t if seed == 0 else t + rng.uniform(-0.2, 0.2)
                 for t in NUMERIC_KILLS]
        inputs["kills"] = [[t, rank] for t, rank in zip(times, victims)]
        inputs["disorder_seed"] = seed
    return inputs


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
def model_spec(name: str, workers: int, iterations: int):
    from repro.workloads.spec import WorkloadSpec

    return WorkloadSpec(
        name=name,
        n_rows=ROWS_PER_WORKER * workers,
        nnz=NNZ_PER_WORKER * workers,
        n_workers=workers,
        n_iterations=iterations,
        checkpoint_interval=_checkpoint_interval(iterations),
        checkpoint_bytes_global=CKPT_BYTES_PER_WORKER * workers,
        iteration_time=ITERATION_TIME,
        setup_time=SETUP_TIME,
    )


CKPT_OPS = ("mirror_ops", "scatter_ops", "restore_ops")
CKPT_BYTES = ("mirror_bytes", "scatter_bytes")


def _ckpt_counts(phases: Dict[str, float]) -> Dict[str, float]:
    return {key: phases.get(key, 0) for key in CKPT_OPS + CKPT_BYTES}


def _decomposition(outcome) -> Dict[str, Any]:
    return {
        "total": outcome.total_runtime,
        "computation": outcome.computation_time,
        "redo": outcome.redo_work_time,
        "reinit": outcome.reinit_time,
        "detection": outcome.detection_time,
        "recoveries": outcome.n_recoveries,
        "ckpt": _ckpt_counts(outcome.ckpt_phases),
    }


def _kills(pairs: List[List[float]]) -> List[tuple]:
    return [(float(t), int(rank)) for t, rank in pairs]


def _figure4(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.common import run_ft_scenario
    from repro.experiments.figure4 import run_bare

    spec = model_spec("figure4", inputs["workers"], inputs["iterations"])
    rows = []
    for name, checkpoints in (("w/o HC, w/o CP", False),
                              ("w/o HC, with CP", True)):
        total = run_bare(spec, checkpoints)
        rows.append({"scenario": name, "total": total, "computation": total,
                     "redo": 0.0, "reinit": 0.0, "detection": 0.0,
                     "recoveries": 0, "ckpt": _ckpt_counts({})})
    scenarios = [("with HC, with CP", [], 1)]
    scenarios += [(name, pairs, 8 if "sim." in name else 1)
                  for name, pairs in inputs["kills"].items()]
    for name, pairs, fd_threads in scenarios:
        outcome = run_ft_scenario(name, spec, kill_times=_kills(pairs),
                                  fd_threads=fd_threads)
        rows.append({"scenario": name, **_decomposition(outcome)})
    return {"rows": rows}


def _weak(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.experiments.common import run_ft_scenario

    spec = model_spec("weak", inputs["workers"], inputs["iterations"])
    outcome = run_ft_scenario("weak", spec, kill_times=_kills(inputs["kills"]),
                              n_spares=inputs["spares"])
    return _decomposition(outcome)


def _storm(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.checkpoint.manager import CheckpointConfig
    from repro.experiments.common import run_ft_scenario

    spec = model_spec("storm", inputs["workers"], inputs["iterations"])
    outcome = run_ft_scenario(
        "storm", spec, kill_times=_kills(inputs["kills"]),
        n_spares=inputs["spares"],
        checkpoint=CheckpointConfig(backend="replicated",
                                    replication=inputs["replication"]),
    )
    return _decomposition(outcome)


class StepTime:
    """Virtual cost of one Lanczos step: 0.05 s spMVM + 0.05 s vector ops,
    so the numeric run spans ~30 virtual seconds and both kills land
    mid-run."""

    def spmv_time(self, nnz: int, rows: int) -> float:
        return 0.05

    def vector_ops_time(self, rows: int) -> float:
        return 0.05


def _matrix(inputs: Dict[str, Any]):
    from repro.spmvm.matgen import GrapheneSheet

    return GrapheneSheet(inputs["nx"], inputs["nx"], disorder=1.0,
                         seed=inputs["disorder_seed"])


def _numeric(inputs: Dict[str, Any]) -> Dict[str, Any]:
    from repro.checkpoint.manager import CheckpointManager
    from repro.cluster import FaultPlan, MachineSpec
    from repro.ft import FTConfig, run_ft_application
    from repro.solvers.ft_lanczos import FTLanczos

    cfg = FTConfig(n_workers=inputs["workers"], n_spares=inputs["spares"],
                   fd_scan_period=3.0, comm_timeout=1.0,
                   checkpoint_interval=inputs["checkpoint_every"])
    plan = FaultPlan()
    for t, rank in _kills(inputs["kills"]):
        plan.kill_process(t, rank)
    program = FTLanczos(generator=_matrix(inputs), n_steps=inputs["steps"],
                        time_model=StepTime())
    result = run_ft_application(cfg, program,
                                machine_spec=MachineSpec(n_nodes=cfg.n_ranks),
                                fault_plan=plan)
    workers = result.worker_results()
    manager = CheckpointManager.maybe_of(result.run.world)
    stats = result.fd_stats
    return {
        "status": result.status,
        "elapsed": result.elapsed,
        "steps": workers[0]["result"]["steps"] if 0 in workers else None,
        "eigenvalues": (workers[0]["result"]["eigenvalues"]
                        if 0 in workers else []),
        "recovered_ranks": (sum(len(d.failed) for d in stats.detections)
                            if stats is not None else 0),
        "ckpt": _ckpt_counts(manager.phase_totals if manager else {}),
    }


PASSES: Dict[str, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    "figure4_small": _figure4,
    "weak_1024": _weak,
    "restore_storm": _storm,
    "numeric_lanczos": _numeric,
}


def run_pass(inputs: Dict[str, Any]) -> Dict[str, Any]:
    """One pass of the workload; returns its outputs as JSON data."""
    return PASSES[inputs["workload"]](inputs)


def reference(inputs: Dict[str, Any]) -> Optional[float]:
    """The sequential lambda_min a numeric pass must reproduce (else None).

    Computed once per run, outside the timed passes."""
    if inputs["workload"] != "numeric_lanczos":
        return None
    from repro.solvers import lanczos_matrix_eigenvalues, lanczos_sequential

    alpha, beta = lanczos_sequential(_matrix(inputs).full(), inputs["steps"])
    return float(lanczos_matrix_eigenvalues(alpha, beta)[0])


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check(inputs: Dict[str, Any], outputs: Dict[str, Any],
          expected: Optional[Dict[str, Any]],
          lambda_ref: Optional[float]) -> List[str]:
    """Invariant violations of one pass, plus a mismatch with ``expected``
    (the golden outputs for seed 0, else the run's warm-up pass)."""
    errors = []
    workload = inputs["workload"]
    if workload == "figure4_small":
        want = {"w/o HC, w/o CP": 0, "w/o HC, with CP": 0,
                "with HC, with CP": 0, "1 fail recovery": 1,
                "2 fail recovery": 2, "3 fail recovery": 3,
                "3 sim. fail recovery": 1}
        got = {row["scenario"]: row["recoveries"] for row in outputs["rows"]}
        if got != want:
            errors.append(f"recoveries per scenario {got} != {want}")
    elif workload in ("weak_1024", "restore_storm"):
        if outputs["recoveries"] != len(inputs["kills"]):
            errors.append(f"{outputs['recoveries']} recoveries for "
                          f"{len(inputs['kills'])} kills")
        if workload == "restore_storm" and not (
                outputs["ckpt"]["restore_ops"] > 0
                and outputs["ckpt"]["scatter_ops"] > 0):
            errors.append(f"replicated plane idle: {outputs['ckpt']}")
    else:
        if outputs["status"] != "done" or outputs["steps"] != inputs["steps"]:
            errors.append(f"numeric run ended {outputs['status']!r} after "
                          f"{outputs['steps']} steps")
        if outputs["recovered_ranks"] != len(inputs["kills"]):
            errors.append(f"{outputs['recovered_ranks']} ranks recovered for "
                          f"{len(inputs['kills'])} kills")
        if outputs["ckpt"]["restore_ops"] <= 0:
            errors.append("no checkpoint restore happened")
        if lambda_ref is not None and not (
                outputs["eigenvalues"]
                and abs(outputs["eigenvalues"][0] - lambda_ref) <= LAMBDA_TOL):
            errors.append(f"lambda_min {outputs['eigenvalues'][:1]} vs "
                          f"sequential {lambda_ref!r} (tol {LAMBDA_TOL:g})")
    if expected is not None and outputs != expected:
        errors.append("outputs differ from the expected digest")
    return errors
