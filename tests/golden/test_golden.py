"""Golden fixture: byte-identical experiment rows and trace streams.

Recorded outputs pin the simulator's observable behaviour:

* ``rows16.json`` — the 16-rank FT scenario's experiment rows (runtime
  decomposition, checkpoint phase totals and per-worker counters) plus
  the SHA-256 of its tracer stream, for a few kills;
* ``rows16_replicated.json`` — the same rows with the replicated
  checkpoint backend (``r = 2``);
* ``rows64_retry.json`` — the same rows at 64 workers, whose group
  commit (0.05 + 0.027·64 = 1.778 s) outlasts the 1 s ``comm_timeout``,
  so every commit retries: one kill, and a second kill while the team
  recommits after the first (the superseded-commit path of recovery);
* ``recovery_compare.json`` — the full-precision ``recovery_compare``
  backend rows (neighbor, pfs, replicated) at 16 and 64 ranks;
* ``figure4_tiny.sha256`` — the digest of the ``figure4 --scale tiny
  --trace`` JSONL file;
* ``numeric16.json`` — a real FT Lanczos run (16 workers, 4 spares, two
  kills) on a small disordered graphene sheet: status, elapsed time,
  steps, the lowest eigenvalues as exact floats, the SHA-256 of the
  alpha/beta bytes and the checkpoint phase totals;
* ``numeric48_late_kill.json`` — the same solver at 48 workers, 60 steps,
  with rank 1 killed at 8.5 s, after the 7.354 s finish: status, elapsed
  time, the FD's detection count, the alpha/beta SHA-256 and the trace
  digest.  It is the one run in which a notice lands on control blocks
  that already hold the done flag.

A refactor must keep all of them byte-identical.  After an intentional change of
behaviour, regenerate them with
``PYTHONPATH=src python -m tests.golden.test_golden``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import CheckpointConfig
from repro.checkpoint.manager import CheckpointManager
from repro.cluster import FaultPlan, MachineSpec
from repro.experiments import figure4
from repro.experiments.common import run_ft_scenario
from repro.experiments.recovery_compare import measure_backend
from repro.experiments.sweep import SweepTrace
from repro.experiments.trace import validate_trace
from repro.ft import FTConfig, run_ft_application
from repro.gaspi.context import GaspiContext
from repro.obs.export import event_to_record
from repro.obs.timeline import build_timelines
from repro.obs.tracer import deactivate, install
from repro.solvers.ft_lanczos import FTLanczos
from repro.spmvm.matgen import GrapheneSheet
from repro.workloads.spec import scaled_spec

HERE = Path(__file__).parent
ROWS_FILES = {"neighbor": HERE / "rows16.json",
              "replicated": HERE / "rows16_replicated.json"}
ROWS64_FILE = HERE / "rows64_retry.json"
BACKENDS_FILE = HERE / "recovery_compare.json"
FIGURE4_FILE = HERE / "figure4_tiny.sha256"
NUMERIC_FILE = HERE / "numeric16.json"
LATE_KILL_FILE = HERE / "numeric48_late_kill.json"

#: (kill time, kill rank): during setup, mid-run on rank 0, mid-run on an
#: interior rank, and on the last worker
KILLS = [(8.5, 3), (12.5, 0), (24.0, 7), (12.5, 15)]
#: kill plans of the 64-worker fixture: one kill after setup, and the
#: same kill plus a second one that lands while the team recommits
RETRY_PLANS = [((10.5, 3),), ((10.5, 3), (18.0, 5))]
#: (ranks, backend) cells of the recovery_compare backend table
BACKEND_CELLS = [(n, b) for n in (16, 64)
                 for b in ("neighbor", "pfs", "replicated")]
#: (kill time, kill rank) of the numeric run: both after the first
#: checkpoint, one recovery apart
NUMERIC_KILLS = [(8.0, 1), (14.0, 2)]
#: (kill time, kill rank) of the 48-worker run, after its 7.354 s finish
LATE_KILL = (8.5, 1)


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def scenario_rows(spec, kills, backend="neighbor"):
    """Experiment rows, the captured trace and the run's own failure
    records of one traced scenario."""
    tracer = install(capacity=8192, bulk_capacity=8192)
    try:
        out = run_ft_scenario(
            spec.name, spec, kill_times=list(kills), n_spares=4,
            checkpoint=CheckpointConfig(backend=backend, replication=2))
    finally:
        deactivate()
    workers = out.result.worker_results()
    events = tuple(tracer.events())
    rows = {
        "total_runtime": out.total_runtime,
        "computation_time": out.computation_time,
        "redo_work_time": out.redo_work_time,
        "reinit_time": out.reinit_time,
        "detection_time": out.detection_time,
        "n_recoveries": out.n_recoveries,
        "ckpt_phases": out.ckpt_phases,
        "counters": {str(k): w.get("counters", {})
                     for k, w in sorted(workers.items())},
        "trace_sha256": _sha256(
            json.dumps(event_to_record(ev), sort_keys=True, default=repr)
            for ev in events),
    }
    trace = SweepTrace(experiment="golden", scenario=spec.name, k=0,
                       events=events, dropped=tracer.dropped,
                       dropped_bulk=tracer.dropped_bulk)
    # one JSON round trip: tuples become lists, as in the stored file
    rows = json.loads(json.dumps(rows, sort_keys=True, default=repr))
    return rows, trace, out.result.failures()


def rows16(kill, backend="neighbor"):
    """Rows, trace and failure records of the 16-rank scenario with one
    kill."""
    spec = scaled_spec(workers=16, iterations=80, name="golden-16")
    return scenario_rows(spec, [kill], backend)


def rows64(kills):
    """Rows, trace and failure records of the 64-worker scenario, where
    commits retry."""
    spec = scaled_spec(workers=64, iterations=25, name="golden-64")
    return scenario_rows(spec, kills)


class _StepTime:
    """0.05 s spMVM + 0.05 s vector ops per Lanczos step."""

    def spmv_time(self, nnz: int, rows: int) -> float:
        return 0.05

    def vector_ops_time(self, rows: int) -> float:
        return 0.05


def _numeric_run(n_workers, n_steps, kills):
    """A real FT Lanczos run on a small disordered graphene sheet."""
    cfg = FTConfig(n_workers=n_workers, n_spares=4, fd_scan_period=3.0,
                   comm_timeout=1.0, checkpoint_interval=20)
    plan = FaultPlan()
    for t, rank in kills:
        plan.kill_process(t, rank)
    program = FTLanczos(generator=GrapheneSheet(24, 24, disorder=1.0),
                        n_steps=n_steps, time_model=_StepTime())
    return run_ft_application(cfg, program,
                              machine_spec=MachineSpec(n_nodes=cfg.n_ranks),
                              fault_plan=plan)


def _coefficients_sha256(out) -> str:
    coefficients = (np.asarray(out["alpha"], dtype=np.float64).tobytes()
                    + np.asarray(out["beta"], dtype=np.float64).tobytes())
    return hashlib.sha256(coefficients).hexdigest()


def numeric16():
    """Outputs of a real FT Lanczos run through two kills."""
    result = _numeric_run(16, 120, NUMERIC_KILLS)
    out = result.worker_results()[0]["result"]
    rows = {
        "status": result.status,
        "elapsed": result.elapsed,
        "steps": out["steps"],
        "eigenvalues": out["eigenvalues"],
        "alpha_beta_sha256": _coefficients_sha256(out),
        "ckpt_phases": CheckpointManager.of(result.run.world).phase_totals,
    }
    return json.loads(json.dumps(rows, sort_keys=True))


def numeric48_late_kill():
    """Outputs and trace of a 48-worker FT Lanczos run whose only kill
    lands after every worker finished."""
    tracer = install(capacity=8192, bulk_capacity=8192)
    try:
        result = _numeric_run(48, 60, [LATE_KILL])
    finally:
        deactivate()
    events = tuple(tracer.events())
    out = result.worker_results()[0]["result"]
    fd = result.rank_result(result.cfg.fd_rank)
    rows = {
        "status": result.status,
        "elapsed": result.elapsed,
        "steps": out["steps"],
        "fd_detections": len(fd["fd_stats"].detections),
        "alpha_beta_sha256": _coefficients_sha256(out),
        "trace_sha256": _sha256(
            json.dumps(event_to_record(ev), sort_keys=True, default=repr)
            for ev in events),
    }
    trace = SweepTrace(experiment="golden", scenario="numeric48-late-kill",
                       k=0, events=events, dropped=tracer.dropped,
                       dropped_bulk=tracer.dropped_bulk)
    return json.loads(json.dumps(rows, sort_keys=True)), trace


def figure4_tiny_digest(tmp_dir: Path) -> str:
    path = tmp_dir / "figure4_tiny.jsonl"
    figure4.main(["--scale", "tiny", "--trace", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _key(kill) -> str:
    return f"{kill[0]}@{kill[1]}"


def _plan_key(kills) -> str:
    return "+".join(_key(kill) for kill in kills)


def _assert_one_failure_record(trace, records):
    """The run's failure log holds exactly what the trace folds to."""
    assert records
    assert build_timelines(trace.events) == records


@pytest.mark.parametrize("kill", KILLS, ids=_key)
def test_rows16_match_golden(kill):
    golden = json.loads(ROWS_FILES["neighbor"].read_text())
    rows, trace, records = rows16(kill)
    assert rows == golden[_key(kill)]
    _assert_one_failure_record(trace, records)


@pytest.mark.parametrize("kill", KILLS, ids=_key)
def test_rows16_replicated_match_golden(kill):
    golden = json.loads(ROWS_FILES["replicated"].read_text())
    rows, trace, records = rows16(kill, "replicated")
    assert rows == golden[_key(kill)]
    _assert_one_failure_record(trace, records)


@pytest.mark.parametrize("kills", RETRY_PLANS, ids=_plan_key)
def test_rows64_retry_match_golden(kills):
    golden = json.loads(ROWS64_FILE.read_text())
    rows, trace, records = rows64(kills)
    assert rows == golden[_plan_key(kills)]
    _assert_one_failure_record(trace, records)


def test_rows64_second_kill_supersedes_the_pending_commit(monkeypatch):
    """The second kill lands while the 63 live members commit epoch 1's
    group: each of them retires that uncommitted group and restarts with
    the newer notice.  The fixture is only worth keeping while it takes
    this branch.  It also pins today's semantics of the case: one
    recovery absorbs both kills, so the failure record holds two
    detected epochs of which Figure 4 counts only the acknowledged one,
    and the trace leaves rank 3's chain incomplete (deciding those
    semantics is separate work)."""
    deleted = []
    delete = GaspiContext.group_delete

    def spy(group):
        deleted.append((group.tag, group.committed))
        delete(group)

    monkeypatch.setattr(GaspiContext, "group_delete", staticmethod(spy))
    rows, trace, records = rows64(RETRY_PLANS[1])
    assert deleted.count((1, False)) == 63
    assert rows["n_recoveries"] == 1
    assert [rec.epoch for rec in records] == [1, 2]
    assert records[0].acks and not records[1].acks
    assert build_timelines(trace.events) == records
    errors = validate_trace(trace)
    assert any("rank 3 has no complete lifecycle chain" in e for e in errors)


@pytest.mark.parametrize("cell", BACKEND_CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_backend_rows_match_golden(cell):
    golden = json.loads(BACKENDS_FILE.read_text())
    n, backend = cell
    measured = json.loads(json.dumps(measure_backend(n, backend)))
    assert measured == golden[f"{n}-{backend}"]


def test_figure4_tiny_trace_digest_matches_golden(tmp_path, capsys):
    assert figure4_tiny_digest(tmp_path) == FIGURE4_FILE.read_text().strip()


def test_numeric16_matches_golden():
    assert numeric16() == json.loads(NUMERIC_FILE.read_text())


def test_numeric48_late_kill_matches_golden():
    """Pins today's semantics of a kill after completion: the FD scans
    once more after the done signal, detects the kill and broadcasts a
    notice onto blocks that hold the done flag, and the trace leaves
    rank 1's chain incomplete (deciding those semantics is separate
    work)."""
    rows, trace = numeric48_late_kill()
    assert rows == json.loads(LATE_KILL_FILE.read_text())
    assert rows["fd_detections"] == 1
    errors = validate_trace(trace)
    assert any("epoch 1 chain incomplete" in e for e in errors)
    assert any("rank 1 has no complete lifecycle chain" in e
               for e in errors)


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import tempfile

    # one case per line keeps the fixture small in line-based diffs
    for backend, path in ROWS_FILES.items():
        path.write_text("{\n" + ",\n".join(
            f"{json.dumps(_key(k))}: "
            f"{json.dumps(rows16(k, backend)[0], sort_keys=True)}"
            for k in KILLS) + "\n}\n")
    ROWS64_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(_plan_key(k))}: "
        f"{json.dumps(rows64(k)[0], sort_keys=True)}"
        for k in RETRY_PLANS) + "\n}\n")
    BACKENDS_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(f'{n}-{b}')}: {json.dumps(measure_backend(n, b))}"
        for n, b in BACKEND_CELLS) + "\n}\n")
    with tempfile.TemporaryDirectory() as tmp:
        FIGURE4_FILE.write_text(figure4_tiny_digest(Path(tmp)) + "\n")
    NUMERIC_FILE.write_text(json.dumps(numeric16(), indent=1,
                                       sort_keys=True) + "\n")
    LATE_KILL_FILE.write_text(json.dumps(numeric48_late_kill()[0], indent=1,
                                         sort_keys=True) + "\n")
