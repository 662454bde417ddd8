"""Golden fixture: byte-identical experiment rows and trace streams.

Two recorded outputs pin the simulator's observable behaviour:

* ``rows16.json`` — the 16-rank FT scenario's experiment rows (runtime
  decomposition, checkpoint phase totals, per-worker timelines and
  counters) plus the SHA-256 of its tracer stream, for a few kills;
* ``rows16_replicated.json`` — the same rows with the replicated
  checkpoint backend (``r = 2``);
* ``recovery_compare.json`` — the full-precision ``recovery_compare``
  backend rows (neighbor, pfs, replicated) at 16 and 64 ranks;
* ``figure4_tiny.sha256`` — the digest of the ``figure4 --scale tiny
  --trace`` JSONL file.

A refactor must keep all of them byte-identical.  After an intentional change of
behaviour, regenerate them with
``PYTHONPATH=src python -m tests.golden.test_golden``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.checkpoint import CheckpointConfig
from repro.experiments import figure4
from repro.experiments.common import run_ft_scenario
from repro.experiments.recovery_compare import measure_backend
from repro.obs.export import event_to_record
from repro.obs.tracer import deactivate, install
from repro.workloads.spec import scaled_spec

HERE = Path(__file__).parent
ROWS_FILES = {"neighbor": HERE / "rows16.json",
              "replicated": HERE / "rows16_replicated.json"}
BACKENDS_FILE = HERE / "recovery_compare.json"
FIGURE4_FILE = HERE / "figure4_tiny.sha256"

#: (kill time, kill rank): during setup, mid-run on rank 0, mid-run on an
#: interior rank, and on the last worker
KILLS = [(8.5, 3), (12.5, 0), (24.0, 7), (12.5, 15)]
#: (ranks, backend) cells of the recovery_compare backend table
BACKEND_CELLS = [(n, b) for n in (16, 64)
                 for b in ("neighbor", "pfs", "replicated")]


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def rows16(kill, backend="neighbor"):
    """Experiment rows of the 16-rank scenario with one kill."""
    spec = scaled_spec(workers=16, iterations=80, name="golden-16")
    tracer = install(capacity=8192, bulk_capacity=8192)
    try:
        out = run_ft_scenario(
            "golden-16", spec, kill_times=[kill], n_spares=4,
            checkpoint=CheckpointConfig(backend=backend, replication=2))
    finally:
        deactivate()
    workers = out.result.worker_results()
    rows = {
        "total_runtime": out.total_runtime,
        "computation_time": out.computation_time,
        "redo_work_time": out.redo_work_time,
        "reinit_time": out.reinit_time,
        "detection_time": out.detection_time,
        "n_recoveries": out.n_recoveries,
        "ckpt_phases": out.ckpt_phases,
        "timelines": {str(k): w.get("timeline", [])
                      for k, w in sorted(workers.items())},
        "counters": {str(k): w.get("counters", {})
                     for k, w in sorted(workers.items())},
        "trace_sha256": _sha256(
            json.dumps(event_to_record(ev), sort_keys=True, default=repr)
            for ev in tracer.events()),
    }
    # one JSON round trip: tuples become lists, as in the stored file
    return json.loads(json.dumps(rows, sort_keys=True, default=repr))


def figure4_tiny_digest(tmp_dir: Path) -> str:
    path = tmp_dir / "figure4_tiny.jsonl"
    figure4.main(["--scale", "tiny", "--trace", str(path)])
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _key(kill) -> str:
    return f"{kill[0]}@{kill[1]}"


@pytest.mark.parametrize("kill", KILLS, ids=_key)
def test_rows16_match_golden(kill):
    golden = json.loads(ROWS_FILES["neighbor"].read_text())
    assert rows16(kill) == golden[_key(kill)]


@pytest.mark.parametrize("kill", KILLS, ids=_key)
def test_rows16_replicated_match_golden(kill):
    golden = json.loads(ROWS_FILES["replicated"].read_text())
    assert rows16(kill, "replicated") == golden[_key(kill)]


@pytest.mark.parametrize("cell", BACKEND_CELLS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_backend_rows_match_golden(cell):
    golden = json.loads(BACKENDS_FILE.read_text())
    n, backend = cell
    measured = json.loads(json.dumps(measure_backend(n, backend)))
    assert measured == golden[f"{n}-{backend}"]


def test_figure4_tiny_trace_digest_matches_golden(tmp_path, capsys):
    assert figure4_tiny_digest(tmp_path) == FIGURE4_FILE.read_text().strip()


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import tempfile

    # one case per line keeps the fixture small in line-based diffs
    for backend, path in ROWS_FILES.items():
        path.write_text("{\n" + ",\n".join(
            f"{json.dumps(_key(k))}: "
            f"{json.dumps(rows16(k, backend), sort_keys=True)}"
            for k in KILLS) + "\n}\n")
    BACKENDS_FILE.write_text("{\n" + ",\n".join(
        f"{json.dumps(f'{n}-{b}')}: {json.dumps(measure_backend(n, b))}"
        for n, b in BACKEND_CELLS) + "\n}\n")
    with tempfile.TemporaryDirectory() as tmp:
        FIGURE4_FILE.write_text(figure4_tiny_digest(Path(tmp)) + "\n")
