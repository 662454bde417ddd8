"""recovery_compare's three-way baseline: the checkpoint-restore phase
comes from the world manager's round-plane totals, not from summing
per-rank stats dicts."""

import pytest

from repro.experiments import recovery_compare as rc


@pytest.fixture(scope="module")
def rows8():
    return rc.run_comparison(sizes=(8,))


def test_restore_phase_reported_from_manager_totals(rows8):
    row = rows8[0]
    # one failure -> the rescue read a checkpoint: bytes and virtual
    # seconds of the restore phase must both be accounted
    assert row.gaspi_restore_bytes > 0
    assert row.gaspi_restore_s > 0
    # the restore happens inside reconstruction, never exceeds it
    assert row.gaspi_restore_s <= row.gaspi_reconstruction


def test_ulfm_rows_have_no_restore_phase(rows8):
    # shrinking recovery redistributes the domain instead of reading
    # checkpoints; the comparison keeps those columns zero by construction
    rendered = rc.as_rows(rows8)
    assert len(rendered[0]) == len(rc.HEADERS)
    assert rows8[0].ulfm_total == (rows8[0].ulfm_detection
                                   + rows8[0].ulfm_reconstruction)


@pytest.fixture(scope="module")
def backend_rows8():
    return [rc.BackendRow(8, backend, *rc.measure_backend(8, backend))
            for backend in rc.BACKENDS]


def test_backend_table_covers_all_three_backends(backend_rows8):
    assert [row.backend for row in backend_rows8] == list(rc.BACKENDS)
    for row in backend_rows8:
        assert row.n_ranks == 8
        # at 8 ranks every backend completes a checkpoint before the
        # kill, so every restore phase actually ran
        assert row.restore_ops > 0
        assert row.restore_bytes > 0
        assert row.restore_s > 0
        assert row.total == row.detection + row.reconstruction


def test_replicated_restore_beats_pfs(backend_rows8):
    by_backend = {row.backend: row for row in backend_rows8}
    # in-memory parallel share fetch vs the contended shared PFS pipe
    assert by_backend["replicated"].restore_s < by_backend["pfs"].restore_s


def test_restore_columns_dash_when_restore_never_ran():
    # the dash fix: restore_ops == 0 (failure-free run, or a kill before
    # the first checkpoint lands) must render "—", never a numeric 0
    row = rc.BackendRow(n_ranks=8, backend="replicated", detection=0.0,
                        reconstruction=0.0, restore_ops=0,
                        restore_bytes=0.0, restore_s=0.0)
    rendered = rc.backend_as_rows([row])[0]
    assert len(rendered) == len(rc.BACKEND_HEADERS)
    assert rendered[4] is None and rendered[5] is None


def test_failure_free_run_reports_no_restore_phase():
    detection, reinit, restore_ops, restore_bytes, restore_s = (
        rc.measure_backend(8, "neighbor", failure_free=True))
    assert restore_ops == 0
    assert restore_bytes == 0
    assert restore_s == 0


def test_compare_cli_runs_each_scenario_once(monkeypatch):
    """``python -m repro compare`` makes one sweep for both tables: the
    ULFM table's GASPI columns read the backend table's killed neighbor
    run, which is added as a run of its own only when that table does
    not make it."""
    calls = []

    def fake_measure_backend(n_ranks, backend="neighbor", replication=2,
                             failure_free=False):
        calls.append((n_ranks, backend, failure_free))
        return (1.0, 2.0, 0 if failure_free else 1, 3.0, 0.5)

    monkeypatch.setattr(rc, "measure_backend", fake_measure_backend)
    monkeypatch.setattr(rc, "measure_ulfm", lambda n_ranks: (1.0, 1.0))

    rc.main(["--sizes", "8"])
    assert calls == [(8, "neighbor", False), (8, "pfs", False),
                     (8, "replicated", False)]
    calls.clear()
    rc.main(["--sizes", "8", "--failure-free"])
    assert calls == [(8, "neighbor", False), (8, "neighbor", True),
                     (8, "pfs", True), (8, "replicated", True)]
    calls.clear()
    rc.main(["--sizes", "8", "--backend", "pfs"])
    assert calls == [(8, "neighbor", False), (8, "pfs", False)]
