"""The paper's Table I and qualitative design claims, at the fast presets.

Figure 4's shapes and the first Table I bounds live in ``test_harness.py``.
This module asserts the rest: Table I per node count (scan time linear at
~1 ms per pinged process, detection+ack flat), the FD-strategy ordering
(Sect. IV-A b), the checkpoint-interval and checkpoint-destination
trade-offs (Sect. IV-E / VI), the blocking ``gaspi_group_commit`` cost
behind the re-init overhead (OHF2) and the ULFM comparison (Sect. VIII).
``python -m repro {table1,ablations,compare}`` prints the same tables.
"""

import pytest

from repro.experiments.ablations import (
    run_checkpoint_destination,
    run_checkpoint_interval_sweep,
    run_fd_strategy_comparison,
    run_group_commit_scaling,
)
from repro.experiments.recovery_compare import run_comparison
from repro.experiments.table1 import (
    measure_detection,
    measure_scan_time,
    run_table1,
)
from repro.workloads import scaled_spec

NODES = (8, 16, 32, 64)
RUNS = 3


# n = 8 is asserted by TestTable1Shapes.test_scan_time_linear_in_processes
@pytest.mark.parametrize("n_nodes", NODES[1:])
def test_ping_scan_time(n_nodes):
    scan = measure_scan_time(n_nodes)
    # ~1 ms per pinged process + ~2 ms setup
    expected = 0.002 + 0.001 * (n_nodes - 1)
    assert scan == pytest.approx(expected, rel=0.15)


@pytest.mark.parametrize("n_nodes", NODES)
def test_detection_latency(n_nodes):
    latency = measure_detection(n_nodes, seed=n_nodes)
    # flat in node count: scan phase U(0,3) + 3.5 s error timeout (+ scan)
    assert 3.4 <= latency <= 8.5


def test_table1_scan_linear_detection_flat():
    rows = run_table1(NODES, RUNS)
    scans = [r.avg_scan_time for r in rows]
    # linear growth in node count ...
    ratio = (scans[-1] - scans[0]) / (NODES[-1] - NODES[0])
    assert ratio == pytest.approx(0.001, rel=0.15)
    # ... while detection latency stays flat
    means = [r.detection_mean for r in rows]
    assert max(means) - min(means) < 2.5
    for r in rows:
        assert r.detection_std < 2.0


def test_fd_strategy_ordering():
    dedicated, all2all, ring = run_fd_strategy_comparison(32, 60, 0.414, 3.0)
    # the dedicated FD costs the workers nothing; all-to-all pings O(p^2)
    assert dedicated.pings_total == 0
    assert dedicated.overhead_pct == 0.0
    assert all2all.pings_total > 10 * ring.pings_total
    assert all2all.overhead_pct > ring.overhead_pct >= 0.0
    # all strategies do detect the failure eventually
    assert all2all.detection_latency is not None
    assert ring.detection_latency is not None


def test_checkpoint_interval_trade_off():
    spec = scaled_spec(workers=16, iterations=400, name="bench-cp-sweep")
    outcomes = run_checkpoint_interval_sweep(spec, (25, 50, 100, 200, 400))
    redo = [o.redo_work for o in outcomes]
    assert redo[0] < redo[-1]          # shorter interval => less redo
    runtimes = [o.runtime for o in outcomes]
    assert min(runtimes) == runtimes[0]  # frequent CP wins (CP ~free)


def test_checkpoint_destination_neighbor_vs_pfs():
    neighbor, pfs = run_checkpoint_destination()
    # neighbor-level ~free (paper: 0.01%); PFS markedly more expensive
    assert neighbor.overhead_pct < 0.1
    assert pfs.overhead_pct > 5 * neighbor.overhead_pct


def test_group_commit_scaling():
    times = dict(run_group_commit_scaling((8, 16, 32, 64, 128, 256)))
    # linear scaling (the connection-establishment model)
    base = 0.050
    assert (times[256] - base) / (times[8] - base) == pytest.approx(32, rel=0.05)
    # the 256-rank commit dominates the paper's ~10 s re-init overhead
    assert 5.0 <= times[256] <= 10.0


def test_ulfm_detects_faster_both_rebuilds_grow():
    sizes = (8, 16, 32, 64)
    rows = run_comparison(sizes)
    for row in rows:
        # communication-triggered detection beats the periodic scan
        assert row.ulfm_detection < row.gaspi_detection
    # both schemes' reconstruction grows with size
    rebuilds = [r.gaspi_reconstruction for r in rows]
    shrinks = [r.ulfm_reconstruction for r in rows]
    assert rebuilds == sorted(rebuilds)
    assert shrinks == sorted(shrinks)
    # linear growth of the GASPI group commit (rebuild dominated by it)
    assert rebuilds[-1] / rebuilds[0] == pytest.approx(
        sizes[-1] / sizes[0], rel=0.35)
