"""Tests for the workload specs and the paper's workload anchors."""

import pytest

from repro.workloads import PAPER_GRAPHENE, scaled_spec
from repro.workloads.spec import PAPER_ITERATION_TIME


class TestPaperAnchors:
    def test_paper_iteration_time_near_0_414(self):
        assert PAPER_ITERATION_TIME == pytest.approx(0.414, abs=0.001)


class TestWorkloadSpec:
    def test_paper_spec_dimensions(self):
        spec = PAPER_GRAPHENE
        assert spec.n_rows == 120_000_000
        assert spec.nnz == 1_500_000_000
        assert spec.n_workers == 256
        assert spec.n_iterations == 3500
        assert spec.checkpoint_interval == 500
        assert spec.checkpoint_bytes_per_worker == pytest.approx(7.42e6, rel=0.01)
        assert spec.baseline_runtime == pytest.approx(1450.0, rel=0.01)

    def test_scaled_spec_preserves_per_worker_shape(self):
        spec = scaled_spec(workers=64, iterations=700)
        assert spec.n_rows // spec.n_workers == \
            PAPER_GRAPHENE.n_rows // PAPER_GRAPHENE.n_workers
        assert spec.nnz_per_worker == PAPER_GRAPHENE.nnz_per_worker
        assert spec.checkpoint_bytes_per_worker == \
            PAPER_GRAPHENE.checkpoint_bytes_per_worker
        assert spec.iteration_time == PAPER_GRAPHENE.iteration_time
        # checkpoint count preserved: 700/100 == 3500/500
        assert spec.n_iterations / spec.checkpoint_interval == pytest.approx(
            PAPER_GRAPHENE.n_iterations / PAPER_GRAPHENE.checkpoint_interval
        )
