"""Tests for the pre-processing stage (pure, no simulator)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spmvm import CSRMatrix, CommPlan, RowPartition
from repro.spmvm.comm_setup import SendSpec, split_columns
from repro.spmvm.matgen import GrapheneSheet, Laplacian2D, RandomSparse
from tests.spmvm.oracles import to_dense


def fill_send_plans(plans, partition):
    """Complete every plan's send side from all ranks' receive sides: the
    single-process oracle of the message exchange in
    ``distribute_matrix``."""
    for requester, plan in plans.items():
        for provider, spec in plan.recv.items():
            plans[provider].send[requester] = SendSpec(
                local_idx=partition.to_local(provider, spec.cols),
                halo_start=plan.n_local + spec.halo_start,
            )


def build_comm_plan(blocks, partition):
    """Sequentially pre-process every rank's block (the oracle path)."""
    remapped = {}
    plans = {}
    for part, block in blocks.items():
        remapped[part], plans[part] = split_columns(block, partition, part)
    fill_send_plans(plans, partition)
    return remapped, plans


def blocks_of(gen, partition):
    return {
        part: gen.generate_rows(*partition.range_of(part))
        for part in range(partition.n_parts)
    }


def simulate_exchange_and_spmv(gen, n_parts, x):
    """Run the full halo protocol sequentially and return the global y."""
    partition = RowPartition(gen.n_rows, n_parts)
    remapped, plans = build_comm_plan(blocks_of(gen, partition), partition)

    # assemble each rank's x view: [own block | halo written by providers]
    ys = []
    for part in range(n_parts):
        r0, r1 = partition.range_of(part)
        plan = plans[part]
        x_full = np.zeros(plan.n_local + plan.halo_size)
        x_full[: plan.n_local] = x[r0:r1]
        for provider, spec in plan.recv.items():
            send = plans[provider].send[part]
            p0, _ = partition.range_of(provider)
            values = x[p0 + send.local_idx]
            x_full[send.halo_start : send.halo_start + send.count] = values
        ys.append(remapped[part].spmv(x_full))
    return np.concatenate(ys)


class TestSplitColumns:
    def test_local_only_matrix_has_empty_halo(self):
        partition = RowPartition(4, 2)
        block = CSRMatrix.from_coo([0, 1], [0, 1], [1.0, 2.0], (2, 4))
        remapped, plan = split_columns(block, partition, 0)
        assert plan.halo_size == 0
        assert plan.recv == {}
        assert remapped.n_cols == 2

    def test_remote_columns_grouped_by_owner_sorted(self):
        partition = RowPartition(9, 3)  # blocks [0,3) [3,6) [6,9)
        block = CSRMatrix.from_coo(
            [0, 0, 1, 1], [8, 3, 6, 4], np.ones(4), (3, 9)
        )
        remapped, plan = split_columns(block, partition, 0)
        assert list(plan.halo_cols) == [3, 4, 6, 8]  # owner 1 then owner 2
        assert list(plan.recv[1].cols) == [3, 4]
        assert plan.recv[1].halo_start == 0
        assert list(plan.recv[2].cols) == [6, 8]
        assert plan.recv[2].halo_start == 2
        # remapping: local block is rows [0,3) so col 3 -> 3 (n_local) + 0
        dense = to_dense(remapped)
        assert dense.shape == (3, 7)

    def test_duplicate_remote_column_requested_once(self):
        partition = RowPartition(4, 2)
        block = CSRMatrix.from_coo([0, 1], [3, 3], [1.0, 2.0], (2, 4))
        _, plan = split_columns(block, partition, 0)
        assert plan.recv[1].count == 1


class TestBuildCommPlan:
    @pytest.mark.parametrize("gen,n_parts", [
        (GrapheneSheet(4, 4), 3),
        (GrapheneSheet(3, 5, disorder=1.0, seed=2), 4),
        (Laplacian2D(5, 5), 5),
        (RandomSparse(40, nnz_per_row=5, seed=1), 4),
    ])
    def test_distributed_spmv_matches_global(self, gen, n_parts):
        x = np.sin(np.arange(gen.n_rows, dtype=float))
        y_dist = simulate_exchange_and_spmv(gen, n_parts, x)
        y_ref = gen.full().spmv(x)
        assert np.allclose(y_dist, y_ref)

    def test_send_recv_plans_are_duals(self):
        gen = Laplacian2D(4, 4)
        partition = RowPartition(gen.n_rows, 4)
        _, plans = build_comm_plan(blocks_of(gen, partition), partition)
        for requester, plan in plans.items():
            for provider, spec in plan.recv.items():
                send = plans[provider].send[requester]
                assert send.count == spec.count
                assert send.halo_start == plan.n_local + spec.halo_start
                p0, _ = partition.range_of(provider)
                assert np.array_equal(p0 + send.local_idx, spec.cols)

    def test_no_self_communication(self):
        gen = Laplacian2D(4, 4)
        partition = RowPartition(gen.n_rows, 4)
        _, plans = build_comm_plan(blocks_of(gen, partition), partition)
        for part, plan in plans.items():
            assert part not in plan.recv
            assert part not in plan.send

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(4, 60),
        n_parts=st.integers(1, 6),
        seed=st.integers(0, 1000),
    )
    def test_property_distributed_matches_global(self, n, n_parts, seed):
        gen = RandomSparse(n, nnz_per_row=min(4, n), seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        assert np.allclose(
            simulate_exchange_and_spmv(gen, n_parts, x),
            gen.full().spmv(x),
        )


class TestCommPlanSerialization:
    def test_payload_roundtrip(self):
        gen = GrapheneSheet(4, 4)
        partition = RowPartition(gen.n_rows, 4)
        _, plans = build_comm_plan(blocks_of(gen, partition), partition)
        plan = plans[1]
        from repro.checkpoint import pack_checkpoint, unpack_checkpoint
        restored = CommPlan.from_payload(
            unpack_checkpoint(pack_checkpoint(plan.to_payload()))
        )
        assert restored.n_local == plan.n_local
        assert np.array_equal(restored.halo_cols, plan.halo_cols)
        assert restored.providers() == plan.providers()
        assert restored.requesters() == plan.requesters()
        for p in plan.providers():
            assert np.array_equal(restored.recv[p].cols, plan.recv[p].cols)
            assert restored.recv[p].halo_start == plan.recv[p].halo_start
        for r in plan.requesters():
            assert np.array_equal(restored.send[r].local_idx, plan.send[r].local_idx)

    def test_empty_plan_roundtrip(self):
        plan = CommPlan(n_local=5)
        restored = CommPlan.from_payload(plan.to_payload())
        assert restored.n_local == 5
        assert restored.halo_size == 0
        assert restored.total_send == 0
