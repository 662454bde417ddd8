"""Integration tests: distributed spMVM over the simulated GASPI cluster."""

import numpy as np
import pytest

from repro.gaspi import run_gaspi
from repro.spmvm import (
    DistMatrix,
    DistVector,
    SpMVMEngine,
    Team,
    distribute_matrix,
)
from repro.spmvm.matgen import GrapheneSheet, Laplacian2D, RandomSparse
from repro.spmvm.partition import RowPartition


def dist_spmv_run(gen, n_ranks, x_global, iterations=1):
    """Run y = A^iterations x distributed; returns gathered global result."""

    def main(ctx):
        team = Team.trivial(ctx)
        dmat = yield from distribute_matrix(team, gen)
        engine = yield from SpMVMEngine.create(team, dmat)
        partition = RowPartition(gen.n_rows, n_ranks)
        r0, r1 = partition.range_of(ctx.rank)
        x = x_global[r0:r1].copy()
        for it in range(iterations):
            x = yield from engine.multiply(x, tag=it)
        return x

    run = run_gaspi(main, n_ranks=n_ranks)
    return np.concatenate([run.result(r) for r in range(n_ranks)])


@pytest.mark.parametrize("gen,n_ranks", [
    (Laplacian2D(5, 5), 4),
    (GrapheneSheet(4, 4), 3),
    (GrapheneSheet(3, 4, disorder=1.0, seed=7), 4),
    (RandomSparse(37, nnz_per_row=5, seed=3), 5),
])
def test_distributed_matches_sequential(gen, n_ranks):
    rng = np.random.default_rng(0)
    x = rng.standard_normal(gen.n_rows)
    y_dist = dist_spmv_run(gen, n_ranks, x)
    assert np.allclose(y_dist, gen.full().spmv(x))


def test_repeated_multiplications_stay_correct():
    gen = Laplacian2D(4, 4)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(gen.n_rows)
    y_dist = dist_spmv_run(gen, 4, x, iterations=4)
    y_ref = x.copy()
    full = gen.full()
    for _ in range(4):
        y_ref = full.spmv(y_ref)
    assert np.allclose(y_dist, y_ref)


def test_single_rank_degenerate_case():
    gen = Laplacian2D(3, 3)
    x = np.arange(9.0)
    y = dist_spmv_run(gen, 1, x)
    assert np.allclose(y, gen.full().spmv(x))


def test_dist_matrix_payload_roundtrip_through_checkpoint():
    from repro.checkpoint import pack_checkpoint, unpack_checkpoint

    gen = GrapheneSheet(4, 4)

    def main(ctx):
        team = Team.trivial(ctx)
        dmat = yield from distribute_matrix(team, gen)
        blob = pack_checkpoint(dmat.to_payload())
        restored = DistMatrix.from_payload(unpack_checkpoint(blob))
        same = (
            restored.n_global == dmat.n_global
            and restored.logical_rank == dmat.logical_rank
            and np.array_equal(restored.local.col_idx, dmat.local.col_idx)
            and np.array_equal(restored.local.values, dmat.local.values)
            and restored.plan.providers() == dmat.plan.providers()
            and restored.plan.requesters() == dmat.plan.requesters()
        )
        return same

    run = run_gaspi(main, n_ranks=3)
    assert all(run.result(r) for r in range(3))


def test_engine_usable_from_restored_payload():
    """A rescue process can run spMVM from the checkpointed plan alone."""
    gen = Laplacian2D(4, 5)
    rng = np.random.default_rng(2)
    x = rng.standard_normal(gen.n_rows)

    def main(ctx):
        team = Team.trivial(ctx)
        dmat = yield from distribute_matrix(team, gen)
        # round-trip through the serialised form before building the engine
        restored = DistMatrix.from_payload(dmat.to_payload())
        engine = yield from SpMVMEngine.create(team, restored)
        partition = RowPartition(gen.n_rows, team.n_workers)
        r0, r1 = partition.range_of(ctx.rank)
        y = yield from engine.multiply(x[r0:r1].copy())
        return y

    run = run_gaspi(main, n_ranks=4)
    y_dist = np.concatenate([run.result(r) for r in range(4)])
    assert np.allclose(y_dist, gen.full().spmv(x))


def test_dist_vector_dot_and_norm():
    def main(ctx):
        team = Team.trivial(ctx)
        n_local = 3
        base = ctx.rank * n_local
        v = DistVector(team, np.arange(base, base + n_local, dtype=float))
        w = DistVector(team, np.ones(n_local))
        d = yield from v.dot(w)
        n = yield from v.norm()
        return (d, n)

    run = run_gaspi(main, n_ranks=4)
    total = np.arange(12.0)
    for r in range(4):
        d, n = run.result(r)
        assert d == pytest.approx(total.sum())
        assert n == pytest.approx(np.linalg.norm(total))


def test_dist_vector_local_ops():
    def main(ctx):
        team = Team.trivial(ctx)
        v = DistVector(team, np.full(4, 2.0))
        w = DistVector(team, np.full(4, 3.0))
        v.axpy(2.0, w)        # v = 2 + 2*3 = 8
        v.scale(0.5)          # v = 4
        u = DistVector(team, v.local.copy())
        total = yield from u.dot(DistVector(team, np.ones(4)))
        return total

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == pytest.approx(4.0 * 4 * 2)


def test_team_validation():
    def main(ctx):
        if False:
            yield
        try:
            Team(ctx=ctx, group=ctx.group_all, logical_rank=0,
                 rank_map={0: 1})  # binds logical 0 to the wrong physical
        except ValueError:
            return "rejected"

    run = run_gaspi(main, n_ranks=2)
    assert run.result(0) == "rejected"


def test_time_model_charges_virtual_time():
    class FixedModel:
        def spmv_time(self, nnz, rows):
            return 0.25

    gen = Laplacian2D(3, 3)

    def main(ctx):
        team = Team.trivial(ctx)
        dmat = yield from distribute_matrix(team, gen)
        engine = yield from SpMVMEngine.create(team, dmat, time_model=FixedModel())
        t0 = ctx.now
        partition = RowPartition(gen.n_rows, team.n_workers)
        r0, r1 = partition.range_of(ctx.rank)
        yield from engine.multiply(np.ones(r1 - r0))
        return ctx.now - t0

    run = run_gaspi(main, n_ranks=3)
    assert run.result(0) >= 0.25
