"""The spMVM gathers run in ``np.take``'s wrap mode, with no per-call copy.

In its default ``mode="raise"``, ``np.take(..., out=...)`` gathers into a
temporary and copies it into ``out`` on every call.  The kernels gather
in wrap mode instead, which is safe only because every index is checked
once, where the plans are built.  The oracle below is the kernel as it
was: the same plan, gathered in raise mode.  Every product must match it
bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from repro.gaspi import run_gaspi
from repro.spmvm import CSRMatrix, SpMVMEngine, Team, distribute_matrix
from repro.spmvm.comm_setup import SendSpec
from repro.spmvm.matgen import GrapheneSheet, Laplacian2D
from repro.spmvm.partition import RowPartition


def raise_mode_spmv(matrix, x):
    """Oracle: ``matrix @ x`` over the matrix's own plan, every gather in
    ``np.take``'s default raise mode."""
    out = np.zeros(matrix.n_rows)
    if matrix.nnz == 0:
        return out
    plan = matrix._gather_plan()
    if plan[0] == "ell":
        _, cols, vals, _ = plan
        out[:] = np.take(x, cols[0]) * vals[0]
        for c, v in zip(cols[1:], vals[1:]):
            out += np.take(x, c) * v
    else:
        _, reduce_idx, nonempty, _, _ = plan
        sums = np.add.reduceat(np.take(x, matrix.col_idx) * matrix.values,
                               reduce_idx)
        if nonempty is None:
            out[:] = sums
        else:
            out[nonempty] = sums
    return out


def _rows(widths, n_cols=2500, seed=0):
    """A matrix whose row ``r`` holds ``widths[r]`` random entries."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for r, width in enumerate(widths):
        rows += [r] * width
        cols += sorted(rng.choice(n_cols, width, replace=False))
    return CSRMatrix.from_coo(rows, cols, rng.standard_normal(len(rows)),
                              (len(widths), n_cols))


#: (matrix, the plan kind it takes); every case has thousands of rows, so
#: a gather-sized temporary stands out from the interpreter's own bytes
CASES = {
    "ell": (GrapheneSheet(40, 40, disorder=1.0, seed=3).full(), "ell"),
    "ell-empty-rows": (_rows([0 if r % 50 == 7 else 4
                              for r in range(2000)], seed=1), "ell"),
    "csr": (_rows([(1, 3, 9)[r % 3] for r in range(2000)], seed=2), "csr"),
    "csr-empty-rows": (_rows([(0, 2, 7, 0, 1)[r % 5] for r in range(2000)],
                             seed=3), "csr"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_spmv_equals_raise_mode_oracle_bit_for_bit(name):
    matrix, kind = CASES[name]
    x = np.random.default_rng(5).standard_normal(matrix.n_cols)
    got = matrix.spmv(x, out=np.full(matrix.n_rows, np.nan))
    assert matrix._plan[0] == kind
    assert got.tobytes() == raise_mode_spmv(matrix, x).tobytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_spmv_gathers_without_a_temporary(name):
    """After warm-up, a product allocates nothing the size of a gather."""
    matrix, _ = CASES[name]
    x = np.random.default_rng(6).standard_normal(matrix.n_cols)
    out = np.empty(matrix.n_rows)
    matrix.spmv(x, out=out)
    tracemalloc.start()
    try:
        matrix.spmv(x, out=out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * matrix.n_rows


def test_halo_push_equals_raise_mode_oracle_bit_for_bit():
    """Every rank's staged pushes, landed halo and product match raise-mode
    gathers of the same plans."""
    gen = GrapheneSheet(6, 6, disorder=1.0, seed=4)
    n_ranks = 4
    x_global = np.random.default_rng(7).standard_normal(gen.n_rows)
    partition = RowPartition(gen.n_rows, n_ranks)

    def main(ctx):
        team = Team.trivial(ctx)
        dmat = yield from distribute_matrix(team, gen)
        engine = yield from SpMVMEngine.create(team, dmat)
        r0, r1 = partition.range_of(ctx.rank)
        x = x_global[r0:r1].copy()
        y = yield from engine.multiply(x, tag=0)
        yield from team.barrier()  # every halo has landed
        return dmat, x, y.copy(), engine._stage.copy(), engine._x_full.copy()

    run = run_gaspi(main, n_ranks=n_ranks)
    ranks = {r: run.result(r) for r in range(n_ranks)}
    x_full = {r: np.concatenate([x, np.zeros(dmat.halo_size)])
              for r, (dmat, x, *_) in ranks.items()}
    pushes = 0
    for dmat, x, _, stage, _ in ranks.values():
        offset = 0
        for requester in dmat.plan.requesters():
            spec = dmat.plan.send[requester]
            values = np.take(x, spec.local_idx)
            staged = stage[offset : offset + spec.count]
            assert staged.tobytes() == values.tobytes()
            x_full[requester][spec.halo_start :
                              spec.halo_start + spec.count] = values
            offset += spec.count
            pushes += 1
    assert pushes > n_ranks  # the plans do push
    for r, (dmat, _, y, _, landed) in ranks.items():
        assert landed.tobytes() == x_full[r].tobytes()
        assert y.tobytes() == raise_mode_spmv(dmat.local, x_full[r]).tobytes()


@pytest.mark.parametrize("bad", ["past-the-end", "negative"])
def test_out_of_range_send_index_is_rejected_when_the_engine_is_built(bad):
    gen = Laplacian2D(4, 4)

    def main(ctx):
        team = Team.trivial(ctx)
        dmat = yield from distribute_matrix(team, gen)
        requester = dmat.plan.requesters()[0]
        spec = dmat.plan.send[requester]
        idx = spec.local_idx.copy()
        idx[-1] = dmat.n_local if bad == "past-the-end" else -1
        dmat.plan.send[requester] = SendSpec(idx, spec.halo_start)
        try:
            SpMVMEngine(team, dmat)
        except ValueError as err:
            return str(err)
        return None

    run = run_gaspi(main, n_ranks=2)
    for rank in range(2):
        assert "out of range" in run.result(rank)
