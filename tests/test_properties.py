"""Cross-cutting property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import pack_checkpoint, unpack_checkpoint
from repro.ft import ActiveRankMap
from repro.sim import Simulator, Sleep, RngStreams
from repro.solvers import ql_eigenvalues
from repro.spmvm import CSRMatrix
from tests.sim.step_trace import record_steps


# ----------------------------------------------------------------------
# checkpoint container
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    n_arrays=st.integers(0, 5),
    seed=st.integers(0, 2**31),
    dtype=st.sampled_from(["f8", "f4", "i8", "i4", "u1"]),
)
def test_checkpoint_roundtrip_property(n_arrays, seed, dtype):
    rng = np.random.default_rng(seed)
    payload = {}
    for i in range(n_arrays):
        shape = tuple(rng.integers(0, 6, size=rng.integers(1, 3)))
        payload[f"arr{i}"] = (rng.random(shape) * 100).astype(dtype)
    out = unpack_checkpoint(pack_checkpoint(payload))
    assert set(out) == set(payload)
    for key, arr in payload.items():
        assert out[key].dtype == arr.dtype
        assert out[key].shape == arr.shape
        assert np.array_equal(out[key], arr)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), flip=st.integers(0, 10**6))
def test_checkpoint_corruption_always_detected(seed, flip):
    from repro.checkpoint import CheckpointCorrupt

    rng = np.random.default_rng(seed)
    blob = bytearray(pack_checkpoint({"x": rng.random(64)}))
    pos = flip % len(blob)
    bit = 1 << (flip % 8)
    blob[pos] ^= bit
    with pytest.raises(CheckpointCorrupt):
        unpack_checkpoint(bytes(blob))


# ----------------------------------------------------------------------
# rank map under arbitrary recovery sequences
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    n_workers=st.integers(1, 10),
    n_spares=st.integers(1, 6),
    seed=st.integers(0, 2**31),
)
def test_rank_map_recovery_sequence_invariants(n_workers, n_spares, seed):
    rng = np.random.default_rng(seed)
    mapping = ActiveRankMap.initial(n_workers)
    spares = list(range(n_workers, n_workers + n_spares))
    for _ in range(n_spares):
        if not spares:
            break
        k = int(rng.integers(1, min(len(spares), n_workers) + 1))
        failed = list(rng.choice(mapping.physical_ranks(), size=k,
                                 replace=False))
        rescues, spares = spares[:k], spares[k:]
        new = mapping.apply_recovery(failed, rescues)
        # invariants: logical ranks preserved, physicals unique,
        # failed gone, rescues present
        assert sorted(new.logical_to_physical) == list(range(n_workers))
        phys = new.physical_ranks()
        assert len(set(phys)) == n_workers
        assert not set(failed) & set(phys)
        assert set(rescues) <= set(phys)
        # undo really inverts
        assert new.undo_recovery(failed, rescues).logical_to_physical == \
            mapping.logical_to_physical
        mapping = new


# ----------------------------------------------------------------------
# QL vs LAPACK on adversarial tridiagonals
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 2**31),
    zero_every=st.integers(0, 5),
)
def test_ql_with_zero_couplings(n, seed, zero_every):
    """Deflated (block-diagonal) tridiagonals must still be exact."""
    import scipy.linalg as sla

    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    if zero_every:
        e[::zero_every] = 0.0  # split into independent blocks
    ours = ql_eigenvalues(d, e)
    ref = np.sort(sla.eigh_tridiagonal(d, e, eigvals_only=True))
    assert np.allclose(ours, ref, atol=1e-9)


# ----------------------------------------------------------------------
# CSR algebraic properties
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 15), seed=st.integers(0, 2**31))
def test_csr_spmv_linearity(n, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    a = CSRMatrix.from_dense(dense)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    alpha = float(rng.standard_normal())
    lhs = a.spmv(alpha * x + y)
    rhs = alpha * a.spmv(x) + a.spmv(y)
    assert np.allclose(lhs, rhs, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**31))
def test_csr_row_block_partition_reconstructs_spmv(n, seed):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    a = CSRMatrix.from_dense(dense)
    x = rng.standard_normal(n)
    cut = int(rng.integers(0, n + 1))
    stacked = np.concatenate([
        a.row_block(0, cut).spmv(x), a.row_block(cut, n).spmv(x)
    ])
    assert np.allclose(stacked, a.spmv(x))


# ----------------------------------------------------------------------
# DES determinism over random programs
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), n_procs=st.integers(1, 8))
def test_simulator_determinism_property(seed, n_procs):
    def build():
        sim = Simulator()
        trace = record_steps(sim)
        streams = RngStreams(seed)

        def worker(i):
            rng = streams.stream(f"w{i}")
            for _ in range(10):
                yield Sleep(float(rng.random()))

        for i in range(n_procs):
            sim.spawn(worker(i), name=f"w{i}")
        sim.run()
        return trace, sim.now

    t1, now1 = build()
    t2, now2 = build()
    assert t1 == t2
    assert now1 == now2
