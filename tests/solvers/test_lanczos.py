"""Tests for sequential and distributed Lanczos."""

import numpy as np
import pytest

from repro.checkpoint import pack_checkpoint, unpack_checkpoint
from repro.gaspi import run_gaspi
from repro.solvers import (
    DistributedLanczos,
    LanczosState,
    lanczos_sequential,
)
from repro.solvers.lanczos import starting_vector
from repro.solvers.tridiag import lanczos_matrix_eigenvalues
from repro.spmvm import SpMVMEngine, Team, distribute_matrix
from repro.spmvm.matgen import GrapheneSheet, Laplacian2D, RandomSparse


class TestSequentialLanczos:
    def test_min_eigenvalue_converges_laplacian(self):
        gen = Laplacian2D(6, 6)
        alphas, betas = lanczos_sequential(gen.full(), 36)
        est = lanczos_matrix_eigenvalues(alphas, betas)
        exact = gen.exact_eigenvalues()
        assert est[0] == pytest.approx(exact[0], abs=1e-8)

    def test_min_eigenvalue_converges_graphene(self):
        gen = GrapheneSheet(4, 4, disorder=0.5, seed=3)
        full = gen.full()
        alphas, betas = lanczos_sequential(full, full.n_rows)
        est = lanczos_matrix_eigenvalues(alphas, betas)
        exact = np.linalg.eigvalsh(full.to_dense())
        assert est[0] == pytest.approx(exact[0], abs=1e-7)

    def test_breakdown_on_exact_invariant_subspace(self):
        # identity: Krylov space is 1-dimensional -> immediate breakdown
        from repro.spmvm import CSRMatrix
        eye = CSRMatrix.from_dense(np.eye(8))
        alphas, betas = lanczos_sequential(eye, 10)
        assert len(alphas) == 1
        assert alphas[0] == pytest.approx(1.0)
        assert betas[0] == pytest.approx(0.0, abs=1e-12)

    def test_starting_vector_decomposition_independent(self):
        whole = starting_vector(10)
        parts = np.concatenate([starting_vector(4, 0), starting_vector(6, 4)])
        assert np.array_equal(whole, parts)


def run_distributed_lanczos(gen, n_ranks, n_steps):
    def main(ctx):
        team = Team.trivial(ctx)
        dmat = yield from distribute_matrix(team, gen)
        engine = yield from SpMVMEngine.create(team, dmat)
        solver = DistributedLanczos(team, engine)
        state = yield from solver.run(n_steps)
        return state

    run = run_gaspi(main, n_ranks=n_ranks)
    return [run.result(r) for r in range(n_ranks)]


class TestDistributedLanczos:
    def test_matches_sequential_coefficients(self):
        gen = Laplacian2D(5, 4)
        n_steps = 12
        states = run_distributed_lanczos(gen, 4, n_steps)
        a_seq, b_seq = lanczos_sequential(gen.full(), n_steps)
        for state in states:
            assert np.allclose(state.alpha, a_seq, atol=1e-10)
            assert np.allclose(state.beta, b_seq, atol=1e-10)

    def test_min_eigenvalue_matches_dense(self):
        gen = GrapheneSheet(3, 4, disorder=1.0, seed=1)
        states = run_distributed_lanczos(gen, 3, gen.n_rows)
        exact = np.linalg.eigvalsh(gen.full().to_dense())
        assert states[0].min_eigenvalue() == pytest.approx(exact[0], abs=1e-7)

    def test_all_ranks_agree_on_coefficients(self):
        gen = RandomSparse(24, nnz_per_row=4, seed=8, diagonal=6.0)
        sym = gen.symmetrized_full()

        class FullGen:
            n_rows = sym.n_rows
            def generate_rows(self, r0, r1):
                return sym.row_block(r0, r1)

        states = run_distributed_lanczos(FullGen(), 4, 10)
        for state in states[1:]:
            assert np.allclose(state.alpha, states[0].alpha)
            assert np.allclose(state.beta, states[0].beta)


class TestLanczosState:
    def test_payload_roundtrip_through_checkpoint(self):
        state = LanczosState(
            v_prev=np.arange(4.0),
            v_cur=np.arange(4.0) + 10,
            alpha=[1.0, 2.0],
            beta=[0.5, 0.25],
        )
        restored = LanczosState.from_payload(
            unpack_checkpoint(pack_checkpoint(state.to_payload()))
        )
        assert np.array_equal(restored.v_prev, state.v_prev)
        assert np.array_equal(restored.v_cur, state.v_cur)
        assert restored.alpha == state.alpha
        assert restored.beta == state.beta
        assert restored.step == 2

    def test_resume_from_state_continues_exactly(self):
        """Restart mid-run from a payload and get identical coefficients."""
        # asymmetric grid: no eigenvalue degeneracy, so no breakdown within
        # the first 10 steps (a 4x4 grid breaks down at ~step 9)
        gen = Laplacian2D(4, 5)

        def main(ctx):
            team = Team.trivial(ctx)
            dmat = yield from distribute_matrix(team, gen)
            engine = yield from SpMVMEngine.create(team, dmat)
            solver = DistributedLanczos(team, engine)
            for _ in range(5):
                yield from solver.step()
            payload = solver.state.to_payload()
            # restore into a fresh solver (as a rescue process would)
            restored = LanczosState.from_payload(
                unpack_checkpoint(pack_checkpoint(payload))
            )
            solver2 = DistributedLanczos(team, engine, state=restored)
            for _ in range(5):
                yield from solver2.step()
            return solver2.state

        run = run_gaspi(main, n_ranks=2)
        a_seq, b_seq = lanczos_sequential(gen.full(), 10)
        assert np.allclose(run.result(0).alpha, a_seq, atol=1e-10)
        assert np.allclose(run.result(0).beta, b_seq, atol=1e-10)

    def test_min_eigenvalue_nan_before_first_step(self):
        state = LanczosState(v_prev=np.zeros(2), v_cur=np.ones(2))
        assert np.isnan(state.min_eigenvalue())
