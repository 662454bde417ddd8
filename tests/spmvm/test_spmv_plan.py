"""Regression tests for the cached spMVM gather plan.

``spmv`` sits on the per-solver-iteration hot path, so it must not
rebuild its O(nnz) index structures (the old ``np.repeat`` row-of array)
on every call: the plan is built exactly once per matrix and every
subsequent call only gathers/multiplies/reduces into preallocated
scratch.
"""

import numpy as np
import pytest

from repro.spmvm import CSRMatrix
from tests.spmvm import oracles
from tests.spmvm.oracles import from_dense, is_symmetric


def _random_csr(rng, n_rows, n_cols, density=0.3):
    dense = rng.random((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    return from_dense(dense), dense


class TestGatherPlanCaching:
    def test_plan_built_once_across_calls(self):
        rng = np.random.default_rng(7)
        mat, dense = _random_csr(rng, 40, 30)
        x = rng.standard_normal(30)
        assert mat.plan_builds == 0  # lazy: nothing built at construction
        out = np.empty(40)
        for _ in range(5):
            mat.spmv(x, out=out)
            mat.spmv(x)
        assert mat.plan_builds == 1
        np.testing.assert_allclose(out, dense @ x, atol=1e-12)

    def test_no_per_call_index_materialisation(self, monkeypatch):
        """After warm-up, spmv must not call np.repeat (the old O(nnz)
        row-of rebuild) nor build any new index array."""
        rng = np.random.default_rng(8)
        mat, dense = _random_csr(rng, 50, 50)
        x = rng.standard_normal(50)
        out = np.empty(50)
        mat.spmv(x, out=out)  # warm the plan

        calls = []
        real_repeat = np.repeat

        def counting_repeat(*args, **kwargs):
            calls.append(args)
            return real_repeat(*args, **kwargs)

        monkeypatch.setattr(np, "repeat", counting_repeat)
        for _ in range(10):
            mat.spmv(x, out=out)
        assert calls == []
        assert mat.plan_builds == 1
        np.testing.assert_allclose(out, dense @ x, atol=1e-12)

    def test_out_is_written_in_place(self):
        rng = np.random.default_rng(9)
        mat, dense = _random_csr(rng, 25, 25)
        x = rng.standard_normal(25)
        out = np.empty(25)
        result = mat.spmv(x, out=out)
        assert result is out
        np.testing.assert_allclose(out, dense @ x, atol=1e-12)

    def test_out_shape_checked(self):
        mat, _ = _random_csr(np.random.default_rng(0), 10, 10)
        with pytest.raises(ValueError, match="out must have shape"):
            mat.spmv(np.zeros(10), out=np.empty(9))

    def test_empty_rows_and_columns(self):
        # rows 1 and 3 empty (incl. a trailing empty row): the reduceat
        # plan must skip them without corrupting neighbouring segments
        mat = CSRMatrix.from_coo(
            [0, 0, 2], [1, 3, 0], [2.0, 4.0, 8.0], (4, 4)
        )
        x = np.array([1.0, 10.0, 100.0, 1000.0])
        expected = np.array([2.0 * 10 + 4.0 * 1000, 0.0, 8.0, 0.0])
        out = np.full(4, -1.0)
        np.testing.assert_array_equal(mat.spmv(x, out=out), expected)
        np.testing.assert_array_equal(mat.spmv(x), expected)
        assert mat.plan_builds == 1

    def test_all_rows_empty(self):
        mat = CSRMatrix.empty(3, 5)
        out = np.full(3, -1.0)
        np.testing.assert_array_equal(mat.spmv(np.ones(5), out=out),
                                      np.zeros(3))

    def test_ell_plan_for_uniform_rows(self):
        """Near-uniform rows (stencil operators) take the padded-ELL path."""
        rng = np.random.default_rng(11)
        n = 50
        diags = rng.standard_normal((3, n))
        dense = (np.diag(diags[0]) + np.diag(diags[1][:-1], 1)
                 + np.diag(diags[2][:-1], -1))
        mat = from_dense(dense)
        x = rng.standard_normal(n)
        out = np.empty(n)
        mat.spmv(x, out=out)
        assert mat._plan[0] == "ell"
        assert mat.plan_builds == 1
        np.testing.assert_allclose(out, dense @ x, atol=1e-12)
        np.testing.assert_array_equal(mat.spmv(x), out)  # reproducible

    def test_ell_and_csr_paths_agree(self):
        """The plan kind is a perf choice only: both paths match dense."""
        rng = np.random.default_rng(12)
        for density in (0.05, 0.5, 0.95):
            mat, dense = _random_csr(rng, 30, 30, density=density)
            x = rng.standard_normal(30)
            np.testing.assert_allclose(mat.spmv(x), dense @ x, atol=1e-12)

    def test_repeated_calls_bitwise_reproducible(self):
        """Deterministic redo-work relies on spmv being bit-for-bit
        reproducible call-to-call (and close to the reference sum)."""
        rng = np.random.default_rng(10)
        mat, dense = _random_csr(rng, 60, 45, density=0.2)
        x = rng.standard_normal(45)
        first = mat.spmv(x).copy()
        out = np.empty(60)
        for _ in range(5):
            np.testing.assert_array_equal(mat.spmv(x, out=out), first)
        np.testing.assert_allclose(first, dense @ x, atol=1e-12)


class TestIsSymmetricSparse:
    def test_symmetric_and_not(self):
        sym = CSRMatrix.from_coo([0, 1, 0, 1], [1, 0, 0, 1],
                                 [3.0, 3.0, 1.0, 2.0], (2, 2))
        assert is_symmetric(sym)
        asym = CSRMatrix.from_coo([0, 1], [1, 0], [3.0, 4.0], (2, 2))
        assert not is_symmetric(asym)

    def test_pattern_mismatch(self):
        # entry present only on one side of the diagonal
        mat = CSRMatrix.from_coo([0], [1], [1.0], (2, 2))
        assert not is_symmetric(mat)
        assert is_symmetric(mat, tol=2.0)  # within tolerance

    def test_non_square_and_empty(self):
        assert not is_symmetric(CSRMatrix.empty(2, 3))
        assert is_symmetric(CSRMatrix.empty(3, 3))

    def test_no_densify(self, monkeypatch):
        mat = CSRMatrix.from_coo([0, 1], [1, 0], [3.0, 3.0], (2, 2))
        monkeypatch.setattr(
            oracles, "to_dense",
            lambda matrix: pytest.fail("is_symmetric densified the matrix"),
        )
        assert is_symmetric(mat)

    def test_large_sparse_identity_fast(self):
        n = 200_000  # dense comparison would need ~320 GB
        idx = np.arange(n)
        mat = CSRMatrix.from_coo(idx, idx, np.ones(n), (n, n))
        assert is_symmetric(mat)
