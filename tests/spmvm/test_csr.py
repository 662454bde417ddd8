"""Unit + property tests for the CSR implementation (vs SciPy reference)."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spmvm import CSRMatrix
from tests.spmvm.oracles import from_dense, is_symmetric, to_dense


def random_dense(rng, n_rows, n_cols, density=0.3):
    dense = rng.random((n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) > density] = 0.0
    return dense


class TestConstruction:
    def test_from_coo_basic(self):
        a = CSRMatrix.from_coo([0, 1, 1], [1, 0, 2], [5.0, 6.0, 7.0], (2, 3))
        assert a.nnz == 3
        expected = np.array([[0, 5, 0], [6, 0, 7]], dtype=float)
        assert np.array_equal(to_dense(a), expected)

    def test_from_coo_sums_duplicates(self):
        a = CSRMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], (1, 2))
        assert a.nnz == 1
        assert to_dense(a)[0, 1] == 5.0

    def test_from_coo_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([0], [5], [1.0], (1, 2))
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([2], [0], [1.0], (1, 2))

    def test_from_coo_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_coo([0, 1], [0], [1.0], (2, 2))

    def test_from_dense_roundtrip(self):
        rng = np.random.default_rng(0)
        dense = random_dense(rng, 7, 5)
        assert np.array_equal(to_dense(from_dense(dense)), dense)

    def test_empty_matrix(self):
        a = CSRMatrix.empty(3, 4)
        assert a.nnz == 0
        assert np.array_equal(a.spmv(np.ones(4)), np.zeros(3))

    def test_validate_rejects_bad_row_ptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.ones(2))
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, np.array([0, 1]), np.array([0]), np.ones(1))


class TestSpmv:
    def test_matches_dense_small(self):
        rng = np.random.default_rng(1)
        dense = random_dense(rng, 6, 6)
        x = rng.random(6)
        a = from_dense(dense)
        assert np.allclose(a.spmv(x), dense @ x)

    def test_handles_empty_rows_including_last(self):
        dense = np.zeros((4, 4))
        dense[1, 2] = 3.0  # rows 0, 2, 3 empty
        a = from_dense(dense)
        y = a.spmv(np.arange(4.0))
        assert np.array_equal(y, [0.0, 6.0, 0.0, 0.0])

    def test_out_parameter(self):
        a = from_dense(np.eye(3) * 2)
        out = np.zeros(3)
        ret = a.spmv(np.ones(3), out=out)
        assert ret is out
        assert np.array_equal(out, [2, 2, 2])

    def test_shape_mismatch_rejected(self):
        a = CSRMatrix.empty(2, 3)
        with pytest.raises(ValueError):
            a.spmv(np.ones(2))

    @settings(max_examples=40, deadline=None)
    @given(
        n_rows=st.integers(1, 20),
        n_cols=st.integers(1, 20),
        seed=st.integers(0, 2**31),
        density=st.floats(0.0, 1.0),
    )
    def test_property_matches_scipy(self, n_rows, n_cols, seed, density):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, n_rows, n_cols, density)
        x = rng.standard_normal(n_cols)
        ours = from_dense(dense)
        ref = sp.csr_matrix(dense)
        assert np.allclose(ours.spmv(x), ref @ x)


class TestMisc:
    def test_is_symmetric(self):
        sym = from_dense(np.array([[1.0, 2.0], [2.0, 3.0]]))
        asym = from_dense(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert is_symmetric(sym)
        assert not is_symmetric(asym)

    def test_row_nnz(self):
        a = CSRMatrix.from_coo([0, 0, 2], [0, 1, 2], [1, 1, 1], (3, 3))
        assert list(a.row_nnz()) == [2, 0, 1]

    def test_with_columns_relabels(self):
        a = CSRMatrix.from_coo([0, 1], [3, 7], [1.0, 2.0], (2, 8))
        b = a.with_columns(np.array([0, 1]), 2)
        assert b.n_cols == 2
        assert np.array_equal(to_dense(b), [[1.0, 0.0], [0.0, 2.0]])
