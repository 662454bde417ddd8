"""Tests for row partitioning and the on-the-fly matrix generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spmvm import CSRMatrix, RowPartition
from repro.spmvm.matgen import (
    GrapheneSheet,
    Laplacian1D,
    Laplacian2D,
    RandomSparse,
    hash_uniform,
)
from tests.spmvm.oracles import (is_symmetric, laplacian2d_eigenvalues,
                                 symmetrized_full, to_dense)


# ----------------------------------------------------------------------
# oracles: the per-row loops the padded-block generators replaced
# ----------------------------------------------------------------------
def graphene_rows_loop(gen, r0, r1):
    """Per-row COO appends: on-site term (if non-zero), then the up to
    three neighbours of each site in cell order."""
    rows, cols, vals = [], [], []
    energies = gen.onsite_energy(np.arange(r0, r1, dtype=np.int64))
    for local, s in enumerate(range(r0, r1)):
        cell, a = divmod(s, 2)
        i, j = divmod(cell, gen.ny)
        if energies[local] != 0.0:
            rows.append(local)
            cols.append(s)
            vals.append(float(energies[local]))
        step, b = (-1, 1) if a == 0 else (1, 0)
        for ci, cj in ((i, j), (i + step, j), (i, j + step)):
            if gen.periodic:
                ci %= gen.nx
                cj %= gen.ny
            elif not (0 <= ci < gen.nx and 0 <= cj < gen.ny):
                continue
            rows.append(local)
            cols.append(gen.site(ci, cj, b))
            vals.append(-gen.t)
    return CSRMatrix.from_coo(rows, cols, vals, (r1 - r0, gen.n_rows),
                              sum_duplicates=True)


def laplacian1d_rows_loop(gen, r0, r1):
    rows, cols, vals = [], [], []
    for local, r in enumerate(range(r0, r1)):
        for c, v in ((r - 1, -1.0), (r, 2.0), (r + 1, -1.0)):
            if 0 <= c < gen.n:
                rows.append(local)
                cols.append(c)
                vals.append(v)
    return CSRMatrix.from_coo(rows, cols, vals, (r1 - r0, gen.n),
                              sum_duplicates=False)


def laplacian2d_rows_loop(gen, r0, r1):
    ny = gen.ny_grid
    rows, cols, vals = [], [], []
    for local, r in enumerate(range(r0, r1)):
        x, y = divmod(r, ny)
        rows.append(local)
        cols.append(r)
        vals.append(4.0)
        for cx, cy in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)):
            if 0 <= cx < gen.nx_grid and 0 <= cy < ny:
                rows.append(local)
                cols.append(cx * ny + cy)
                vals.append(-1.0)
    return CSRMatrix.from_coo(rows, cols, vals, (r1 - r0, gen.n_rows),
                              sum_duplicates=False)


def assert_same_bytes(got, want):
    assert got.shape == want.shape
    for field in ("row_ptr", "col_idx", "values"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@st.composite
def row_ranges(draw, n_rows):
    """``[r0, r1)`` inside ``[0, n_rows]``, empty ranges included."""
    r0 = draw(st.integers(0, n_rows))
    return r0, draw(st.integers(r0, n_rows))


@st.composite
def graphene_blocks(draw):
    periodic = draw(st.booleans())
    lo = 2 if periodic else 1
    gen = GrapheneSheet(
        draw(st.integers(lo, 7)), draw(st.integers(lo, 7)),
        t=draw(st.sampled_from([1.0, 0.5, -2.75, 1e-3])),
        onsite=draw(st.sampled_from([0.0, 0.3, -1.5])),
        disorder=draw(st.sampled_from([0.0, 1.0, 2.5])),
        seed=draw(st.integers(0, 2**16)), periodic=periodic)
    return gen, draw(row_ranges(gen.n_rows))


@settings(max_examples=200, deadline=None)
@given(graphene_blocks())
def test_graphene_block_matches_per_row_loop(case):
    gen, (r0, r1) = case
    assert_same_bytes(gen.generate_rows(r0, r1), graphene_rows_loop(gen, r0, r1))


@pytest.mark.parametrize("nx,ny", [(2, 2), (2, 5), (6, 2)])
def test_graphene_periodic_extent_two_matches_per_row_loop(nx, ny):
    """At the smallest periodic extent a wrapped neighbour cell is also
    the unwrapped one on the other side; every site still keeps its
    on-site term and three distinct couplings."""
    gen = GrapheneSheet(nx, ny, disorder=1.0, seed=3, periodic=True)
    block = gen.generate_rows(0, gen.n_rows)
    assert_same_bytes(block, graphene_rows_loop(gen, 0, gen.n_rows))
    assert np.all(block.row_nnz() == 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), row_ranges(n))))
def test_laplacian1d_block_matches_per_row_loop(case):
    n, (r0, r1) = case
    gen = Laplacian1D(n)
    assert_same_bytes(gen.generate_rows(r0, r1),
                      laplacian1d_rows_loop(gen, r0, r1))


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 9), st.integers(1, 9)).flatmap(
    lambda shape: st.tuples(st.just(shape), row_ranges(shape[0] * shape[1]))))
def test_laplacian2d_block_matches_per_row_loop(case):
    (nx, ny), (r0, r1) = case
    gen = Laplacian2D(nx, ny)
    assert_same_bytes(gen.generate_rows(r0, r1),
                      laplacian2d_rows_loop(gen, r0, r1))


class TestRowPartition:
    def test_balanced_even_split(self):
        p = RowPartition(12, 4)
        assert p.sizes() == [3, 3, 3, 3]
        assert p.range_of(0) == (0, 3)
        assert p.range_of(3) == (9, 12)

    def test_remainder_spread_to_first_parts(self):
        p = RowPartition(10, 4)
        assert p.sizes() == [3, 3, 2, 2]
        assert sum(p.sizes()) == 10

    @settings(max_examples=50, deadline=None)
    @given(n_rows=st.integers(0, 500), n_parts=st.integers(1, 32))
    def test_property_blocks_cover_and_balance(self, n_rows, n_parts):
        p = RowPartition(n_rows, n_parts)
        ranges = [p.range_of(i) for i in range(n_parts)]
        # contiguous cover
        assert ranges[0][0] == 0
        assert ranges[-1][1] == n_rows
        for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
            assert a1 == b0
        # balance within 1
        sizes = p.sizes()
        assert max(sizes) - min(sizes) <= 1

    def test_owner_matches_ranges(self):
        p = RowPartition(10, 3)
        for part in range(3):
            r0, r1 = p.range_of(part)
            assert np.all(p.owner(np.arange(r0, r1)) == part)

    def test_owner_out_of_range_rejected(self):
        p = RowPartition(4, 2)
        with pytest.raises(ValueError):
            p.owner(4)

    def test_to_local(self):
        p = RowPartition(10, 2)
        assert list(p.to_local(1, np.array([5, 9]))) == [0, 4]
        with pytest.raises(ValueError):
            p.to_local(1, np.array([2]))

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            RowPartition(10, 0)
        with pytest.raises(ValueError):
            RowPartition(-1, 2)
        with pytest.raises(ValueError):
            RowPartition(4, 2).range_of(5)


class TestHashUniform:
    def test_deterministic(self):
        idx = np.arange(100)
        assert np.array_equal(hash_uniform(idx, 7), hash_uniform(idx, 7))

    def test_varies_with_seed_and_stream(self):
        idx = np.arange(100)
        a = hash_uniform(idx, 1)
        assert not np.array_equal(a, hash_uniform(idx, 2))
        assert not np.array_equal(a, hash_uniform(idx, 1, stream=1))

    def test_range_and_rough_uniformity(self):
        u = hash_uniform(np.arange(20000), 3)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.01


class TestGenerators:
    @pytest.mark.parametrize("gen", [
        GrapheneSheet(3, 4),
        GrapheneSheet(3, 4, disorder=2.0, seed=5),
        GrapheneSheet(4, 4, periodic=True),
        Laplacian1D(17),
        Laplacian2D(4, 5),
        RandomSparse(30, nnz_per_row=4, seed=2),
    ])
    def test_block_independence(self, gen):
        """Any block decomposition reproduces the same global matrix."""
        full = to_dense(gen.full())
        p = RowPartition(gen.n_rows, 3)
        stacked = np.vstack([
            to_dense(gen.generate_rows(*p.range_of(i))) for i in range(3)
        ])
        assert np.array_equal(full, stacked)

    @pytest.mark.parametrize("gen", [
        GrapheneSheet(3, 3),
        GrapheneSheet(3, 3, disorder=1.0, seed=9),
        GrapheneSheet(4, 4, periodic=True),
        Laplacian1D(10),
        Laplacian2D(3, 4),
    ])
    def test_symmetry(self, gen):
        assert is_symmetric(gen.full())

    def test_graphene_dimensions_and_degree(self):
        gen = GrapheneSheet(4, 5, t=1.0)
        assert gen.n_rows == 40
        full = gen.full()
        # open boundaries: interior sites have 3 neighbours, no onsite term
        # (onsite=0 entries are dropped), so max degree is 3
        assert full.row_nnz().max() == 3
        assert full.row_nnz().min() >= 1

    def test_graphene_periodic_every_site_three_neighbors(self):
        full = GrapheneSheet(3, 3, periodic=True).full()
        assert np.all(full.row_nnz() == 3)

    def test_graphene_spectrum_symmetric_about_zero(self):
        """Bipartite lattice: eigenvalues come in +/- pairs."""
        full = to_dense(GrapheneSheet(3, 3).full())
        eig = np.linalg.eigvalsh(full)
        assert np.allclose(eig, -eig[::-1], atol=1e-10)

    def test_graphene_disorder_changes_diagonal_only(self):
        clean = to_dense(GrapheneSheet(3, 3).full())
        noisy = to_dense(GrapheneSheet(3, 3, disorder=1.0, seed=4).full())
        off_clean = clean - np.diag(np.diag(clean))
        off_noisy = noisy - np.diag(np.diag(noisy))
        assert np.array_equal(off_clean, off_noisy)
        assert np.abs(np.diag(noisy)).max() <= 0.5
        assert np.any(np.diag(noisy) != 0)

    def test_graphene_rejects_bad_lattice(self):
        with pytest.raises(ValueError):
            GrapheneSheet(0, 3)
        with pytest.raises(ValueError):
            GrapheneSheet(1, 1, periodic=True)

    def test_laplacian1d_matches_classic_tridiagonal(self):
        full = to_dense(Laplacian1D(5).full())
        expected = 2 * np.eye(5) - np.eye(5, k=1) - np.eye(5, k=-1)
        assert np.array_equal(full, expected)

    def test_laplacian2d_exact_eigenvalues(self):
        gen = Laplacian2D(4, 3)
        eig = np.linalg.eigvalsh(to_dense(gen.full()))
        assert np.allclose(np.sort(eig), laplacian2d_eigenvalues(gen),
                           atol=1e-10)

    def test_random_sparse_reproducible_and_bounded_degree(self):
        a = RandomSparse(50, nnz_per_row=6, seed=1).full()
        b = RandomSparse(50, nnz_per_row=6, seed=1).full()
        assert np.array_equal(to_dense(a), to_dense(b))
        assert a.row_nnz().max() <= 6  # duplicates may merge, never exceed

    def test_random_sparse_symmetrized_is_symmetric(self):
        sym = symmetrized_full(RandomSparse(20, nnz_per_row=4, seed=3))
        assert is_symmetric(sym)

    def test_random_sparse_diagonal_dominance_option(self):
        a = symmetrized_full(RandomSparse(20, nnz_per_row=3, seed=0,
                                          diagonal=10.0))
        dense = to_dense(a)
        assert np.all(np.linalg.eigvalsh(dense) > 0)  # SPD for CG tests

    def test_generator_bad_range_rejected(self):
        gen = Laplacian1D(10)
        with pytest.raises(ValueError):
            gen.generate_rows(5, 11)
