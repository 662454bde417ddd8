"""Tests for the QL tridiagonal eigensolver (vs LAPACK reference)."""

import math

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import ql_eigenvalues, lanczos_matrix_eigenvalues
from repro.solvers.tridiag import QLConvergenceError


def reference(diag, off):
    return np.sort(sla.eigh_tridiagonal(diag, off, eigvals_only=True))


def ql_eigenvalues_numpy(diag, offdiag, max_sweeps=64):
    """Oracle: the same ``tql1`` sweep indexing NumPy arrays element-wise
    (every read a NumPy scalar, every operation NumPy scalar arithmetic)."""
    d = np.asarray(diag, dtype=np.float64).copy()
    n = len(d)
    if n == 0:
        return d
    e = np.zeros(n)
    off = np.asarray(offdiag, dtype=np.float64)
    if len(off) not in (max(n - 1, 0), n):
        raise ValueError("offdiag must have n-1 entries")
    e[: n - 1] = off[: n - 1]
    eps = np.finfo(np.float64).eps
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise QLConvergenceError(f"eigenvalue {l} not converged")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            if underflow:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0
    return np.sort(d)


@st.composite
def tridiagonals(draw):
    """``(diag, offdiag)`` pairs: random entries at a random scale, with
    optional runs of zeroed couplings, a tight diagonal cluster and the
    Lanczos trailing-beta form (``offdiag`` of length ``n``)."""
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    if draw(st.booleans()):
        d = 1.0 + rng.standard_normal(n) * 1e-10  # tight cluster
    else:
        d = rng.standard_normal(n)
    d *= scale
    e = rng.standard_normal(max(n - 1, 0)) * scale
    if n > 1 and draw(st.booleans()):
        lo = draw(st.integers(0, n - 2))
        hi = draw(st.integers(lo, n - 1))
        e[lo:hi] = 0.0
    if n and draw(st.booleans()):
        e = np.append(e, rng.standard_normal() * scale)  # trailing beta
    return d, e


@settings(max_examples=200, deadline=None)
@given(tridiagonals())
def test_native_float_sweep_is_bit_identical_to_numpy_scalars(case):
    d, e = case
    ours = ql_eigenvalues(d, e)
    oracle = ql_eigenvalues_numpy(d, e)
    assert ours.dtype == oracle.dtype and ours.shape == oracle.shape
    assert ours.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("solver", [ql_eigenvalues, ql_eigenvalues_numpy])
def test_sweep_budget_exhaustion_raises(solver):
    rng = np.random.default_rng(3)
    with pytest.raises(QLConvergenceError):
        solver(rng.standard_normal(20), rng.standard_normal(19), max_sweeps=1)


def test_single_element():
    assert np.array_equal(ql_eigenvalues(np.array([3.5]), np.array([])), [3.5])


def test_empty():
    assert ql_eigenvalues(np.array([]), np.array([])).size == 0


def test_two_by_two_exact():
    # [[a, b], [b, c]] has eigenvalues (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2)
    d = np.array([1.0, 3.0])
    e = np.array([2.0])
    expected = np.array([2.0 - np.sqrt(5.0), 2.0 + np.sqrt(5.0)])
    assert np.allclose(ql_eigenvalues(d, e), expected)


def test_diagonal_matrix_returns_sorted_diagonal():
    d = np.array([5.0, -1.0, 3.0])
    e = np.zeros(2)
    assert np.allclose(ql_eigenvalues(d, e), [-1.0, 3.0, 5.0])


def test_classic_laplacian_eigenvalues():
    n = 20
    d = np.full(n, 2.0)
    e = np.full(n - 1, -1.0)
    expected = 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert np.allclose(ql_eigenvalues(d, e), np.sort(expected), atol=1e-12)


def test_matches_lapack_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(2, 60)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        assert np.allclose(ql_eigenvalues(d, e), reference(d, e),
                           atol=1e-10), f"n={n}"


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31),
    scale=st.floats(1e-3, 1e3),
)
def test_property_matches_lapack(n, seed, scale):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(n) * scale
    e = rng.standard_normal(max(n - 1, 0)) * scale
    ours = ql_eigenvalues(d, e)
    ref = reference(d, e) if n > 1 else np.array([d[0]])
    assert np.allclose(ours, ref, rtol=1e-9, atol=1e-9 * scale)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(1)
    d = rng.standard_normal(30)
    e = rng.standard_normal(29)
    assert ql_eigenvalues(d, e).sum() == pytest.approx(d.sum(), rel=1e-10)


def test_offdiag_length_validation():
    with pytest.raises(ValueError):
        ql_eigenvalues(np.zeros(4), np.zeros(5))


def test_offdiag_may_include_trailing_recurrence_entry():
    # lanczos convention: beta has one trailing entry (beta_{j+1})
    d = np.array([2.0, 2.0, 2.0])
    beta = np.array([-1.0, -1.0, 0.7])  # trailing entry must be ignored
    out = lanczos_matrix_eigenvalues(d, beta)
    assert np.allclose(out, reference(d, beta[:2]))


def test_tight_cluster_resolved():
    d = np.array([1.0, 1.0 + 1e-10, 1.0 + 2e-10])
    e = np.full(2, 1e-12)
    out = ql_eigenvalues(d, e)
    assert np.allclose(out, reference(d, e), atol=1e-14)
