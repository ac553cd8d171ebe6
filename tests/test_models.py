import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from helpers import scipy_csr
from targetopt import models
from targetopt.data import SyntheticSpec, generate_synthetic
from targetopt.surrogates import Batch, SquaredProximity, Surrogate
from targetopt.models import (
    LinearModel,
    MLPModel,
    SoftmaxLinearModel,
    row_product,
    row_products,
    row_range,
    spectral_norm,
    take_rows,
)


def csr(X):
    return sp.csr_matrix(np.asarray(X, dtype=np.float64))


def surrogate_grad(model, theta, X, idx, lin_coeffs, quad_weights, anchors):
    """Gradient of mean_i [c_i f_i + (w_i/2)(f_i - z_i)^2] over `idx`.

    The anchors z are not forward(theta), so the batch gets its own anchor
    array: a surrogate handed its batch's `theta` reads the targets from z."""
    idx = np.asarray(idx)
    batch = Batch(
        model=model, theta=np.array(theta), rows=X[idx], y=None, z=anchors,
        consts=np.zeros(len(idx)), coeffs=np.asarray(lin_coeffs),
    )
    surr = Surrogate(batch=batch, prox=SquaredProximity(np.asarray(quad_weights)))
    return surr.grad(theta)


class TestLinearForward:
    def test_dot_product(self):
        model = LinearModel()
        X = csr([[1.0, 2.0]])
        assert model.forward(np.array([3.0, 4.0]), X[[0]])[0] == 11.0

    def test_zero_params(self):
        model = LinearModel()
        X = csr(np.random.default_rng(0).normal(size=(5, 3)))
        np.testing.assert_array_equal(model.forward(np.zeros(3), X), 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        model = LinearModel()
        X = csr(rng.normal(size=(10, 4)))
        t1, t2 = rng.normal(size=4), rng.normal(size=4)
        a, b = 0.3, -1.7
        lhs = model.forward(a * t1 + b * t2, X)
        rhs = a * model.forward(t1, X) + b * model.forward(t2, X)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestSurrogateGrad:
    def test_anchored_minimum_is_zero(self):
        model = LinearModel()
        X = csr([[1.0, -2.0], [0.5, 3.0]])
        theta = np.array([0.7, -0.3])
        anchors = model.forward(theta, X[[0, 1]])
        g = surrogate_grad(
            model, theta, X, [0, 1], np.zeros(2), np.full(2, 2.0), anchors
        )
        np.testing.assert_array_equal(g, 0.0)

    def test_one_dim_closed_form(self):
        # c=-2, w=2, theta = anchor = 0 on X=[1]: gradient is c * x = -2.
        model = LinearModel()
        X = csr([[1.0]])
        g = surrogate_grad(
            model, np.zeros(1), X, [0], np.array([-2.0]), np.array([2.0]), np.zeros(1)
        )
        assert g[0] == pytest.approx(-2.0)

    def test_matches_finite_differences_linear(self):
        rng = np.random.default_rng(2)
        model = LinearModel()
        X = csr(rng.normal(size=(6, 4)))
        theta = rng.normal(size=4)
        c = rng.normal(size=6)
        w = rng.uniform(0.5, 2.0, size=6)
        z = rng.normal(size=6)
        idx = np.arange(6)

        def val(t):
            f = model.forward(t, X[idx])
            return np.mean(c * f + 0.5 * w * (f - z) ** 2)

        g = surrogate_grad(model, theta, X, idx, c, w, z)
        h = 1e-6 * (1 + np.linalg.norm(theta))
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (val(theta + e) - val(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5)


class TestMLP:
    def test_zero_weights_give_zero_output(self):
        model = MLPModel(hidden=4)
        X = csr(np.random.default_rng(3).normal(size=(5, 3)))
        theta = np.zeros(model.dim(3))
        np.testing.assert_array_equal(model.forward(theta, X), 0.0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = MLPModel(hidden=5)
        X = csr(rng.normal(size=(7, 3)))
        theta = model.init_params(3, np.random.default_rng(4))
        idx = np.arange(7)
        c = rng.normal(size=7)
        w = rng.uniform(0.2, 1.5, size=7)
        z = rng.normal(size=7)

        def val(t):
            f = model.forward(t, X[idx])
            return np.mean(c * f + 0.5 * w * (f - z) ** 2)

        g = surrogate_grad(model, theta, X, idx, c, w, z)
        h = 1e-6 * (1 + np.linalg.norm(theta))
        fd = np.empty_like(g)
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            fd[j] = (val(theta + e) - val(theta - e)) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-7)
        assert np.max(np.abs(g - fd) / denom) <= 1e-5

    def test_seeded_init_is_deterministic(self):
        a = MLPModel(hidden=8).init_params(5, np.random.default_rng(9))
        b = MLPModel(hidden=8).init_params(5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)


class TestSoftmaxLinear:
    def test_rows_on_simplex(self):
        rng = np.random.default_rng(5)
        model = SoftmaxLinearModel(3)
        X = csr(rng.normal(size=(6, 4)))
        p = model.forward(rng.normal(size=model.dim(4)), X)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p > 0)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        model = SoftmaxLinearModel(3)
        X = csr(rng.normal(size=(4, 2)))
        theta = rng.normal(size=model.dim(2))
        idx = np.arange(4)
        coeffs = rng.normal(size=(4, 3))

        def val(t):
            return float(np.sum(model.forward(t, X[idx]) * coeffs))

        g = model.param_grad(theta, X[idx], coeffs, model.forward(theta, X[idx]))
        h = 1e-6
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            fd = (val(theta + e) - val(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-4, abs=1e-9)


class TestRowContract:
    """A model maps the rows it is given, so slicing commutes with it."""

    @pytest.mark.parametrize("storage", ["csr", "dense"])
    @pytest.mark.parametrize("kind", ["linear", "softmax", "mlp"])
    @settings(max_examples=20, deadline=None)
    @given(idx=st.lists(st.integers(0, 7), min_size=1, max_size=10), seed=st.integers(0, 2**16))
    def test_sliced_rows_match_all_rows(self, kind, storage, idx, seed):
        rng = np.random.default_rng(seed)
        model = {"linear": LinearModel(), "softmax": SoftmaxLinearModel(3),
                 "mlp": MLPModel(hidden=4)}[kind]
        X = rng.normal(size=(8, 3))
        X = csr(X) if storage == "csr" else X
        idx = np.array(idx + idx[:1])  # at least one repeated index
        theta = rng.normal(size=model.dim(3))
        np.testing.assert_allclose(
            model.forward(theta, X[idx]), model.forward(theta, X)[idx], rtol=1e-12
        )
        c = rng.normal(size=(len(idx), 3) if kind == "softmax" else len(idx))
        scattered = np.zeros((8,) + c.shape[1:])
        np.add.at(scattered, idx, c)
        full = model.param_grad(theta, X, scattered, model.forward(theta, X))
        np.testing.assert_allclose(
            model.param_grad(theta, X[idx], c, model.forward(theta, X[idx])), full, rtol=1e-12,
            atol=1e-12 * np.abs(full).max(),
        )


def csr_with_empty_row():
    """A 6x4 CSR matrix with int32 indices whose row 2 stores no entry."""
    X = np.random.default_rng(0).normal(size=(6, 4))
    X[X < -0.3] = 0.0
    X[2] = 0.0
    R = sp.csr_matrix(X)
    assert R.indptr.dtype == np.int32 and R.indptr[2] == R.indptr[3]
    return R


class TestRowKernels:
    """take_rows and row_product call scipy's compiled CSR kernels directly;
    they must give scipy's own X[idx] and @ bit for bit."""

    @pytest.mark.parametrize("idx", [
        [0, 3, 3, 5, 0],  # repeated rows
        [2],  # a row with no entries
        [2, 2],
        list(range(6)),  # every row
        [],
    ])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_gather_matches_scipy(self, idx, dtype):
        X = csr_with_empty_row()
        idx = np.asarray(idx, dtype=dtype)
        rows, want = take_rows(X, idx), X[idx]
        assert type(rows) is models.CSR and rows.shape == want.shape
        scipy_csr(rows).check_format(full_check=True)
        np.testing.assert_array_equal(rows.indptr, want.indptr)
        np.testing.assert_array_equal(rows.indices, want.indices)
        np.testing.assert_array_equal(rows.data, want.data)
        np.testing.assert_array_equal(rows.toarray(), X.toarray()[idx])

    def test_gather_dense(self):
        X = np.random.default_rng(1).normal(size=(5, 3))
        idx = np.array([4, 0, 4])
        np.testing.assert_array_equal(take_rows(X, idx), X[idx])

    @pytest.mark.parametrize("start, stop", [(0, 6), (1, 4), (2, 3), (3, 3), (5, 6)])
    def test_row_range_is_a_view_of_the_slice(self, start, stop):
        X = csr_with_empty_row()
        X.data.flags.writeable = X.indices.flags.writeable = X.indptr.flags.writeable = False
        rows, want = row_range(X, start, stop), X[start:stop]
        assert type(rows) is models.CSR and rows.shape == want.shape
        for got, ref in ((rows.indptr, want.indptr), (rows.indices, want.indices),
                         (rows.data, want.data)):
            np.testing.assert_array_equal(got, ref)
            assert got.dtype == ref.dtype and not got.flags.writeable
        assert np.shares_memory(rows.data, X.data) or rows.nnz == 0
        scipy_csr(rows).check_format(full_check=True)
        D = X.toarray()
        assert np.shares_memory(row_range(D, start, stop), D) or start == stop
        np.testing.assert_array_equal(row_range(D, start, stop), D[start:stop])

    def test_gather_rejects_rows_outside(self):
        X = csr_with_empty_row()
        for idx in ([6], [-1], [0, 7]):
            with pytest.raises(IndexError):
                take_rows(X, np.array(idx))

    @pytest.mark.parametrize("idx", [[0, 3, 3, 5, 0], [2], list(range(6))])
    @pytest.mark.parametrize("K", [None, 1, 3])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_products_match_scipy(self, idx, K, transpose):
        R = take_rows(csr_with_empty_row(), np.array(idx))
        rng = np.random.default_rng(len(idx))
        n = R.shape[0] if transpose else R.shape[1]
        v = rng.normal(size=n if K is None else (n, K))
        want = scipy_csr(R).T @ v if transpose else scipy_csr(R) @ v
        got = row_product(R, v, transpose=transpose)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(row_products(R)[transpose](v), want)
        dense_got = row_product(R.toarray(), v, transpose=transpose)
        np.testing.assert_allclose(dense_got, want, rtol=1e-14, atol=1e-15)
        np.testing.assert_array_equal(row_products(R.toarray())[transpose](v), dense_got)

    def test_product_rejects_mismatched_operand(self):
        for R in (csr_with_empty_row(), csr_with_empty_row().toarray()):
            times, pull_back = row_products(R)  # each call checks its operand
            for product in (lambda v: row_product(R, v), times):
                with pytest.raises(ValueError):
                    product(np.ones(6))
            for product in (lambda v: row_product(R, v, transpose=True), pull_back):
                with pytest.raises(ValueError):
                    product(np.ones((4, 2)))

    def test_other_sparse_formats_are_refused(self):
        C = csr_with_empty_row().tocsc()
        with pytest.raises(TypeError):
            row_product(C, np.ones(4))
        with pytest.raises(TypeError):
            row_products(C)
        with pytest.raises(TypeError):
            take_rows(C, np.array([0]))


def random_canonical_csr(seed, n=9, d=7):
    """A scipy csr_matrix with sorted columns and no duplicates, holding
    stored +0 and -0, empty rows, and magnitudes near 1e-200 (whose squares
    underflow to 0) and 1e200 (whose squares overflow)."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, d)) * 10.0 ** rng.choice([-200, -100, 0, 100, 200], size=(n, d))
    A[rng.random((n, d)) < 0.15] = 0.0
    A[rng.random((n, d)) < 0.1] = -0.0
    stored = rng.random((n, d)) < 0.5
    stored[rng.random(n) < 0.25] = False  # empty rows
    rows, cols = np.nonzero(stored)
    indptr = np.searchsorted(rows, np.arange(n + 1)).astype(np.int32)
    S = sp.csr_matrix((A[rows, cols], cols.astype(np.int32), indptr), shape=(n, d))
    assert S.has_canonical_format and S.nnz == stored.sum()
    return S


def own(S):
    """A models.CSR over the arrays of the scipy matrix S."""
    return models.CSR(S.data, S.indices, S.indptr, S.shape)


class TestOwnContainer:
    """models.CSR and row_norms2 run scipy's kernels on the four arrays, so
    they give scipy's toarray and multiply(...).sum(axis=1) bit for bit,
    and a scipy csr_matrix takes the same path as a models.CSR."""

    @pytest.mark.parametrize("seed", range(40))
    def test_toarray_and_row_norms2_match_scipy(self, seed):
        S = random_canonical_csr(seed)
        X = own(S)
        assert X.nnz == S.nnz and X.shape == S.shape
        got, want = X.toarray(), S.toarray()
        assert got.dtype == want.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))  # signbits too
        want = np.asarray(S.multiply(S).sum(axis=1)).ravel()
        for norms in (models.row_norms2(X), models.row_norms2(S)):
            assert norms.dtype == want.dtype
            np.testing.assert_array_equal(norms.view(np.int64), want.view(np.int64))

    def test_row_norms2_of_repeated_and_unsorted_columns(self):
        # scipy's multiply sums a row's repeated columns before it squares.
        S = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 0.5, -0.5, 4.0]), np.array([2, 0, 2, 1, 1, 0]),
                           np.array([0, 3, 5, 5, 6])), shape=(4, 3))
        assert not S.has_canonical_format
        want = np.asarray(S.copy().multiply(S.copy()).sum(axis=1)).ravel()
        np.testing.assert_array_equal(models.row_norms2(own(S)), want)
        assert want.tolist() == [20.0, 0.0, 0.0, 16.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_scipy_matrix_takes_the_same_path(self, seed):
        S = random_canonical_csr(seed, n=30, d=12)
        S.data = np.clip(S.data, -1e3, 1e3)  # finite products, so == compares every float
        X = own(S)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 30, size=17)
        rows, ref_rows = take_rows(S, idx), take_rows(X, idx)
        assert type(rows) is models.CSR
        for name in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(rows, name), getattr(ref_rows, name))
        for transpose, size in ((False, 12), (True, 30)):
            for v in (rng.normal(size=size), rng.normal(size=(size, 3))):
                np.testing.assert_array_equal(row_product(S, v, transpose), row_product(X, v, transpose))
        np.testing.assert_array_equal(models.row_norms2(S), models.row_norms2(X))
        assert spectral_norm(S) == spectral_norm(X)
        np.testing.assert_array_equal(models.dense(S), models.dense(X))


class TestLipschitz:
    @pytest.mark.parametrize("shape", [(1, 7), (9, 1), (1, 1)])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_one_row_or_column_matches_power_iteration(self, shape, storage):
        # A zero row and column keep the singular values, and with two rows
        # and two columns spectral_norm runs the power iteration.
        X = np.random.default_rng(sum(shape)).normal(size=shape)
        padded = np.pad(X, ((0, 1), (0, 1)))
        store = csr if storage == "csr" else np.asarray
        got = spectral_norm(store(X))
        assert got == np.linalg.norm(X)
        np.testing.assert_allclose(got, spectral_norm(store(padded)), rtol=1e-12)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_power_iteration_matches_scipy_operators(self, storage, monkeypatch):
        # The iteration forms X^T (X v) with row_product; with scipy's own
        # @ in its place the result must be the same float.
        rng = np.random.default_rng(12)
        X = np.where(rng.random((125, 100)) < 0.2, rng.normal(size=(125, 100)), 0.0)
        X = csr(X) if storage == "csr" else X
        v = rng.normal(size=100)
        np.testing.assert_array_equal(row_product(X, row_product(X, v), transpose=True), X.T @ (X @ v))
        got = spectral_norm(X)
        monkeypatch.setattr(
            models, "row_product", lambda rows, v, transpose=False: rows.T @ v if transpose else rows @ v
        )
        assert got == spectral_norm(X)

    def test_identity(self):
        assert spectral_norm(csr(np.eye(2))) == pytest.approx(1.0)

    def test_one_by_one(self):
        assert spectral_norm(csr([[2.0]])) == pytest.approx(2.0)

    def test_random_matches_svd(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(50, 10))
        sigma = np.linalg.svd(X, compute_uv=False)[0]
        assert spectral_norm(csr(X)) == pytest.approx(sigma, rel=1e-6)

    def test_synthetic_matches_svd(self):
        ds = generate_synthetic(SyntheticSpec("least-squares", n=30, d=6, cond=50, seed=0))
        sigma = np.linalg.svd(np.asarray(ds.X), compute_uv=False)[0]
        assert spectral_norm(ds.X) == pytest.approx(sigma, rel=1e-6)
