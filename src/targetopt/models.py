"""Parameterizations mapping parameters to per-example targets.

A model maps the rows it is given: `forward(theta, rows)` returns one
target per row, `param_grad(theta, rows, coeffs, f)` the gradient of a
coefficient-weighted sum of them (the only primitive surrogate
minimization needs) given the caller's targets f = forward(theta, rows),
so no gradient runs the model again; `lipschitz_estimate` bounds the
map's constant.
The optimizers' outer loop hands out a batch's rows, X itself for a full
batch. Linear and softmax-linear targets are link(rows @ W), W = theta,
and these models expose `logits` and the link's vector-Jacobian product
`link_vjp` (softmax-linear also its `link`). MLP gradients are
hand-written reverse accumulation so they can be checked against finite
differences without an autodiff dependency.

Rows are a dense ndarray or a `CSR` matrix, and only this module and `data`
know which. `take_rows` gathers a batch, `row_range` views a run of a
gathered block's rows, `row_entries` bounds a row's stored entries and
`zero_rows` finds the empty rows, `dense` gives rows as an ndarray, and
`row_product` forms `rows @ v` and `rows.T @ v` (`row_products` gives both
as functions of v). Dense rows use
ndarray indexing and `@`; CSR rows go straight to the compiled kernels that
scipy's own `X[idx]`, `@` and `toarray` end in, on the matrix's own arrays,
so the sums are scipy's bit for bit. Storage is told apart by
`isinstance(X, np.ndarray)`, and no run imports scipy.sparse itself. CSR
rows are read only through their arrays and shape, so a scipy
`csr_matrix` takes the same path as a `CSR`.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from functools import partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from inspect import signature
from typing import Literal

import numpy as np

_sparsetools = None  # scipy.sparse._sparsetools, set by the first `_csr_kernels` call
SPECTRAL_TOL = 1e-6
SPECTRAL_MAX_ITER = 100000


class CSR:
    """The one sparse matrix type this package builds: row i stores
    `data[indptr[i]:indptr[i+1]]` in the columns `indices[indptr[i]:indptr[i+1]]`."""

    __slots__ = ("data", "indices", "indptr", "shape")
    format = "csr"

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def toarray(self) -> np.ndarray:
        """X as an ndarray by scipy's `csr_todense`, which adds entries into zeros (-0 reads +0)."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        _csr_kernels(self).csr_todense(*self.shape, self.indptr, self.indices, self.data, out)
        return out


def take_rows(X, idx):
    """X[idx] in X's storage, read-only: an ndarray, or a `CSR` of the rows idx.

    A CSR gather casts idx to X's index dtype, as scipy's own fancy row
    indexing does, and runs scipy's `csr_row_index` on X's arrays.
    """
    if isinstance(X, np.ndarray):
        rows = X[idx]
        rows.flags.writeable = False
        return rows
    kernels = _csr_kernels(X)
    idx = np.asarray(idx, dtype=X.indptr.dtype).ravel()
    if idx.size and idx.min() < 0:
        raise IndexError("row indices must be non-negative")
    indptr = np.zeros(idx.size + 1, dtype=idx.dtype)
    np.cumsum(X.indptr[idx + 1] - X.indptr[idx], out=indptr[1:])  # IndexError past the last row
    indices, data = np.empty(indptr[-1], dtype=idx.dtype), np.empty(indptr[-1], dtype=X.data.dtype)
    kernels.csr_row_index(idx.size, idx, X.indptr, X.indices, X.data, indices, data)
    data.flags.writeable = indices.flags.writeable = indptr.flags.writeable = False
    return CSR(data, indices, indptr, (idx.size, X.shape[1]))


def row_range(rows, start: int, stop: int):
    """rows[start:stop] for 0 <= start <= stop <= rows.shape[0], sharing
    rows' storage: an ndarray slice, or a `CSR` over slices of the CSR
    arrays with its indptr rebased to 0. The rebased indptr is as writeable
    as rows' own."""
    if isinstance(rows, np.ndarray):
        return rows[start:stop]
    _csr_kernels(rows)
    ptr = rows.indptr[start:stop + 1]
    lo, hi = ptr[0], ptr[-1]
    indptr = ptr - lo
    indptr.flags.writeable = rows.indptr.flags.writeable
    return CSR(rows.data[lo:hi], rows.indices[lo:hi], indptr, (stop - start, rows.shape[1]))


def row_entries(X) -> int:
    """The most entries a row of X stores: d if X is dense."""
    return X.shape[1] if isinstance(X, np.ndarray) else int(np.diff(X.indptr).max())


def zero_rows(X) -> np.ndarray:
    """The indices of the rows of X that hold no nonzero entry."""
    if isinstance(X, np.ndarray):
        return np.flatnonzero(~X.any(axis=1))
    held = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))[X.data != 0]
    return np.setdiff1d(np.arange(X.shape[0]), held)


def dense(X) -> np.ndarray:
    """X as an ndarray: X itself if it is one, else its `toarray`."""
    return X if isinstance(X, np.ndarray) else X.toarray()


def row_product(rows, v, transpose: bool = False) -> np.ndarray:
    """rows @ v, or rows.T @ v with `transpose`, for a 1-D or 2-D v.

    CSR rows call scipy's `csr_matvec(s)`, and `csc_matvec(s)` for the
    transpose: the CSR arrays of R are the CSC arrays of R^T.
    """
    if isinstance(rows, np.ndarray):
        return rows.T @ v if transpose else rows @ v
    return _csr_product(*_csr_operands(rows, transpose), v)


def row_products(rows):
    """(v -> rows @ v, v -> rows.T @ v), each `row_product` with the rows'
    storage checked and its kernels chosen once, for a caller that
    multiplies the same rows many times. Every call still checks v."""
    if isinstance(rows, np.ndarray):
        return partial(np.matmul, rows), partial(np.matmul, rows.T)
    return tuple(partial(_csr_product, *_csr_operands(rows, t)) for t in (False, True))


def _csr_operands(rows, transpose: bool):
    k = _csr_kernels(rows)
    m, n = rows.shape[::-1] if transpose else rows.shape
    kernels = (k.csc_matvec, k.csc_matvecs) if transpose else (k.csr_matvec, k.csr_matvecs)
    return m, n, rows.indptr, rows.indices, rows.data, kernels


def _csr_product(m, n, indptr, indices, data, kernels, v) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError(f"cannot multiply {m}x{n} rows by an operand of shape {v.shape}")
    dtype = np.promote_types(data.dtype, v.dtype)
    if v.ndim == 1:
        out = np.zeros(m, dtype=dtype)
        kernels[0](m, n, indptr, indices, data, v, out)
    else:
        out = np.zeros((m, v.shape[1]), dtype=dtype)
        kernels[1](m, n, v.shape[1], indptr, indices, data, v.ravel(), out.ravel())
    return out


def _csr_kernels(X):
    """scipy's compiled sparse kernels, the ones behind its CSR X[idx], @
    and toarray, for CSR rows X; any other storage raises TypeError. The
    first call loads their module from its file, running neither scipy's
    nor scipy.sparse's `__init__`, and drops the sys.modules entry loading
    makes, so that a later `import scipy.sparse` loads it as its own."""
    global _sparsetools
    if X.format != "csr":
        raise TypeError(f"rows must be a dense ndarray or CSR, not {X.format!r}")
    if _sparsetools is None:
        name = "scipy.sparse._sparsetools"
        held = name in sys.modules
        where = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "sparse")
        spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if not held:
            sys.modules.pop(name, None)
        _sparsetools = module
    return _sparsetools


def spectral_norm(X) -> float:
    """Largest singular value of X by power iteration on X^T X; for one
    row or one column, its Euclidean norm.

    Stops when the geometric-tail estimate of the remaining error drops
    below the relative SPECTRAL_TOL (successive increments shrink with
    ratio (s2/s1)^2; the tail is extrapolated from the last two increments).
    """
    n, d = X.shape
    if n == 0 or d == 0:
        return 0.0
    if min(n, d) == 1:  # one row or one column: its Euclidean norm
        return float(np.linalg.norm(dense(X)))
    rng = np.random.default_rng(0)
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    sigma = 0.0
    prev_diff = np.inf
    for _ in range(SPECTRAL_MAX_ITER):
        w = row_product(X, row_product(X, v), transpose=True)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        new_sigma = np.sqrt(norm)
        v = w / norm
        diff = abs(new_sigma - sigma)
        if diff == 0.0:
            return float(new_sigma)
        if np.isfinite(prev_diff) and prev_diff > 0:
            ratio = diff / prev_diff
            tail = diff * ratio / (1.0 - ratio) if ratio < 1 else np.inf
            if diff + tail <= SPECTRAL_TOL * new_sigma:
                return float(new_sigma)
        prev_diff = diff
        sigma = new_sigma
    return float(sigma)


def row_norms2(X) -> np.ndarray:
    """Squared Euclidean norm of each row of a CSR or dense X. For CSR, the
    floats of scipy's `X.multiply(X).sum(axis=1)`: its `csr_elmul_csr`,
    which keeps the nonzero products, and one `reduceat` over the rows."""
    if isinstance(X, np.ndarray):
        return (X * X).sum(axis=1)
    indptr = np.empty_like(X.indptr)  # X times X has at most X's entries
    indices, data = np.empty_like(X.indices[:X.nnz]), np.empty_like(X.data[:X.nnz])
    _csr_kernels(X).csr_elmul_csr(*X.shape, *(X.indptr, X.indices, X.data) * 2, indptr, indices, data)
    kept = np.flatnonzero(np.diff(indptr))
    out = np.zeros(X.shape[0], dtype=data.dtype)
    out[kept] = np.add.reduceat(data[:indptr[-1]], indptr[kept])
    return out


class LinearModel:
    """f_i(theta) = <X_i, theta>; scalar target per example."""

    kind = "linear"

    def init_params(self, d: int, rng) -> np.ndarray:
        return np.zeros(d)

    def dim(self, d: int) -> int:
        return d

    def logits(self, theta, rows) -> np.ndarray:
        return row_product(rows, theta)

    forward = logits  # the identity link

    def link_vjp(self, f, coeffs) -> np.ndarray:
        return coeffs

    def param_grad(self, theta, rows, coeffs, f) -> np.ndarray:
        """Gradient of sum_i coeffs_i * f_i(theta); f is not needed."""
        return row_product(rows, coeffs, transpose=True)


class SoftmaxLinearModel:
    """f_i(theta) = softmax(W^T X_i); row-stochastic targets, theta = vec(W)."""

    kind = "softmax-linear"

    def __init__(self, n_classes: int):
        if n_classes < 2:
            raise ValueError("softmax model needs at least 2 classes")
        self.arity = n_classes

    def init_params(self, d: int, rng) -> np.ndarray:
        return np.zeros(d * self.arity)

    def dim(self, d: int) -> int:
        return d * self.arity

    def logits(self, theta, rows) -> np.ndarray:
        return row_product(rows, np.asarray(theta).reshape(rows.shape[1], self.arity))

    def link(self, logits, log: bool = False):
        """The softmax of each row of logits (or of a stack of them); with
        `log` also its log, the shifted logits minus each row sum's log."""
        # Each row's max as elementwise maxima of the columns: the floats of
        # np.maximum.reduce over the last axis (a max does not round), several
        # times faster on a trial block's rows and no slower on a batch's.
        top = logits[..., 0]
        for j in range(1, logits.shape[-1]):
            top = np.maximum(top, logits[..., j])
        shifted = logits - top[..., None]
        e = np.exp(shifted)
        sums = np.add.reduce(e, axis=-1, keepdims=True)
        return (e / sums, shifted - np.log(sums)) if log else e / sums

    def link_vjp(self, f, coeffs) -> np.ndarray:
        """The softmax Jacobian at targets f applied to each coefficient row."""
        if coeffs.ndim != 2:
            coeffs = np.atleast_2d(coeffs)
        return f * (coeffs - np.add.reduce(f * coeffs, axis=1, keepdims=True))

    def forward(self, theta, rows) -> np.ndarray:
        return self.link(self.logits(theta, rows))

    def param_grad(self, theta, rows, coeffs, f) -> np.ndarray:
        """Gradient of sum_i <coeffs_i, f_i(theta)> with (m, K) coeffs,
        pulled back through the targets f = forward(theta, rows)."""
        v = self.link_vjp(f, coeffs)
        return row_product(rows, v, transpose=True).ravel()


class MLPModel:
    """Two-layer ReLU network with a scalar output per example.

    Parameters are flattened [W1 (d x h), b1 (h), w2 (h), b2 (1)], each
    drawn uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) from the generator that
    `init_params` is given.
    """

    kind = "mlp"

    def __init__(self, hidden: int):
        if hidden < 1:
            raise ValueError("hidden width must be >= 1")
        self.hidden = hidden

    def dim(self, d: int) -> int:
        return d * self.hidden + self.hidden + self.hidden + 1

    def init_params(self, d: int, rng) -> np.ndarray:
        h, b1, b2 = self.hidden, 1.0 / np.sqrt(d), 1.0 / np.sqrt(self.hidden)
        return np.concatenate([rng.uniform(-b1, b1, size=d * h + h),
                               rng.uniform(-b2, b2, size=h + 1)])

    def _unpack(self, theta, d):
        h = self.hidden
        theta = np.asarray(theta)
        W1 = theta[: d * h].reshape(d, h)
        b1 = theta[d * h : d * h + h]
        w2 = theta[d * h + h : d * h + 2 * h]
        b2 = theta[-1]
        return W1, b1, w2, b2

    def forward(self, theta, rows) -> np.ndarray:
        W1, b1, w2, b2 = self._unpack(theta, rows.shape[1])
        a = np.maximum(row_product(rows, W1) + b1, 0.0)
        return a @ w2 + b2

    def param_grad(self, theta, rows, coeffs, f) -> np.ndarray:
        """f is not needed: the gradient reads the hidden layer, which the
        targets do not carry."""
        W1, b1, w2, b2 = self._unpack(theta, rows.shape[1])
        pre = row_product(rows, W1) + b1
        a = np.maximum(pre, 0.0)
        mask = (pre > 0).astype(np.float64)
        coeffs = np.asarray(coeffs)
        # Reverse accumulation of sum_i coeffs_i * f_i.
        g_w2 = a.T @ coeffs
        g_b2 = coeffs.sum()
        back = (coeffs[:, None] * w2[None, :]) * mask
        g_W1 = row_product(rows, back, transpose=True)
        g_b1 = back.sum(axis=0)
        return np.concatenate([g_W1.ravel(), g_b1, g_w2, [g_b2]])

    def param_jacobian(self, theta, rows) -> np.ndarray:
        """Dense Jacobian of the targets with respect to the parameters."""
        rows = dense(rows)
        W1, b1, w2, b2 = self._unpack(theta, rows.shape[1])
        pre = rows @ W1 + b1
        a = np.maximum(pre, 0.0)
        mask = (pre > 0).astype(np.float64)
        back = mask * w2[None, :]  # d f_i / d pre_ik
        m, d = rows.shape
        jac_W1 = rows[:, :, None] * back[:, None, :]  # (m, d, h)
        return np.concatenate(
            [jac_W1.reshape(m, d * self.hidden), back, a, np.ones((m, 1))], axis=1
        )


MODELS = {cls.kind: cls for cls in (LinearModel, SoftmaxLinearModel, MLPModel)}
ModelKind = Literal[tuple(MODELS)]  # the kinds above, for config checks


def make_model(kind: str, hidden: int = 16, n_classes: int = 0):
    """The model of `kind`, given the settings its constructor takes:
    `hidden`, the MLP's width, and `n_classes`, softmax-linear's classes."""
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    settings = {"hidden": hidden, "n_classes": n_classes}
    return MODELS[kind](**{name: settings[name] for name in signature(MODELS[kind]).parameters})


def lipschitz_estimate(model, X, theta=None) -> float:
    """Lipschitz constant of the target map: the spectral norm of X for link
    models (exact for linear, a bound for softmax-linear, softmax being
    1-Lipschitz); for the MLP that of the parameter Jacobian at `theta`,
    which it needs and which bounds nearby slopes only."""
    if model.kind != "mlp":
        return spectral_norm(X)
    if theta is None:
        raise ValueError("the MLP's Lipschitz estimate needs theta")
    return spectral_norm(model.param_jacobian(theta, X))
