"""Shared test helpers."""

import io

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from targetopt.data import Dataset, ParseError
from targetopt.losses import (
    LogisticLoss,
    MulticlassKLLoss,
    SquaredLoss,
    smoothed_expert_rows,
)
from targetopt.models import CSR, LinearModel, MLPModel, SoftmaxLinearModel
from targetopt.surrogates import build_analysis_q, build_stochastic, freeze


def scipy_csr(X):
    """A scipy csr_matrix over the arrays of the `CSR` X, for comparisons
    with scipy's own sparse operators."""
    return sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def datasets_equal(a, b) -> bool:
    """The same task, labels and entries in either storage; -0 equals +0,
    and a NaN entry equals nothing."""
    return (
        a.task == b.task
        and a.X.shape == b.X.shape
        and a.n_classes == b.n_classes
        and a.label_map == b.label_map
        and np.array_equal(a.y, b.y)
        and all(map(np.array_equal, _nonzeros(a.X), _nonzeros(b.X)))
    )


def _nonzeros(X):
    """(rows, columns, values) of X's nonzero entries in row-major order
    (a CSR X's rows list their columns in increasing order, as parsed ones do)."""
    if isinstance(X, np.ndarray):
        rows, cols = np.nonzero(X)
        return rows, cols, X[rows, cols]
    keep = X.data != 0
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    return rows[keep], X.indices[keep], X.data[keep]


def trace_losses(trace) -> np.ndarray:
    """The loss column of a run trace."""
    return np.array([r.loss for r in trace.rows])


def stochastic(loss, model, ds, theta_t, idx, eta, variant="smoothness", counter=None):
    """The stochastic surrogate on the rows `idx` of `ds`, frozen at theta_t."""
    idx = np.asarray(idx, dtype=int)
    batch = freeze(loss, model, theta_t, ds.X[idx], ds.y[idx], counter)
    return build_stochastic(loss, batch, eta, variant)


def analysis_q(loss, model, ds, theta_t, idx, eta):
    """The analysis surrogate of the rows `idx` of `ds`, frozen at theta_t."""
    idx = np.asarray(idx, dtype=int)
    batch = freeze(loss, model, theta_t, ds.X[idx], ds.y[idx])
    return build_analysis_q(loss, ds, batch, idx, eta)


# (variant, model, loss) triples the builders accept: the entropy map
# needs row-stochastic targets, and the KL loss has no curvature.
CASES = [
    ("smoothness", "linear", "squared"),
    ("smoothness", "linear", "logistic"),
    ("smoothness", "mlp", "squared"),
    ("smoothness", "mlp", "logistic"),
    ("smoothness", "softmax", "kl"),
    ("newton", "linear", "squared"),
    ("newton", "linear", "logistic"),
    ("newton", "mlp", "logistic"),
    ("entropy-mirror", "softmax", "kl"),
]
K = 3


class CountingLoss:
    """Wraps a loss and counts every call to its oracle methods."""

    def __init__(self, loss):
        self.loss, self.calls = loss, 0

    def values(self, z, y):
        self.calls += 1
        return self.loss.values(z, y)

    def grads(self, z, y):
        self.calls += 1
        return self.loss.grads(z, y)

    def curvs(self, z, y):
        self.calls += 1
        return self.loss.curvs(z, y)


def make_problem(case, n, d, seed, dense, eye=False):
    variant, model_kind, loss_kind = case
    rng = np.random.default_rng(seed)
    X = np.eye(n) if eye else rng.normal(size=(n, d))
    if loss_kind == "squared":
        y, task, loss = rng.normal(size=n), "regression", SquaredLoss()
    elif loss_kind == "logistic":
        y, task, loss = rng.choice([-1.0, 1.0], size=n), "binary", LogisticLoss()
    else:
        y = smoothed_expert_rows(rng.integers(0, K, n), K, eps=0.1)
        task, loss = "multiclass", MulticlassKLLoss()
    ds = Dataset(X=X if dense else sp.csr_matrix(X), y=y, task=task, n_classes=K)
    model = {
        "linear": LinearModel(),
        "mlp": MLPModel(hidden=3),
        "softmax": SoftmaxLinearModel(K),
    }[model_kind]
    theta_t = 0.5 * rng.normal(size=model.dim(d))
    return variant, ds, model, loss, theta_t, rng


@st.composite
def problems(draw, cases=CASES, eye=False):
    """(problem, batch, eta); `eye` makes X the n x n identity."""
    n = draw(st.integers(2, 6))
    return (
        make_problem(
            draw(st.sampled_from(cases)),
            n,
            n if eye else draw(st.integers(1, 4)),
            draw(st.integers(0, 2**32 - 1)),
            draw(st.booleans()),
            eye,
        ),
        np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))),
        draw(st.floats(0.05, 2.0)),
    )


def reference_parse_libsvm(text, task="regression", d=None, allow_binary_remap=False):
    """A line-by-line, token-by-token LibSVM parser: the reference that
    `data.parse_libsvm` must match on finite input. It differs from it
    where the grammar was narrowed (Unicode whitespace, digits and line
    breaks, `int()` spellings of an index such as "1_0"), on non-finite
    numbers, which it accepts, and on the line a bad binary label is
    reported at, which counts data rows rather than file lines."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        lines = text.splitlines()
    elif isinstance(text, io.IOBase):
        raw = text.read()
        lines = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).splitlines()
    else:
        lines = [line.rstrip("\n") for line in text]
    labels, indptr, indices, values = [], [0], [], []
    max_index = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"bad label token {tokens[0]!r}") from None
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise ParseError(lineno, f"bad feature token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(lineno, f"bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(lineno, f"feature index {idx} < 1")
            if idx <= prev_idx:
                raise ParseError(lineno, f"feature index {idx} not strictly increasing")
            prev_idx = idx
            indices.append(idx - 1)
            values.append(val)
        max_index = max(max_index, prev_idx)
        labels.append(label)
        indptr.append(len(indices))

    if d is None:
        d = max_index
    elif d < max_index:
        raise ValueError(f"d override {d} smaller than max feature index {max_index}")
    n = len(labels)
    X = sp.csr_matrix((np.asarray(values, dtype=np.float64), indices, indptr), shape=(n, d))
    X = X.toarray() if 0 < X.nnz == n * d else CSR(X.data, X.indices, X.indptr, X.shape)
    y = np.asarray(labels, dtype=np.float64)
    n_classes, label_map = 0, ()
    if task == "binary" and n:
        distinct = set(y.tolist())
        if not distinct <= {-1.0, 1.0}:
            if allow_binary_remap and len(distinct) == 2:
                lo, hi = sorted(distinct)
                y = np.where(y == lo, 1.0, -1.0)
            else:
                bad = next(iter(distinct - {-1.0, 1.0}))
                lineno = int(np.argmax(np.asarray(labels) == bad)) + 1
                raise ParseError(lineno, f"binary label {bad} not in {{-1, +1}}")
    elif task == "multiclass":
        seen = {}
        ids = np.empty(n, dtype=np.float64)
        for i, lab in enumerate(y):
            if lab not in seen:
                seen[lab] = len(seen)
            ids[i] = seen[lab]
        y, n_classes, label_map = ids, len(seen), tuple(seen)
    ds = Dataset(X=X, y=y, task=task, n_classes=n_classes, label_map=label_map)
    ds.validate()
    return ds
