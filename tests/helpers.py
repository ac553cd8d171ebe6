"""Shared test helpers."""

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from targetopt.data import Dataset
from targetopt.losses import (
    LogisticLoss,
    MulticlassKLLoss,
    SquaredLoss,
    smoothed_expert_rows,
)
from targetopt.models import LinearModel, MLPModel, SoftmaxLinearModel
from targetopt.surrogates import build_analysis_q, build_stochastic, freeze


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
        "mlp": MLPModel(hidden=3, seed=seed % 7),
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
