"""Surrogate construction in the target space.

Every surrogate has one shape, a separable term over its own rows. At
the anchor theta_t it slices its rows out of X once, takes their targets
z_i = f_i(theta_t), freezes each row's loss value c_i and target
gradient g_i there, and adds a per-row Bregman proximity D_i:

    value(theta) = mean_i [ c_i + <g_i, f_i(theta) - z_i> + D_i(f_i(theta), z_i) ]

so SSO is projected (mirror) SGD in target space. D is either a weighted
half squared distance w_i/2 ||f_i - z_i||^2 (w = 1/eta for "smoothness",
the floored curvature over eta for "newton") or KL(f_i || z_i)/eta for
"entropy-mirror" on row-stochastic targets. The value is exactly the
frozen batch loss at the anchor.

`build_stochastic` builds it on a sampled batch, `build_deterministic`
on all rows, and `build_analysis_q` on all rows with the batch's frozen
terms scattered at weight n/|B| and weights 1/eta (its expectation over
singleton batches is the full-batch surrogate; diagnostics use it).

Building a surrogate consumes one oracle call per sampled example;
evaluating or minimizing it consumes none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import xlogy

from .losses import effective_labels
from .models import spectral_norm

NEWTON_CURVATURE_FLOOR = 1e-8
VARIANTS = ("smoothness", "newton", "entropy-mirror")


class OracleCounter:
    """Counts coordinate-gradient queries to the loss oracle."""

    def __init__(self):
        self.calls = 0

    def add(self, k: int) -> None:
        self.calls += int(k)


@dataclass(frozen=True)
class SquaredProximity:
    """sum_i w_i/2 ||f_i - z_i||^2, the Euclidean proximity."""

    weights: np.ndarray

    def __call__(self, f, z) -> float:
        return float(np.sum(0.5 * self.weights * (f - z) ** 2))

    def grad(self, f, z) -> np.ndarray:
        return self.weights * (f - z)


@dataclass(frozen=True)
class KLProximity:
    """sum_i KL(f_i || z_i) / eta for row-stochastic targets (negative
    entropy): its minimizer against a linear term is the normalized
    multiplicative step z * exp(-eta g) / Z."""

    eta: float

    def __call__(self, f, z) -> float:
        return float(np.sum(xlogy(f, f / z))) / self.eta

    def grad(self, f, z) -> np.ndarray:
        return (np.log(f / z) + 1.0) / self.eta


@dataclass(frozen=True)
class Surrogate:
    """A built surrogate; immutable and oracle-free once constructed.

    `rows` are the surrogate's rows of X, `z` their anchor targets,
    `consts` and `coeffs` the frozen loss values and target gradients,
    and `prox` the per-row proximity D.
    """

    model: object
    theta_anchor: np.ndarray
    rows: object
    z: np.ndarray
    consts: np.ndarray
    coeffs: np.ndarray
    prox: SquaredProximity | KLProximity

    @property
    def scale(self) -> float:
        return 1.0 / len(self.consts)

    def value(self, theta) -> float:
        f = self.model.forward(theta, self.rows)
        prod = (f - self.z) * self.coeffs
        lin = prod if prod.ndim == 1 else prod.sum(axis=1)
        return float(np.mean(self.consts + lin)) + self.scale * self.prox(f, self.z)

    def grad(self, theta) -> np.ndarray:
        # Two param_grad calls, not one on the summed coefficients: fusing
        # them moves the last bits of every SSO trace.
        f = self.model.forward(theta, self.rows)
        g = self.model.param_grad(theta, self.rows, self.coeffs) / len(self.consts)
        return g + self.scale * self.model.param_grad(theta, self.rows, self.prox.grad(f, self.z))

    # -- structure for solvers (linear model, Euclidean proximity) ------

    def _quadratic_weights(self, what: str) -> np.ndarray:
        if self.model.kind != "linear":
            raise ValueError(f"{what} requires a linear model")
        if not isinstance(self.prox, SquaredProximity):
            raise ValueError(f"{what} requires a Euclidean (not entropy-mirror) surrogate")
        return self.prox.weights

    def smoothness_bound(self) -> float:
        """Upper bound on the surrogate's curvature."""
        w = self._quadratic_weights("smoothness bound")
        return float(spectral_norm(self.rows) ** 2 * np.max(w) * self.scale)

    def quadratic_parts(self):
        """(H, b) with gradient(theta) = H theta - b, for exact solves."""
        w = self._quadratic_weights("closed-form structure")
        R, s = self.rows, self.scale
        if sp.issparse(R):
            H = s * (R.T @ R.multiply(w[:, None]).tocsr()).toarray()
        else:
            H = s * (R.T @ (w[:, None] * R))
        b = s * np.asarray(R.T @ (w * self.z)).ravel() - np.asarray(
            R.T @ self.coeffs
        ).ravel() / len(self.consts)
        return np.asarray(H), b


def _freeze(loss, model, dataset, theta_t, idx, counter):
    """(rows, labels, z, consts, coeffs) of the rows `idx` at theta_t:
    one oracle call per row."""
    rows = dataset.X[idx]
    y = effective_labels(dataset)[idx]
    z = model.forward(theta_t, rows)
    consts = np.asarray(loss.values(z, y), dtype=np.float64)
    coeffs = np.asarray(loss.grads(z, y), dtype=np.float64)
    if counter is not None:
        counter.add(len(idx))
    return rows, y, z, consts, coeffs


def _validated(theta_t, batch_idx, eta):
    if eta <= 0:
        raise ValueError("eta must be positive")
    batch_idx = np.asarray(batch_idx, dtype=int)
    if batch_idx.size == 0:
        raise ValueError("batch must be nonempty")
    return np.asarray(theta_t, dtype=np.float64), batch_idx


def build_stochastic(
    loss,
    model,
    dataset,
    theta_t,
    batch_idx,
    eta: float,
    variant: str = "smoothness",
    counter: OracleCounter | None = None,
) -> Surrogate:
    """Stochastic surrogate on a sampled batch (one oracle call of size b).

    The surrogate is the batch mean of per-example terms, and a repeated
    index counts once per draw.
    """
    theta_t, batch_idx = _validated(theta_t, batch_idx, eta)
    if variant not in VARIANTS:
        raise ValueError(f"unknown surrogate variant {variant!r}")
    rows, y_b, z, consts, coeffs = _freeze(loss, model, dataset, theta_t, batch_idx, counter)
    if variant == "entropy-mirror":
        if np.any(z <= 0):
            raise ValueError("entropy-mirror surrogate requires strictly positive targets")
        prox = KLProximity(eta)
    else:
        if variant == "smoothness":
            weights = np.full(len(batch_idx), 1.0 / eta)
        else:
            curv = np.asarray(loss.curvs(z, y_b), dtype=np.float64)
            weights = np.maximum(curv, NEWTON_CURVATURE_FLOOR) / eta
        prox = SquaredProximity(weights if z.ndim == 1 else weights[:, None])
    return Surrogate(model, theta_t, rows, z, consts, coeffs, prox)


def build_deterministic(
    loss, model, dataset, theta_t, eta: float, counter: OracleCounter | None = None
) -> Surrogate:
    """Full-batch surrogate (one full oracle call). Upper-bounds the loss
    for eta <= 1/L, L the per-coordinate smoothness constant."""
    return build_stochastic(
        loss, model, dataset, theta_t, np.arange(dataset.n), eta, counter=counter
    )


def build_analysis_q(
    loss,
    model,
    dataset,
    theta_t,
    batch_idx,
    eta: float,
    counter: OracleCounter | None = None,
) -> Surrogate:
    """Analysis surrogate: the batch's linear term, the full-vector
    regularizer with step eta * n. Its expectation over singleton batches
    equals the full-batch surrogate."""
    theta_t, batch_idx = _validated(theta_t, batch_idx, eta)
    n = dataset.n
    _, _, _, consts_b, coeffs_b = _freeze(loss, model, dataset, theta_t, batch_idx, counter)
    rows = dataset.X
    z = model.forward(theta_t, rows)
    weight = n / len(batch_idx)
    consts = np.zeros(n)
    coeffs = np.zeros((n,) + coeffs_b.shape[1:])
    # A batch drawn with replacement can repeat an index.
    np.add.at(consts, batch_idx, weight * consts_b)
    np.add.at(coeffs, batch_idx, weight * coeffs_b)
    return Surrogate(
        model, theta_t, rows, z, consts, coeffs, SquaredProximity(np.full(n, 1.0 / eta))
    )
