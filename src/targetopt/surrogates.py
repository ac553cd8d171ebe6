"""Surrogate construction in the target space.

One oracle call on a block of rows is a frozen `Batch`: `freeze` takes
the rows' targets z_i = f_i(theta_t) at the anchor and freezes each
row's loss value c_i and target gradient g_i there. It is the only
function here that pays and counts the oracle. A surrogate is that batch
plus a per-row Bregman proximity D_i:

    value(theta) = mean_i [ c_i + <g_i, f_i(theta) - z_i> + D_i(f_i(theta), z_i) ]

so SSO is projected (mirror) SGD in target space. D is either a weighted
half squared distance w_i/2 ||f_i - z_i||^2 (w = 1/eta for "smoothness",
the floored curvature over eta for "newton") or KL(f_i || z_i)/eta for
"entropy-mirror" on row-stochastic targets. The value is exactly the
frozen batch loss at the anchor.

`build_stochastic` attaches the proximity to a frozen batch,
`build_deterministic` freezes all rows, and `build_analysis_q` scatters a
frozen batch's terms over all rows at weight n/|B| with weights 1/eta
(its expectation over singleton batches is the full-batch surrogate;
diagnostics use it).

Freezing consumes one oracle call per row; building, evaluating or
minimizing a surrogate consumes none.

Reductions go through `np.add.reduce` (and `losses.mean`): on a batch of
a few rows numpy's `np.sum` / `np.mean` wrappers cost more than the sum
itself, and the ufunc computes the same sum in the same order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .losses import mean, xlogy
from .models import spectral_norm

NEWTON_CURVATURE_FLOOR = 1e-8
Variant = Literal["smoothness", "newton", "entropy-mirror"]
VARIANTS = get_args(Variant)


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
        return float(np.add.reduce(0.5 * self.weights * (f - z) ** 2, axis=None))

    def values(self, fs, z) -> np.ndarray:
        """The value at each of a stack of targets fs[j], as `__call__`."""
        terms = 0.5 * self.weights * (fs - z) ** 2
        return np.add.reduce(terms.reshape(len(fs), -1), axis=1)

    def grad(self, f, z) -> np.ndarray:
        return self.weights * (f - z)


@dataclass(frozen=True)
class KLProximity:
    """sum_i KL(f_i || z_i) / eta for row-stochastic targets (negative
    entropy): its minimizer against a linear term is the normalized
    multiplicative step z * exp(-eta g) / Z."""

    eta: float

    def __call__(self, f, z) -> float:
        return float(np.add.reduce(xlogy(f, f / z), axis=None)) / self.eta

    def values(self, fs, z) -> np.ndarray:
        """The value at each of a stack of targets fs[j], as `__call__`."""
        return np.add.reduce(xlogy(fs, fs / z).reshape(len(fs), -1), axis=1) / self.eta

    def grad(self, f, z) -> np.ndarray:
        return (np.log(f / z) + 1.0) / self.eta


@dataclass(frozen=True)
class Batch:
    """One oracle call on a block of rows, frozen at the anchor theta.

    `rows` are the block's rows of X and `y` their labels, `z` their
    anchor targets f_i(theta), and `consts` / `coeffs` the frozen loss
    values l_i(z_i) and target gradients grad l_i(z_i). `rows_norm` is the
    spectral norm of `rows` when the caller has it already (a full batch's
    rows are X at every step), and None otherwise.

    The invariant is z = model.forward(theta, rows): `freeze` and
    `build_analysis_q` compute z so, and `freeze` keeps its own read-only
    copy of theta. A surrogate handed this very `theta` array takes its
    targets from z instead of running the model.
    """

    model: object
    theta: np.ndarray
    rows: object
    y: np.ndarray
    z: np.ndarray
    consts: np.ndarray
    coeffs: np.ndarray
    rows_norm: float | None = None


def freeze(loss, model, theta, rows, y, counter: OracleCounter | None = None,
           rows_norm: float | None = None) -> Batch:
    """Pay the oracle on `rows` at theta: one call per row, counted on
    `counter`. The batch's anchor is a read-only copy of theta, so it
    cannot drift from z. `rows_norm`, if given, is `spectral_norm(rows)`."""
    if rows.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    theta = np.array(theta, dtype=np.float64)
    theta.flags.writeable = False
    z = model.forward(theta, rows)
    consts = np.asarray(loss.values(z, y), dtype=np.float64)
    coeffs = np.asarray(loss.grads(z, y), dtype=np.float64)
    if counter is not None:
        counter.add(rows.shape[0])
    return Batch(model, theta, rows, y, z, consts, coeffs, rows_norm)


@dataclass(frozen=True)
class Surrogate:
    """A frozen batch with a per-row proximity D; oracle-free."""

    batch: Batch
    prox: SquaredProximity | KLProximity

    @property
    def scale(self) -> float:
        return 1.0 / len(self.batch.consts)

    def targets(self, theta) -> np.ndarray:
        """The batch rows' targets at theta: the frozen z at the batch's
        own anchor array, the model's forward pass anywhere else."""
        batch = self.batch
        return batch.z if theta is batch.theta else batch.model.forward(theta, batch.rows)

    def value(self, theta) -> float:
        return self.target_value(self.targets(theta))

    def target_value(self, f) -> float:
        """The value at targets f of the batch rows."""
        batch = self.batch
        prod = (f - batch.z) * batch.coeffs
        lin = prod if prod.ndim == 1 else np.add.reduce(prod, axis=1)
        return mean(batch.consts + lin) + self.scale * self.prox(f, batch.z)

    def target_values(self, fs) -> np.ndarray:
        """`target_value` at each of a stack of targets fs[j], the same
        floats: the elementwise operations are the same, and each sum runs
        over one trial's contiguous row, in the order of the single sum."""
        batch = self.batch
        lin = (fs - batch.z) * batch.coeffs
        if lin.ndim == 3:  # each row sum, as on one trial's (b, K) targets
            lin = np.add.reduce(lin.reshape(-1, lin.shape[-1]), axis=1).reshape(lin.shape[:2])
        means = np.add.reduce(batch.consts + lin, axis=1) / batch.consts.size
        return means + self.scale * self.prox.values(fs, batch.z)

    def logit_grad(self, f) -> np.ndarray:
        """Gradient in the batch logits at targets f, for models with a link."""
        batch = self.batch
        return batch.model.link_vjp(f, (batch.coeffs + self.prox.grad(f, batch.z)) * self.scale)

    def grad(self, theta) -> np.ndarray:
        batch = self.batch
        f = self.targets(theta)
        coeffs = batch.coeffs + self.prox.grad(f, batch.z)
        return batch.model.param_grad(theta, batch.rows, coeffs, f) / len(batch.consts)

    # -- structure for solvers (linear model, Euclidean proximity) ------

    def _quadratic_weights(self, what: str) -> np.ndarray:
        if self.batch.model.kind != "linear":
            raise ValueError(f"{what} requires a linear model")
        if not isinstance(self.prox, SquaredProximity):
            raise ValueError(f"{what} requires a Euclidean (not entropy-mirror) surrogate")
        return self.prox.weights

    def smoothness_bound(self) -> float:
        """Upper bound on the surrogate's curvature."""
        w = self._quadratic_weights("smoothness bound")
        norm = self.batch.rows_norm
        if norm is None:
            norm = spectral_norm(self.batch.rows)
        return float(norm ** 2 * np.maximum.reduce(w, axis=None) * self.scale)

    def quadratic_parts(self):
        """(H, b) with gradient(theta) = H theta - b, for exact solves."""
        w = self._quadratic_weights("closed-form structure")
        batch, R, s = self.batch, self.batch.rows, self.scale
        if isinstance(R, np.ndarray):
            H = s * (R.T @ (w[:, None] * R))
        else:
            H = s * (R.T @ R.multiply(w[:, None]).tocsr()).toarray()
        b = s * np.asarray(R.T @ (w * batch.z)).ravel() - np.asarray(
            R.T @ batch.coeffs
        ).ravel() / len(batch.consts)
        return np.asarray(H), b


def build_stochastic(loss, batch: Batch, eta: float, variant: str = "smoothness") -> Surrogate:
    """Surrogate on a frozen batch: attach the proximity of `variant` at
    step eta. Makes no oracle call.

    The surrogate is the batch mean of per-row terms, and a repeated row
    counts once per draw.
    """
    if not (np.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be positive and finite, got {eta!r}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown surrogate variant {variant!r}")
    z = batch.z
    if variant == "entropy-mirror":
        if np.any(z <= 0):
            raise ValueError("entropy-mirror surrogate requires strictly positive targets")
        return Surrogate(batch, KLProximity(eta))
    if variant == "smoothness":
        weights = np.full(len(batch.consts), 1.0 / eta)
    else:
        curv = np.asarray(loss.curvs(z, batch.y), dtype=np.float64)
        weights = np.maximum(curv, NEWTON_CURVATURE_FLOOR) / eta
    return Surrogate(batch, SquaredProximity(weights if z.ndim == 1 else weights[:, None]))


def build_deterministic(
    loss, model, dataset, theta_t, eta: float, counter: OracleCounter | None = None
) -> Surrogate:
    """Full-batch surrogate (one full oracle call). Upper-bounds the loss
    for eta <= 1/L, L the per-coordinate smoothness constant."""
    batch = freeze(loss, model, theta_t, dataset.X, dataset.y, counter)
    return build_stochastic(loss, batch, eta)


def build_analysis_q(loss, dataset, sampled: Batch, batch_idx, eta: float) -> Surrogate:
    """Analysis surrogate of `sampled`, the frozen rows `batch_idx` of the
    dataset: the batch's linear term, the full-vector regularizer with step
    eta * n. Its expectation over singleton batches equals the full-batch
    surrogate. Makes no oracle call."""
    batch_idx = np.asarray(batch_idx, dtype=int)
    n = dataset.n
    weight = n / len(batch_idx)
    consts = np.zeros(n)
    coeffs = np.zeros((n,) + sampled.coeffs.shape[1:])
    # A batch drawn with replacement can repeat an index.
    np.add.at(consts, batch_idx, weight * sampled.consts)
    np.add.at(coeffs, batch_idx, weight * sampled.coeffs)
    model, theta = sampled.model, sampled.theta
    z = model.forward(theta, dataset.X)
    return build_stochastic(loss, Batch(model, theta, dataset.X, dataset.y, z, consts, coeffs), eta)
