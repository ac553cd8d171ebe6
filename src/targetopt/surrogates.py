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
"entropy-mirror" on a softmax-linear model's row-stochastic targets
(elsewhere the KL term is no Bregman proximity of the targets, and the
surrogate neither touches nor bounds the loss). The value is exactly the
frozen batch loss at the anchor.

`build_stochastic` attaches the proximity to a frozen batch,
`build_deterministic` freezes all rows, and `build_analysis_q` scatters a
frozen batch's terms over all rows at weight n/|B| with weights 1/eta
(its expectation over singleton batches is the full-batch surrogate;
diagnostics use it).

Freezing consumes one oracle call per row; building, evaluating or
minimizing a surrogate consumes none.

Reductions go through `np.add.reduce`: on a batch of a few rows numpy's
`np.sum` / `np.mean` wrappers cost more than the sum itself, and the ufunc
computes the same sum in the same order, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, get_args

import numpy as np

from .losses import mean, xlogy
from .models import dense, row_products, spectral_norm

NEWTON_CURVATURE_FLOOR = 1e-8
Variant = Literal["smoothness", "newton", "entropy-mirror"]
VARIANTS = get_args(Variant)


class OracleCounter:
    """Counts coordinate-gradient queries to the loss oracle."""

    def __init__(self):
        self.calls = 0

    def add(self, k: int) -> None:
        self.calls += int(k)


def _trial_sums(terms, z):
    """The sum of one trial's terms, or of each trial's in a stack of them."""
    return np.add.reduce(terms.reshape(terms.shape[:terms.ndim - z.ndim] + (-1,)), axis=-1)


@dataclass(frozen=True)
class SquaredProximity:
    """sum_i w_i/2 ||f_i - z_i||^2, the Euclidean proximity."""

    weights: np.ndarray

    def values(self, fs, z):
        """The value at targets fs, or at each of a stack of them fs[j]."""
        return _trial_sums(0.5 * self.weights * (fs - z) ** 2, z)

    def grad(self, f, z) -> np.ndarray:
        return self.weights * (f - z)


@dataclass(frozen=True)
class KLProximity:
    """sum_i KL(f_i || z_i) / eta for row-stochastic targets (negative
    entropy): its minimizer against a linear term is the normalized
    multiplicative step z * exp(-eta g) / Z."""

    eta: float

    def values(self, fs, z):
        """The value at targets fs, or at each of a stack of them fs[j]."""
        return _trial_sums(xlogy(fs, fs / z), z) / self.eta

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
    """A frozen batch with a per-row proximity D; oracle-free. The value is
    written in `target_values` at one trial's targets or a stack of them (`value`
    is its one-trial case, and the frozen batch loss at the batch's anchor
    array), and for KL line trials in `link_values`."""

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
        """The value at theta. At the batch's own anchor array it is the
        frozen batch loss mean_i c_i, read from `consts`: there the linear
        term is (z - z) g = +-0 and both proximities are exactly 0."""
        batch = self.batch
        if theta is batch.theta:
            return mean(batch.consts)
        return float(self.target_values(self.targets(theta)))

    def target_values(self, fs):
        """The value at targets fs of the batch rows, or at each of a stack
        of them fs[j]. Each sum runs over one trial's contiguous row, so a
        trial's value is the same float stacked or alone (one trial is not
        stacked: on a small batch a broadcast costs more than the sums)."""
        batch = self.batch
        lin = (fs - batch.z) * batch.coeffs
        if batch.z.ndim == 2:  # each row's sum over its K targets
            lin = np.add.reduce(lin, axis=-1)
        means = np.add.reduce(batch.consts + lin, axis=-1) / batch.consts.size
        return means + self.scale * self.prox.values(fs, batch.z)

    def link_values(self, logits):
        """(f, values): targets f = link(L) at a stack of trials' batch logits
        L and each trial's value, summed over its own contiguous row. Under
        the KL proximity that is const + sum f (log f - log p) / (eta b), p
        the mirror step z exp(-eta g) / Z: `target_values` up to round-off."""
        if not isinstance(self.prox, KLProximity):
            f = self.batch.model.link(logits)
            return f, self.target_values(f)
        f, log_f = self.batch.model.link(logits, log=True)
        log_p, const, eta_b = self._mirror_step
        return f, const + _trial_sums(f * (log_f - log_p), log_p) / eta_b

    @cached_property
    def _mirror_step(self):
        """(log p, const, eta b): log p = log z - eta g - log Z per row (a
        max-shifted logsumexp), const = mean_i(c_i - <g_i, z_i> - log Z_i / eta)."""
        batch, eta = self.batch, self.prox.eta
        q = np.log(batch.z) - eta * batch.coeffs
        top = np.maximum.reduce(q, axis=1, keepdims=True)
        log_Z = top + np.log(np.add.reduce(np.exp(q - top), axis=1, keepdims=True))
        const = mean(batch.consts - np.add.reduce(batch.coeffs * batch.z, axis=1) - log_Z[:, 0] / eta)
        return q - log_Z, const, eta * batch.consts.size

    def logit_grad(self, f) -> np.ndarray:
        """Gradient in the batch logits at targets f, for models with a link."""
        batch = self.batch
        return batch.model.link_vjp(f, (batch.coeffs + self.prox.grad(f, batch.z)) * self.scale)

    def grad(self, theta) -> np.ndarray:
        batch = self.batch
        f = self.targets(theta)
        coeffs = batch.coeffs + self.prox.grad(f, batch.z)
        return batch.model.param_grad(theta, batch.rows, coeffs, f) / len(batch.consts)

    # -- structure for solvers (a linear model's proximity is squared) ----

    def _quadratic_weights(self, what: str) -> np.ndarray:
        if self.batch.model.kind != "linear":
            raise ValueError(f"{what} requires a linear model")
        return self.prox.weights

    def line_curvature(self, u) -> float:
        """curv with value(theta - a g) = value(theta) - a ||g||^2 + a^2 curv
        on a linear model, where u = R g moves the targets: sum_i w_i u_i^2 / 2b."""
        return float(np.add.reduce(self.prox.weights * u * u)) * self.scale / 2

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
        batch, s, pull_back = self.batch, self.scale, row_products(self.batch.rows)[1]
        H = s * pull_back(w[:, None] * dense(batch.rows))
        b = s * pull_back(w * batch.z) - pull_back(batch.coeffs) / len(batch.consts)
        return H, b


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
        if batch.model.kind != "softmax-linear":
            raise ValueError(f"entropy-mirror needs a softmax-linear model, not {batch.model.kind!r}")
        if np.any(z <= 0):
            raise ValueError("entropy-mirror surrogate requires strictly positive targets")
        return Surrogate(batch, KLProximity(eta))
    if variant == "smoothness":
        weights = np.full(len(batch.consts), 1.0 / eta)
    else:
        curv = np.asarray(loss.curvs(z, batch.y), dtype=np.float64)
        weights = np.maximum(curv, NEWTON_CURVATURE_FLOOR) / eta
    return Surrogate(batch, SquaredProximity(weights if z.ndim == 1 else weights[:, None]))


def build_deterministic(loss, model, dataset, theta_t, eta: float) -> Surrogate:
    """Full-batch surrogate (one full oracle call, not counted). Upper-bounds
    the loss for eta <= 1/L, L the per-coordinate smoothness constant."""
    return build_stochastic(loss, freeze(loss, model, theta_t, dataset.X, dataset.y), eta)


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
