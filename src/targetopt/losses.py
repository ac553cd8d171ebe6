"""Separable target-space losses.

Every loss here has the form mean_i l_i(z^i): the reported value is
averaged over examples so per-coordinate smoothness constants are
batch-size independent. Per-coordinate value / derivative / curvature
are exposed for surrogate construction.

The logistic sigmoid `expit` and `xlogy` are scipy's special functions of
those names, as formulas on numpy's vectorized exp and log, which round
off differently from libm's by at most an ulp. scipy's special-function
module would cost every cold start about 70 ms and 5.6 MB for the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Literal

import numpy as np

# Just below ln of the largest double (709.7827...): exp up to it is finite.
EXP_MAX = 709.78


def expit(x):
    """The logistic sigmoid 1 / (1 + e^-x), the formula of scipy's expit.

    The exponent is capped at EXP_MAX, so exp cannot overflow: below -EXP_MAX
    the result is at most 5.6e-309 where the exact value (and scipy's)
    underflows to 0. NaN gives NaN.
    """
    return 1.0 / (1.0 + np.exp(np.minimum(-x, EXP_MAX)))


def xlogy(x, y):
    """x log y and exactly 0 wherever x == 0 (y == 0 included), as scipy's
    xlogy. For x != 0 and y <= 0 it is -inf or NaN with numpy's warning, as
    np.log gives; unlike scipy's, x == 0 beside a NaN y gives 0."""
    return x * np.log(np.where(x, y, 1.0))  # log 1 = 0 where x is 0


@dataclass(frozen=True)
class SquaredLoss:
    """l_i(z) = (z - y_i)^2 / 2."""

    kind: ClassVar[str] = "squared"
    L: float = 1.0

    def values(self, z, y):
        return 0.5 * (np.asarray(z) - y) ** 2

    def grads(self, z, y):
        return np.asarray(z) - y

    def curvs(self, z, y):
        return np.ones_like(np.asarray(z, dtype=np.float64))


@dataclass(frozen=True)
class LogisticLoss:
    """l_i(z) = log(1 + exp(-y_i z)), labels in {-1, +1}.

    The analytical per-coordinate smoothness constant is 1/4; pass
    `smoothness` to override (some experimental setups use 2 instead).
    """

    kind: ClassVar[str] = "logistic"
    L: float = 0.25

    def values(self, z, y):
        # The softplus log(1 + e^-s) at the margin s = y z, as
        # log1p(e^-|s|) - min(s, 0), which cannot overflow. It is the formula
        # of np.logaddexp(0, -s) on numpy's vectorized exp and log1p, 1-2 ns
        # an element against logaddexp's 26 ns of scalar libm calls, and
        # agrees with it to an ulp, +-inf and NaN margins included.
        s = y * np.asarray(z)
        return np.log1p(np.exp(-np.abs(s))) - np.minimum(s, 0.0)

    def grads(self, z, y):
        # -y expit(-s) at the margin s = y z, as -y / (1 + e^s) with expit's
        # exponent cap; on numpy's vectorized exp it costs about 4 ns a margin
        # against scipy expit's 12 ns of scalar libm calls.
        s = y * np.asarray(z)
        return -y / (1.0 + np.exp(np.minimum(s, EXP_MAX)))

    def curvs(self, z, y):
        p = expit(y * np.asarray(z))
        return p * (1.0 - p)


def _float_rows(a) -> np.ndarray:
    """a as a 2-D float64 array; np.atleast_2d's call only where it is not."""
    a = np.asarray(a, dtype=np.float64)
    return a if a.ndim == 2 else np.atleast_2d(a)


@dataclass(frozen=True)
class MulticlassKLLoss:
    """Row-wise KL(policy || expert) over probability rows.

    Targets are row-stochastic (n, K) matrices; the label argument is the
    matching matrix of expert rows with strictly positive entries where the
    policy has mass.
    """

    kind: ClassVar[str] = "multiclass-kl"
    L: float = 1.0

    def values(self, z, y):
        z, y = _float_rows(z), _float_rows(y)
        # The full check runs only if some expert entry is <= 0 (fmin skips NaN).
        if np.fmin.reduce(y, axis=None, initial=1.0) <= 0 and ((y <= 0) & (z > 0)).any():
            raise ValueError("infinite loss: expert has zero mass where policy > 0")
        # xlogy(z, z) - xlogy(z, y) with its z != 0 mask formed once. A
        # target line search's trials leave the simplex: a negative entry
        # makes its row NaN, which rejects the trial, without a warning.
        held = z != 0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = z * np.log(np.where(held, z, 1.0)) - z * np.log(np.where(held, y, 1.0))
        return np.add.reduce(terms, axis=1)

    def grads(self, z, y):
        z, y = _float_rows(z), _float_rows(y)
        return np.log(z / y) + 1.0

    def curvs(self, z, y):
        raise NotImplementedError("curvature is not used for the KL loss")


LOSSES = {cls.kind: cls for cls in (SquaredLoss, LogisticLoss, MulticlassKLLoss)}
LossKind = Literal[tuple(LOSSES)]  # the kinds above, for config checks


def make_loss(kind: str, smoothness: float | None = None):
    """The loss of `kind`; `smoothness` overrides the per-coordinate constant."""
    if kind not in LOSSES:
        raise ValueError(f"unknown loss kind {kind!r}")
    return LOSSES[kind]() if smoothness is None else LOSSES[kind](L=float(smoothness))


def mean(x) -> float:
    """np.mean of a float64 array, bit for bit, without its Python wrapper."""
    return float(np.add.reduce(x, axis=None) / x.size)


def loss_value(loss, z, y) -> float:
    """Averaged loss mean_i l_i(z^i); dimensions must agree."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y)
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: {z.shape[0]} targets, {y.shape[0]} labels")
    if z.shape[0] == 0:
        return 0.0
    return mean(loss.values(z, y))


def kl_to_expert(policy, expert) -> float:
    """KL(policy || expert) for two probability rows.

    Raises on an expert zero wherever the policy carries mass (the KL is
    infinite there).
    """
    policy = np.asarray(policy, dtype=np.float64)
    expert = np.asarray(expert, dtype=np.float64)
    return float(MulticlassKLLoss().values(policy[None, :], expert[None, :])[0])


def smoothed_expert_rows(class_ids, n_classes: int, eps: float = 0.05) -> np.ndarray:
    """Strictly positive expert rows from class ids (smoothed one-hots)."""
    ids = np.asarray(class_ids, dtype=int)
    rows = np.full((ids.shape[0], n_classes), eps / max(n_classes - 1, 1))
    rows[np.arange(ids.shape[0]), ids] = 1.0 - eps
    return rows

