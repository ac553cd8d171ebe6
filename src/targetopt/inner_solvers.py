"""Deterministic minimization of a built surrogate.

Inner solvers never touch the loss oracle: they work on the frozen
surrogate only. `gd_fixed` runs m fixed-step gradient steps (step 1/beta
by default, beta the surrogate smoothness bound), `armijo_backtracking`
searches each step with `backtrack`, the sufficient-decrease search that
the target line search and SLS share (its trials move the batch logits,
not theta, on linear and softmax-linear models), and `exact_linear_solve`
solves the quadratic surrogate of a linear model in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .models import row_product
from .surrogates import SquaredProximity

BACKTRACK_FLOOR = 1e-12
LINK_MODELS = ("linear", "softmax-linear")


class DivergenceError(RuntimeError):
    """Non-finite gradient during inner iteration; names the step."""

    def __init__(self, step: int):
        super().__init__(f"non-finite surrogate gradient at inner step {step}")
        self.step = step


def backtrack(value_at, base, slope, alpha0, shrink, c):
    """(a, value_at(a), False) for the first a in alpha0 * shrink^k with
    value_at(a) <= base - c a slope; (a, None, True) once a < BACKTRACK_FLOOR."""
    alpha = alpha0
    while alpha >= BACKTRACK_FLOOR:
        if (value := value_at(alpha)) <= base - c * alpha * slope:
            return alpha, value, False
        alpha *= shrink
    return alpha, None, True


@dataclass
class InnerResult:
    theta: np.ndarray
    inner_steps: int
    stalled: bool = False
    last_alpha: float | None = None


def gd_fixed(surrogate, omega0, m: int, alpha: float | None = None) -> InnerResult:
    """m steps of fixed-step gradient descent on the surrogate.

    With alpha = 1/beta (the default, beta from `smoothness_bound`) the
    surrogate value is non-increasing at every step.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if alpha is None:
        alpha = 1.0 / surrogate.smoothness_bound()
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    omega = np.asarray(omega0, dtype=np.float64).copy()
    for k in range(m):
        g = surrogate.grad(omega)
        if not np.all(np.isfinite(g)):
            raise DivergenceError(k)
        omega = omega - alpha * g
    return InnerResult(theta=omega, inner_steps=m, last_alpha=alpha)


class _TargetLine:
    """The surrogate along -g for a model whose targets are link(R theta):
    moving theta by -a g moves the batch logits L by -a R g, so no trial
    touches the rows. Under a linear model's Euclidean proximity the value
    is exactly val - a ||g||^2 + a^2 sum_i w_i (R g)_i^2 / 2b; otherwise a
    trial is the surrogate's value at link(L - a R g)."""

    def __init__(self, surrogate, omega):
        self.surrogate, self.model = surrogate, surrogate.batch.model
        self.rows, self.omega0 = surrogate.batch.rows, omega
        linear = self.model.kind == "linear"
        self.quadratic = linear and isinstance(surrogate.prox, SquaredProximity)

    @cached_property
    def logits(self) -> np.ndarray:
        # Lazy: quadratic trials never read it, so a one-step solve skips it.
        return self.model.logits(self.omega0, self.rows)

    def values(self, g, val, gnorm2):
        """The value at omega - a g as a function of a."""
        self.u = u = self.model.logits(g, self.rows)
        if self.quadratic:
            curv = float(np.sum(self.surrogate.prox.weights * u * u)) * self.surrogate.scale / 2
            return lambda a: val - a * gnorm2 + a * a * curv
        return lambda a: self.surrogate.target_value(self.model.link(self.logits - a * u))

    def step(self, a) -> np.ndarray:
        """Take the accepted step in the logits; the gradient there."""
        self.logits = self.logits - a * self.u
        v = self.surrogate.logit_grad(self.model.link(self.logits))
        return row_product(self.rows, v, transpose=True).ravel()


def armijo_backtracking(
    surrogate,
    omega0,
    m: int,
    alpha0: float = 1.0,
    shrink: float = 0.8,
    c: float = 0.5,
) -> InnerResult:
    """Up to m Armijo gradient steps on the surrogate.

    Each accepted step satisfies value(w - a g) <= value(w) - c a ||g||^2;
    every step starts its search at alpha0, and the accepted trial's
    value is the next step's base value. Hitting the backtrack floor
    returns the current point with `stalled` set. Linear and softmax-linear
    models search on the batch logits (`_TargetLine`).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if alpha0 <= 0 or not (0 < shrink < 1) or not (0 < c < 1):
        raise ValueError("need alpha0 > 0, shrink and c in (0, 1)")
    omega = np.asarray(omega0, dtype=np.float64).copy()
    alpha = alpha0
    val = surrogate.value(omega)
    g = surrogate.grad(omega)
    line = _TargetLine(surrogate, omega) if surrogate.batch.model.kind in LINK_MODELS else None
    steps = 0
    for k in range(m):
        if not np.all(np.isfinite(g)):
            raise DivergenceError(k)
        gnorm2 = float(g @ g.ravel()) if g.ndim == 1 else float(np.sum(g * g))
        if gnorm2 == 0.0:
            break
        value_at = (line.values(g, val, gnorm2) if line is not None
                    else lambda a: surrogate.value(omega - a * g))
        alpha, trial_val, stalled = backtrack(value_at, val, gnorm2, alpha0, shrink, c)
        if stalled:
            return InnerResult(omega, steps, stalled=True, last_alpha=alpha)
        omega, val = omega - alpha * g, trial_val
        steps += 1
        if steps < m:
            g = line.step(alpha) if line is not None else surrogate.grad(omega)
    return InnerResult(omega, steps, last_alpha=alpha)


def exact_linear_solve(surrogate, lam: float = 0.0, origin=None) -> np.ndarray:
    """Closed-form minimizer of a quadratic surrogate on a linear model.

    Solves the normal equations with pseudo-inverse semantics: by default
    the minimum-norm solution; with `origin` given, the solution closest
    to it (the limit of gradient descent started there). `lam` adds ridge
    regularization.
    """
    H, b = surrogate.quadratic_parts()
    if lam > 0:
        H = H + lam * np.eye(H.shape[0])
    if origin is None:
        theta, *_ = np.linalg.lstsq(H, b, rcond=None)
        return theta
    origin = np.asarray(origin, dtype=np.float64)
    delta, *_ = np.linalg.lstsq(H, b - H @ origin, rcond=None)
    return origin + delta
