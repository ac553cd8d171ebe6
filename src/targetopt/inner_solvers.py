"""Deterministic minimization of a built surrogate.

Inner solvers never touch the loss oracle: they work on the frozen
surrogate only. `gd_fixed` runs m fixed-step gradient steps (step 1/beta
by default, beta the surrogate smoothness bound), `armijo_backtracking`
searches each step with `backtrack`, the sufficient-decrease search that
the target line search and SLS share (its trials move the batch logits,
not theta, on linear and softmax-linear models), and `exact_linear_solve`
solves the quadratic surrogate of a linear model in closed form. A run's
`InnerOptions` picks one of them and its budget.

A solve's first value and gradient are taken at the theta it is handed:
from the batch's own anchor array the surrogate reads the frozen targets
z, so the oracle's forward pass is not paid again. Every Armijo solve
runs the same loop; the proximity and the frozen oracle values are read
only through the surrogate's methods. Along `_TargetLine` a linear
model's trials are scalar arithmetic. A softmax-linear trial is a
softmax and a value on a (b, K) array of logits (under the KL proximity
one divergence to the mirror step), under twenty numpy calls on a few
dozen floats, so per-call overhead is most of its cost, and a search makes
several trials: the line evaluates TRIAL_BLOCK consecutive steps of the
search's ladder in one numpy pass, and each trial's value is the float
it has on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .models import row_products

BACKTRACK_FLOOR = 1e-12
# Armijo's shrink factor and sufficient-decrease factor.
ARMIJO_SHRINK = 0.8
ARMIJO_C = 0.5
LINK_MODELS = ("linear", "softmax-linear")
# Trials of a softmax line evaluated per numpy pass. A search makes about 6.5
# trials on softmax-kl-mirror, where two 6 s runs gave 9.0k/9.2k inner steps/s
# at 4, 10.6k/10.4k at 6, 11.6k/11.3k at 8 and 11.2k/11.3k at 12.
TRIAL_BLOCK = 8
Solver = Literal["gd", "armijo", "exact"]
MRule = Literal["constant", "log"]
# Inner settings each solver never reads (the others read them all).
UNREAD_INNER = {"exact": ("m", "m_rule", "alpha")}


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
    surrogate value is non-increasing at every step. A zero beta means zero
    rows, where the surrogate's gradient is exactly zero: the m steps stay
    at the start.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if alpha is None:
        beta = surrogate.smoothness_bound()
        if beta == 0.0:
            return InnerResult(theta=np.array(omega0, dtype=np.float64), inner_steps=m)
        alpha = 1.0 / beta
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    omega = np.asarray(omega0, dtype=np.float64)  # not a copy: from the anchor, grad reads z
    for k in range(m):
        g = surrogate.grad(omega)
        _squared_norm(g, k)  # the divergence check
        omega = omega - alpha * g
    return InnerResult(theta=omega, inner_steps=m, last_alpha=alpha)


def _squared_norm(g, k: int) -> float:
    """||g||^2 at inner step k. A non-finite entry makes it non-finite, so
    the array is scanned for one only then; raises DivergenceError(k)."""
    gnorm2 = float(g @ g) if g.ndim == 1 else float(np.add.reduce(g * g, axis=None))
    if not math.isfinite(gnorm2) and not np.isfinite(g).all():
        raise DivergenceError(k)
    return gnorm2


class _TargetLine:
    """The surrogate along -g for a link model: its targets are
    link(R theta), so moving theta by -a g moves the batch logits L by
    -a u, u = R g, and no trial touches the rows. An accepted step's
    gradient is R^T logit_grad(link(L)).

    A linear model's logits are its targets (from the batch's anchor, z),
    and its value along the line is quadratic: a trial is the closed form
    val - a ||g||^2 + a^2 curv. On a softmax-linear model a trial at a new
    step evaluates it and the next TRIAL_BLOCK - 1 steps of `backtrack`'s
    ladder (the same floats as the search's) in one pass: one
    `Surrogate.link_values` over the stacked (k, b, K) logits."""

    def __init__(self, surrogate, omega):
        self.surrogate, self.model = surrogate, surrogate.batch.model
        self.rows = surrogate.batch.rows
        self.quadratic = self.model.kind == "linear"
        self.logits = (surrogate.targets(omega) if self.quadratic
                       else self.model.logits(omega, self.rows))
        self.times, self.pull_back = row_products(self.rows)

    def values(self, g, val, gnorm2):
        """The value at omega - a g as a function of a, from the value val
        and ||g||^2 at omega."""
        if self.quadratic:
            self.u = self.times(g)
            curv = self.surrogate.line_curvature(self.u)
            return lambda a: val - a * gnorm2 + a * a * curv
        self.u = self.model.logits(g, self.rows)
        self.trials = {}
        return self._trial_value

    def _trial_value(self, a) -> float:
        if a not in self.trials:
            self._evaluate_block(a)
        return self.trials[a]

    def _evaluate_block(self, a) -> None:
        """Keep the values at a and the next steps of the ladder by step,
        and their logits and targets for `step`."""
        steps = [a]
        for _ in range(TRIAL_BLOCK - 1):
            a *= ARMIJO_SHRINK
            steps.append(a)
        logits = self.logits - np.multiply.outer(steps, self.u)
        f, values = self.surrogate.link_values(logits)
        self.trials = dict(zip(steps, values.tolist()))
        self.block = steps, logits, f

    def step(self, a) -> np.ndarray:
        """Take the accepted step in the logits; the gradient there. A
        softmax step keeps its trial's logits and targets from the block."""
        if self.quadratic:
            self.logits = f = self.logits - a * self.u
        else:
            steps, logits, f = self.block
            i = steps.index(a)
            self.logits, f = logits[i], f[i]
        return self.pull_back(self.surrogate.logit_grad(f)).ravel()


def armijo_backtracking(surrogate, omega0, m: int, alpha0: float = 1.0) -> InnerResult:
    """Up to m Armijo gradient steps on the surrogate.

    Each accepted step a in {alpha0 * ARMIJO_SHRINK^k} satisfies
    value(w - a g) <= value(w) - ARMIJO_C a ||g||^2;
    every step starts its search at alpha0, and the accepted trial's
    value is the next step's base value. Hitting the backtrack floor
    returns the current point with `stalled` set. The start is evaluated
    at omega0 itself, so from the batch's anchor it reads the frozen z.
    Link models search on the batch logits (`_TargetLine`); an MLP's
    trials are `Surrogate.value` at each trial theta.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if alpha0 <= 0:
        raise ValueError("alpha0 must be positive")
    omega0 = np.asarray(omega0, dtype=np.float64)
    val, g = surrogate.value(omega0), surrogate.grad(omega0)
    line = _TargetLine(surrogate, omega0) if surrogate.batch.model.kind in LINK_MODELS else None
    omega, alpha, steps = omega0.copy(), alpha0, 0
    for k in range(m):
        gnorm2 = _squared_norm(g, k)
        if gnorm2 == 0.0:
            break
        value_at = (line.values(g, val, gnorm2) if line is not None
                    else lambda a: surrogate.value(omega - a * g))
        alpha, trial_val, stalled = backtrack(value_at, val, gnorm2, alpha0, ARMIJO_SHRINK, ARMIJO_C)
        if stalled:
            return InnerResult(omega, steps, stalled=True, last_alpha=alpha)
        omega, val = omega - alpha * g, trial_val
        steps += 1
        if steps < m:
            g = line.step(alpha) if line is not None else surrogate.grad(omega)
    return InnerResult(omega, steps, last_alpha=alpha)


def exact_linear_solve(surrogate, origin=None) -> np.ndarray:
    """Closed-form minimizer of a quadratic surrogate on a linear model.

    Solves the normal equations with pseudo-inverse semantics: by default
    the minimum-norm solution; with `origin` given, the solution closest
    to it (the limit of gradient descent started there).
    """
    H, b = surrogate.quadratic_parts()
    if origin is None:
        theta, *_ = np.linalg.lstsq(H, b, rcond=None)
        return theta
    origin = np.asarray(origin, dtype=np.float64)
    delta, *_ = np.linalg.lstsq(H, b - H @ origin, rcond=None)
    return origin + delta


@dataclass
class InnerOptions:
    """A run's "inner" group: the inner solver, its step and its budget.
    `alpha` is gd's fixed step (None = 1/beta, beta the surrogate's
    smoothness bound) and Armijo's first trial (None = 1.0)."""

    solver: Solver = "gd"
    m: int = 1
    m_rule: MRule = "constant"
    alpha: float | None = None

    def solve(self, surrogate, theta, t: int) -> InnerResult:
        """Minimize the surrogate from theta at outer iteration t: m steps,
        or m * ceil(log(t + 2)) under the "log" rule. The exact solve counts
        as theta.size steps, the d of the linear model it needs."""
        if self.solver == "exact":
            return InnerResult(exact_linear_solve(surrogate, origin=theta), theta.size)
        m = self.m if self.m_rule == "constant" else int(np.ceil(self.m * np.log(t + 2)))
        if self.solver == "gd":
            return gd_fixed(surrogate, theta, m, alpha=self.alpha)
        return armijo_backtracking(surrogate, theta, m, 1.0 if self.alpha is None else self.alpha)
