"""Target-space step-size schedules.

Supported kinds: constant, sqrt-decay (eta0 / sqrt(t)), exponential
(eta0 * alpha^t with alpha = (beta/T)^(1/T), so eta_T = eta0 * beta / T),
adagrad-norm (eta0 / sqrt(sum of squared gradient norms), eta0 while
that sum is zero), and target-line-search (the per-step Armijo search
below). Iterations are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .inner_solvers import backtrack
from .losses import mean

ScheduleKind = Literal["constant", "sqrt-decay", "exponential", "target-line-search", "adagrad-norm"]
KINDS = get_args(ScheduleKind)
# Armijo constants of the target line search and of parametric SLS: the
# first trial step, its shrink factor and the sufficient-decrease factor.
LS_ALPHA0 = 10.0
LS_SHRINK = 0.5
LS_C = 0.5


def theoretical_eta0(L: float, n: int) -> float:
    """Constant target step 1/(2 L n) for per-coordinate smoothness L."""
    return 1.0 / (2.0 * L * n)


@dataclass
class ScheduleOptions:
    """A run's "schedule" group: the outer step size and its schedule.

    `eta0` is every optimizer's base step (SSO's target step, the SGD and
    SVRG step, the Adam and AdaGrad rate, the first SLS and target line
    search trial); None takes the optimizer's default. SSO follows every
    kind, SGD all but target-line-search, the others only "constant"."""

    kind: ScheduleKind = "constant"
    eta0: float | None = None
    beta: float = 1.0

    def steps(self, eta0: float, T: int | None = None):
        """`eta(t, grad=None)`, the step at (1-based) iteration t of a
        closed-form kind from base step eta0 over horizon T. adagrad-norm
        adds up the squared norms of the `grad`s it is given in this
        closure, not on the group, which every pair of a run shares."""
        kind = self.kind
        if eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if kind not in ("constant", "sqrt-decay", "exponential", "adagrad-norm"):
            raise ValueError(f"schedule kind {kind!r} has no closed-form step")
        if kind == "exponential":
            if T is None or T < 2:
                raise ValueError("exponential schedule needs horizon T >= 2")
            if not (0 < self.beta < T):
                raise ValueError("exponential schedule needs 0 < beta < T")
            alpha = (self.beta / T) ** (1.0 / T)
        G = 0.0

        def eta(t: int, grad=None) -> float:
            nonlocal G
            if t < 1:
                raise ValueError("t must be >= 1")
            if kind == "constant":
                return eta0
            if kind == "sqrt-decay":
                return eta0 / np.sqrt(t)
            if kind == "exponential":
                if t > T:
                    raise ValueError(f"exponential schedule queried past its horizon ({t} > {T})")
                return eta0 * alpha**t
            if grad is None:
                raise ValueError("adagrad-norm schedule needs the per-step gradient")
            g = np.asarray(grad, dtype=np.float64)
            G += float(np.sum(g * g))
            return eta0 if G == 0.0 else eta0 / np.sqrt(G)

        return eta


def target_line_search(loss, batch, alpha0: float = LS_ALPHA0):
    """Backtracking Armijo search directly in the target space of a
    frozen `Batch`.

    Finds the largest eta in {alpha0 * LS_SHRINK^k} with
    mean_i l_i(z_i - eta g_i) <= mean_i l_i(z_i) - LS_C eta mean_i g_i^2,
    z the batch's targets and g its target gradients. The base value
    mean_i l_i(z_i) is the frozen batch loss, read from `consts`, so the
    loss is evaluated only at the trials. Returns (eta, stalled); a zero
    gradient returns alpha0 untouched.
    """
    z, g, y = batch.z, batch.coeffs, batch.y
    gnorm2 = mean(g * g)
    if gnorm2 == 0.0:
        return alpha0, False
    step, _, stalled = backtrack(lambda a: mean(loss.values(z - a * g, y)),
                                 mean(batch.consts), gnorm2, alpha0, LS_SHRINK, LS_C)
    return step, stalled
