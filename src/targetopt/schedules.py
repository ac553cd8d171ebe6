"""Target-space step-size schedules.

Supported kinds: constant, sqrt-decay (eta0 / sqrt(t)), exponential
(eta0 * alpha^t with alpha = (beta/T)^(1/T), so eta_T = eta0 * beta / T),
adagrad-norm (eta0 / sqrt(sum of squared gradient norms), eta0 while
that sum is zero), and
target-line-search (the per-step Armijo search below). Iterations are
1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, get_args

import numpy as np

from .inner_solvers import backtrack
from .losses import mean
from .schema import check

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
class Schedule:
    kind: ScheduleKind
    eta0: float
    T: int | None = None
    beta: float = 1.0
    G: float = field(default=0.0, repr=False)

    def __post_init__(self):
        check(self)
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if self.kind == "exponential":
            if self.T is None or self.T < 2:
                raise ValueError("exponential schedule needs horizon T >= 2")
            if not (0 < self.beta < self.T):
                raise ValueError("exponential schedule needs 0 < beta < T")

    @property
    def alpha(self) -> float:
        return (self.beta / self.T) ** (1.0 / self.T)


def eta(schedule: Schedule, t: int, grad=None) -> float:
    """Step size at (1-based) iteration t; adagrad-norm consumes `grad`."""
    if t < 1:
        raise ValueError("t must be >= 1")
    k = schedule.kind
    if k == "constant":
        return schedule.eta0
    if k == "sqrt-decay":
        return schedule.eta0 / np.sqrt(t)
    if k == "exponential":
        if t > schedule.T:
            raise ValueError(f"exponential schedule queried past its horizon ({t} > {schedule.T})")
        return schedule.eta0 * schedule.alpha**t
    if k == "adagrad-norm":
        if grad is None:
            raise ValueError("adagrad-norm schedule needs the per-step gradient")
        g = np.asarray(grad, dtype=np.float64)
        schedule.G += float(np.sum(g * g))
        if schedule.G == 0.0:  # no gradient accumulated yet
            return schedule.eta0
        return schedule.eta0 / np.sqrt(schedule.G)
    raise ValueError(f"schedule kind {k!r} has no closed-form step; use target_line_search")


def target_line_search(
    loss,
    z_batch,
    y_batch,
    grad_batch,
    alpha0: float = LS_ALPHA0,
    shrink: float = LS_SHRINK,
    c: float = LS_C,
):
    """Backtracking Armijo search directly in the target space.

    Finds the largest eta in {alpha0 * shrink^k} with
    mean_i l_i(z_i - eta g_i) <= mean_i l_i(z_i) - (eta/2) mean_i g_i^2
    (coefficient c in place of 1/2 when overridden). Returns
    (eta, stalled); a zero gradient returns alpha0 untouched.
    """
    z = np.asarray(z_batch, dtype=np.float64)
    g = np.asarray(grad_batch, dtype=np.float64)
    gnorm2 = mean(g * g)
    if gnorm2 == 0.0:
        return alpha0, False
    base = mean(loss.values(z, y_batch))
    step, _, stalled = backtrack(lambda a: mean(loss.values(z - a * g, y_batch)),
                                 base, gnorm2, alpha0, shrink, c)
    return step, stalled
