"""Instrumented analysis quantities for small instances.

Everything here is an exact oracle: expectations over the sampled index
are computed by full enumeration and curvature constants come from dense
eigendecompositions, so these functions validate runs rather than scale
with them. They require a linear model.
"""

from __future__ import annotations

import numpy as np

from . import losses as losses_mod
from .inner_solvers import exact_linear_solve, gd_fixed
from .models import LinearModel, dense, lipschitz_estimate, row_product, take_rows, zero_rows
from .optimizers import RunConfig, run
from .schedules import ScheduleOptions
from .surrogates import build_analysis_q, build_deterministic, build_stochastic, freeze


class UnsupportedDiagnostic(ValueError):
    pass


class DegenerateCurvature(ValueError):
    pass


def _require_linear(model):
    if model.kind != "linear":
        raise UnsupportedDiagnostic("diagnostics require a linear model")


def least_squares_optimum(dataset):
    """(theta*, z*) of the averaged squared loss by direct solve."""
    X = dense(dataset.X)
    theta_star, *_ = np.linalg.lstsq(X, dataset.y, rcond=None)
    return theta_star, row_product(X, theta_star)


def _eig_range(H, rel_tol: float = 1e-12):
    """(smallest positive eigenvalue, largest eigenvalue) of a PSD matrix.

    The smallest eigenvalue is taken over the row space: directions the
    surrogate is flat in never move under its gradient flow and do not
    affect any target-space quantity.
    """
    w = np.linalg.eigvalsh(H)
    lam_max = float(w[-1])
    cutoff = rel_tol * max(lam_max, 1e-300)
    positive = w[w > cutoff]
    if positive.size == 0:
        raise DegenerateCurvature("surrogate Hessian has no usable curvature")
    return float(positive[0]), lam_max


def _min_value(surrogate) -> float:
    theta_hat = exact_linear_solve(surrogate, origin=surrogate.batch.theta)
    return surrogate.value(theta_hat)


def _singletons(loss, model, dataset, theta_t, eta_t):
    """(g_i, q_i) for every example i: its stochastic and analysis
    surrogates at theta_t, both from one oracle call on row i."""
    pairs = []
    for i in range(dataset.n):
        batch = freeze(loss, model, theta_t, take_rows(dataset.X, [i]), dataset.y[[i]])
        q_i = build_analysis_q(loss, dataset, batch, [i], eta_t)
        pairs.append((build_stochastic(loss, batch, eta_t), q_i))
    return pairs


def projection_error(loss, dataset, sampled, batch_idx, eta_t, theta_next) -> float:
    """Distance between realized targets and the analysis-surrogate targets.

    ||f(theta_next) - f(argmin q)|| where q is the analysis surrogate built
    from `sampled`, the step's frozen batch (the rows `batch_idx` at its
    anchor theta_t), at eta_t. Exact solve, so linear models only.
    """
    model = sampled.model
    _require_linear(model)
    q = build_analysis_q(loss, dataset, sampled, batch_idx, eta_t)
    theta_bar = exact_linear_solve(q, origin=sampled.theta)
    z_next = model.forward(theta_next, dataset.X)
    z_bar = model.forward(theta_bar, dataset.X)
    return float(np.linalg.norm(z_next - z_bar))


def noise_sigma2(dataset, loss, z_star) -> float:
    """Variance of the one-example target gradients at the optimum.

    mean_i || grad l(z*) - grad l_i(z*) ||^2 with grad l the averaged-loss
    gradient and grad l_i the one-hot individual gradient; enumerated
    exactly over i.
    """
    z_star = np.asarray(z_star, dtype=np.float64)
    n = dataset.n
    g = np.asarray(loss.grads(z_star, dataset.y))
    mean_grad = g / n  # coordinate j of the averaged-loss gradient
    base = float(np.sum(mean_grad**2))
    # ||mean_grad - g_i e_i||^2 = base - mean_grad_i^2 + (mean_grad_i - g_i)^2
    per_i = base - mean_grad**2 + (mean_grad - g) ** 2
    return float(np.mean(per_i))


def sigma2_z(dataset, loss) -> float:
    """Gap between the constrained optimum of the averaged loss and the
    average of per-example constrained optima (enumerated)."""
    n = dataset.n
    if loss.kind == "squared":
        _, z_hat = least_squares_optimum(dataset)
        best_avg = losses_mod.loss_value(loss, z_hat, dataset.y)
    else:
        best_avg = _convex_min_value(dataset, loss)
    per_example = np.zeros(n)
    zero = zero_rows(dataset.X)
    if zero.size:
        per_example[zero] = np.asarray(loss.values(np.zeros(zero.size), dataset.y[zero]))
    # Nonzero rows can realize any coordinate value, so the per-example
    # optimum is the scalar infimum (0 for squared and logistic).
    return best_avg - float(np.mean(per_example))


def _convex_min_value(dataset, loss) -> float:
    # Small-instance full-batch GD from zero at the default step (non-squared losses).
    cfg = RunConfig(optimizer="sgd", T=5000, eval_every=5000)
    return run(cfg, dataset, LinearModel(), loss).final_loss()


def _curvatures(singletons):
    mu_g = mu_q = np.inf
    L_g = L_q = 0.0
    for g_i, q_i in singletons:
        lo, hi = _eig_range(g_i.quadratic_parts()[0])
        mu_g, L_g = min(mu_g, lo), max(L_g, hi)
        lo, hi = _eig_range(q_i.quadratic_parts()[0])
        mu_q, L_q = min(mu_q, lo), max(L_q, hi)
    return mu_g, L_g, mu_q, L_q


def zeta2(dataset, loss, model, theta_t, eta_t) -> float:
    """Dissimilarity of singleton surrogates at theta_t.

    (8 / min(mu_g, mu_q)) * ([min E g - E min g] + [min E q - E min q]),
    with expectations enumerated over singletons and minima solved in
    closed form.
    """
    _require_linear(model)
    singletons = _singletons(loss, model, dataset, theta_t, eta_t)
    return _zeta2(loss, model, dataset, theta_t, eta_t, singletons, _curvatures(singletons))


def _zeta2(loss, model, dataset, theta_t, eta_t, singletons, curvatures) -> float:
    min_expected = _min_value(build_deterministic(loss, model, dataset, theta_t, eta_t))
    min_g = np.array([_min_value(g_i) for g_i, _ in singletons])
    min_q = np.array([_min_value(q_i) for _, q_i in singletons])
    mu_g, _, mu_q, _ = curvatures
    gap_g = min_expected - float(np.mean(min_g))
    gap_q = min_expected - float(np.mean(min_q))
    return (8.0 / min(mu_g, mu_q)) * (gap_g + gap_q)


def expected_projection_error_sq(
    dataset, loss, model, theta_t, eta_t, m: int
) -> float:
    """E[eps^2] after m inner GD steps, enumerated over singleton batches.

    Inner GD uses the uniform step 1/L_g (largest curvature across the
    enumerated surrogates).
    """
    _require_linear(model)
    singletons = _singletons(loss, model, dataset, theta_t, eta_t)
    alpha = 1.0 / _curvatures(singletons)[1]
    errs = np.empty(dataset.n)
    for i, (g_i, q_i) in enumerate(singletons):
        res = gd_fixed(g_i, theta_t, m, alpha=alpha)
        theta_bar = exact_linear_solve(q_i, origin=theta_t)
        z_next = model.forward(res.theta, dataset.X)
        z_bar = model.forward(theta_bar, dataset.X)
        errs[i] = np.sum((z_next - z_bar) ** 2)
    return float(np.mean(errs))


def projection_error_bound(dataset, loss, model, theta_t, eta_t, m: int, z_star) -> float:
    """Right-hand side of the projection-error bound with exact constants:

    L_f^2 zeta^2 + (4 L_f^2 / mu_g) exp(-m / kappa_g) [l(z_t) - l(z*) + sigma_z^2].
    """
    _require_linear(model)
    L_f = lipschitz_estimate(model, dataset.X)
    singletons = _singletons(loss, model, dataset, theta_t, eta_t)
    curvatures = _curvatures(singletons)
    mu_g, L_g, _, _ = curvatures
    kappa_g = L_g / mu_g
    z_t = model.forward(theta_t, dataset.X)
    gap = losses_mod.loss_value(loss, z_t, dataset.y) - losses_mod.loss_value(
        loss, np.asarray(z_star), dataset.y
    )
    zt2 = _zeta2(loss, model, dataset, theta_t, eta_t, singletons, curvatures)
    s2z = sigma2_z(dataset, loss)
    return L_f**2 * zt2 + (4.0 * L_f**2 / mu_g) * np.exp(-m / kappa_g) * (gap + s2z)


def counterexample_alphas(kind: str, T: int, beta: float = 1.0) -> np.ndarray:
    """alpha_1..alpha_T for the two-quadratic instance: the steps of a
    unit-eta0 schedule of this kind. A kind without a closed-form step
    raises ValueError."""
    eta = ScheduleOptions(kind, beta=beta).steps(1.0, T)
    return np.array([eta(t) for t in range(1, T + 1)])


def counterexample_check(c: float, alphas, T: int, theta1: float, trials: int, seed: int = 0):
    """Closed-form and Monte-Carlo expectation of theta_T on the
    two-quadratic instance with exact surrogate minimization.

    The per-example exact updates are theta - c a (theta - 1) and
    (1 - c a) theta - c a / 4; the closed form iterates
    E theta_{t+1} = (1 - c a_t) E theta_t + (3/8) c a_t.
    Returns (mc_mean, closed_form, mc_standard_error).
    """
    if not (0 < c <= 1):
        raise ValueError("c must lie in (0, 1]")
    alphas = np.asarray(alphas, dtype=np.float64)
    if alphas.size < T - 1:
        raise ValueError("need at least T-1 step sizes")

    expected = theta1
    for t in range(T - 1):
        ca = c * alphas[t]
        expected = (1.0 - ca) * expected + 0.375 * ca

    rng = np.random.default_rng(seed)
    theta = np.full(trials, float(theta1))
    for t in range(T - 1):
        ca = c * alphas[t]
        pick_first = rng.random(trials) < 0.5
        upd_first = theta - ca * (theta - 1.0)
        upd_second = (1.0 - ca) * theta - 0.25 * ca
        theta = np.where(pick_first, upd_first, upd_second)
    mc_mean = float(theta.mean())
    se = float(theta.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mc_mean, float(expected), se
