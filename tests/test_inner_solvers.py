import numpy as np
import pytest
import scipy.sparse as sp

from targetopt.data import SyntheticSpec, generate_synthetic
from targetopt.inner_solvers import (
    armijo_backtracking,
    exact_linear_solve,
    gd_fixed,
)
from targetopt.losses import SquaredLoss
from targetopt.models import LinearModel
from targetopt.optimizers import batch_param_grad
from targetopt.surrogates import build_deterministic

from helpers import stochastic


def one_dim_ds(x=1.0, y=2.0):
    ds = type("D", (), {})()
    ds.X = sp.csr_matrix(np.array([[x]]))
    ds.y = np.array([y])
    ds.n, ds.d = 1, 1
    return ds


def counterexample_ds():
    return generate_synthetic(SyntheticSpec("counterexample-quadratics"))


class TestGDFixed:
    def test_m1_equals_parametric_sgd_step(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=10, d=3, cond=3, noise=0.4, seed=0)
        )
        model, loss = LinearModel(), SquaredLoss()
        theta_t = np.random.default_rng(1).normal(size=3)
        idx = np.array([1, 4, 7])
        surr = stochastic(loss, model, ds, theta_t, idx, 0.5)
        alpha = 0.05
        res = gd_fixed(surr, theta_t, 1, alpha=alpha)
        sgd_step = theta_t - alpha * batch_param_grad(loss, model, theta_t, ds.X[idx], ds.y[idx])
        np.testing.assert_array_equal(res.theta, sgd_step)

    def test_stationary_point_unmoved(self):
        ds = one_dim_ds()
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.array([2.0]), [0], 0.5)
        # anchor == label: frozen gradient is zero, anchor is the minimum.
        res = gd_fixed(surr, np.array([2.0]), 5, alpha=0.1)
        np.testing.assert_array_equal(res.theta, [2.0])

    def test_converges_to_closed_form_argmin(self):
        ds = one_dim_ds()
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(1), [0], 0.5)
        res = gd_fixed(surr, np.zeros(1), 200)
        assert res.theta[0] == pytest.approx(1.0, abs=1e-8)

    def test_default_step_descends_every_iteration(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=15, d=4, cond=20, noise=0.3, seed=2)
        )
        surr = build_deterministic(SquaredLoss(), LinearModel(), ds, np.zeros(4), 0.8)
        omega = np.zeros(4)
        prev = surr.value(omega)
        alpha = 1.0 / surr.smoothness_bound()
        for _ in range(30):
            omega = gd_fixed(surr, omega, 1, alpha=alpha).theta
            val = surr.value(omega)
            assert val <= prev + 1e-12
            prev = val

    def test_composability(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=8, d=3, cond=4, noise=0.2, seed=3)
        )
        surr = build_deterministic(SquaredLoss(), LinearModel(), ds, np.ones(3), 0.6)
        alpha = 1.0 / surr.smoothness_bound()
        whole = gd_fixed(surr, np.ones(3), 7, alpha=alpha).theta
        first = gd_fixed(surr, np.ones(3), 3, alpha=alpha).theta
        split = gd_fixed(surr, first, 4, alpha=alpha).theta
        np.testing.assert_array_equal(whole, split)

    def test_rejects_bad_m(self):
        ds = one_dim_ds()
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(1), [0], 0.5)
        with pytest.raises(ValueError):
            gd_fixed(surr, np.zeros(1), 0)


class TestArmijo:
    def test_huge_alpha0_backtracks_below_curvature(self):
        ds = one_dim_ds(x=2.0, y=1.0)
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(1), [0], 0.25)
        # Quadratic curvature along theta: w * x^2 = 4 / 0.25 = 16.
        curvature = 16.0
        res = armijo_backtracking(surr, np.zeros(1), 1, alpha0=1e6, shrink=0.5, c=0.5)
        assert res.last_alpha <= 1.0 / curvature + 1e-12
        assert not res.stalled

    def test_zero_gradient_returns_start(self):
        ds = one_dim_ds()
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.array([2.0]), [0], 0.5)
        res = armijo_backtracking(surr, np.array([2.0]), 10)
        np.testing.assert_array_equal(res.theta, [2.0])
        assert res.inner_steps == 0

    def test_values_non_increasing(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=12, d=4, cond=30, noise=0.5, seed=4)
        )
        surr = build_deterministic(SquaredLoss(), LinearModel(), ds, np.zeros(4), 0.7)
        omega = np.zeros(4)
        prev = surr.value(omega)
        for _ in range(15):
            omega = armijo_backtracking(surr, omega, 1, alpha0=2.0).theta
            val = surr.value(omega)
            assert val <= prev + 1e-12
            prev = val

    def test_accepted_steps_satisfy_condition(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=9, d=3, cond=10, noise=0.4, seed=5)
        )
        surr = build_deterministic(SquaredLoss(), LinearModel(), ds, np.ones(3), 0.5)
        omega = np.ones(3)
        c = 0.5
        for _ in range(10):
            g = surr.grad(omega)
            val = surr.value(omega)
            res = armijo_backtracking(surr, omega, 1, alpha0=1.5, c=c)
            if res.inner_steps == 0:
                break
            assert surr.value(res.theta) <= val - c * res.last_alpha * (g @ g) + 1e-12
            omega = res.theta


class TestExactSolve:
    def test_full_batch_newton_recovery(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=25, d=6, cond=100, noise=0.8, seed=6)
        )
        surr = build_deterministic(SquaredLoss(), LinearModel(), ds, np.zeros(6), 1.0)
        theta = exact_linear_solve(surr)
        direct, *_ = np.linalg.lstsq(ds.X.toarray(), ds.y, rcond=None)
        np.testing.assert_allclose(theta, direct, atol=1e-9)

    def test_counterexample_update_first_example(self):
        ds = counterexample_ds()
        eta = 0.35
        for theta_t in (0.0, 1.0, -2.5):
            surr = stochastic(
                SquaredLoss(), LinearModel(), ds, np.array([theta_t]), [0], eta
            )
            theta = exact_linear_solve(surr, origin=np.array([theta_t]))
            assert theta[0] == pytest.approx(theta_t - eta * (theta_t - 1.0), abs=1e-12)

    def test_counterexample_update_second_example(self):
        ds = counterexample_ds()
        eta = 0.35
        for theta_t in (0.0, 1.0, -2.5):
            surr = stochastic(
                SquaredLoss(), LinearModel(), ds, np.array([theta_t]), [1], eta
            )
            theta = exact_linear_solve(surr, origin=np.array([theta_t]))
            expected = (1.0 - eta) * theta_t - eta / 4.0
            assert theta[0] == pytest.approx(expected, abs=1e-12)

    def test_gradient_norm_small_at_solution(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=30, d=5, cond=1e3, noise=0.5, seed=7)
        )
        surr = build_deterministic(SquaredLoss(), LinearModel(), ds, np.zeros(5), 0.5)
        theta = exact_linear_solve(surr)
        _, b = surr.quadratic_parts()
        assert np.linalg.norm(surr.grad(theta)) <= 1e-8 * (1 + np.linalg.norm(b))

    def test_min_norm_on_singular_system(self):
        # Singleton surrogate in 2d: solution set is a line; the default
        # solve picks the minimum-norm point on it.
        rng = np.random.default_rng(8)
        ds = type("D", (), {})()
        ds.X = sp.csr_matrix(np.array([[1.0, 2.0], [3.0, -1.0]]))
        ds.y = np.array([1.0, 0.5])
        ds.n, ds.d = 2, 2
        theta_t = rng.normal(size=2)
        eta = 0.5
        surr = stochastic(SquaredLoss(), LinearModel(), ds, theta_t, [0], eta)
        theta = exact_linear_solve(surr)
        x = np.array([1.0, 2.0])
        z_t = x @ theta_t
        target = z_t - eta * (z_t - 1.0)
        assert x @ theta == pytest.approx(target, abs=1e-10)
        expected = x * target / (x @ x)
        np.testing.assert_allclose(theta, expected, atol=1e-10)

    def test_ridge_term(self):
        ds = one_dim_ds()
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(1), [0], 0.5)
        plain = exact_linear_solve(surr)
        ridged = exact_linear_solve(surr, lam=10.0)
        assert abs(ridged[0]) < abs(plain[0])
