import numpy as np
import pytest

from targetopt.losses import LogisticLoss, SquaredLoss
from targetopt.models import LinearModel
from targetopt.schedules import (
    LS_SHRINK,
    ScheduleOptions,
    target_line_search,
    theoretical_eta0,
)
from targetopt.surrogates import freeze


def steps(kind, eta0, T=None, beta=1.0):
    return ScheduleOptions(kind, beta=beta).steps(eta0, T)


def frozen(loss, z, y):
    """The batch frozen at targets z: a linear model on identity rows."""
    return freeze(loss, LinearModel(), z, np.eye(len(z)), y)


class TestClosedFormSchedules:
    def test_constant_theoretical(self):
        eta = steps("constant", theoretical_eta0(1.0, 4))
        for t in (1, 5, 1000):
            assert eta(t) == 0.125

    def test_sqrt_decay(self):
        eta = steps("sqrt-decay", 1.0)
        assert eta(4) == pytest.approx(0.5)
        assert eta(1) == 1.0

    def test_exponential_horizon_value(self):
        eta = steps("exponential", 1.0, T=100, beta=1.0)
        assert eta(100) == pytest.approx(0.01, rel=1e-12)

    def test_exponential_exact_endpoint_and_decrease(self):
        eta0, T, beta = 0.3, 50, 2.0
        eta = steps("exponential", eta0, T=T, beta=beta)
        vals = [eta(t) for t in range(1, T + 1)]
        assert vals[-1] == pytest.approx(eta0 * beta / T, rel=1e-12)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exponential_past_horizon_errors(self):
        eta = steps("exponential", 1.0, T=10, beta=1.0)
        with pytest.raises(ValueError, match="horizon"):
            eta(11)

    def test_exponential_requires_valid_horizon(self):
        with pytest.raises(ValueError):
            steps("exponential", 1.0, T=1)
        with pytest.raises(ValueError):
            steps("exponential", 1.0, T=10, beta=10.0)

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            steps("constant", 1.0)(0)


class TestAdagradNorm:
    def test_requires_gradient(self):
        eta = steps("adagrad-norm", 1e-2)
        with pytest.raises(ValueError, match="gradient"):
            eta(1)

    def test_non_increasing(self):
        rng = np.random.default_rng(0)
        eta = steps("adagrad-norm", 1e-2)
        vals = [eta(t, grad=rng.normal(size=5)) for t in range(1, 50)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_zero_gradient_keeps_eta0(self):
        eta = steps("adagrad-norm", 0.5)
        assert eta(1, grad=np.zeros(3)) == 0.5
        assert eta(2, grad=np.array([3.0, 4.0, 0.0])) == pytest.approx(0.5 / 5.0)

    def test_matches_accumulator_formula(self):
        eta = steps("adagrad-norm", 0.5)
        g1 = np.array([3.0, 4.0])  # norm^2 = 25
        assert eta(1, grad=g1) == pytest.approx(0.5 / 5.0)
        g2 = np.array([0.0, 5.0])  # accumulated 50
        assert eta(2, grad=g2) == pytest.approx(0.5 / np.sqrt(50.0))


class TestTargetLineSearch:
    def test_squared_loss_grid_value(self):
        # Acceptance boundary for the squared loss is eta = 2(1-c) = 1, so
        # the first grid point at or below it from alpha0=10, LS_SHRINK=0.5
        # is 0.625 (hand-checked condition at each grid point).
        loss = SquaredLoss()
        z = np.array([3.0])
        y = np.array([1.0])
        step, stalled = target_line_search(loss, frozen(loss, z, y), alpha0=10.0)
        assert not stalled
        assert step == pytest.approx(0.625)

    def test_zero_gradient_returns_alpha0(self):
        loss = SquaredLoss()
        z = np.array([1.0, 2.0])
        step, stalled = target_line_search(loss, frozen(loss, z, z.copy()), alpha0=7.0)
        assert step == 7.0 and not stalled

    def test_accepted_step_satisfies_condition(self):
        rng = np.random.default_rng(1)
        loss = LogisticLoss()
        for _ in range(25):
            z = rng.normal(scale=2.0, size=6)
            y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
            g = loss.grads(z, y)
            step, stalled = target_line_search(loss, frozen(loss, z, y), alpha0=5.0)
            assert not stalled
            lhs = np.mean(loss.values(z - step * g, y))
            rhs = np.mean(loss.values(z, y)) - 0.5 * step * np.mean(g * g)
            assert lhs <= rhs + 1e-12

    def test_batch_boundary_independent_of_size(self):
        # The condition is per-coordinate means, so the squared-loss
        # boundary stays at eta = 1 for any batch size.
        loss = SquaredLoss()
        for b in (1, 3, 10):
            z = np.full(b, 2.0)
            y = np.zeros(b)
            step, _ = target_line_search(loss, frozen(loss, z, y), alpha0=10.0)
            assert step == pytest.approx(0.625)

    @pytest.mark.parametrize("seed", range(6))
    def test_loss_is_evaluated_only_at_the_trials(self, seed):
        # The base value is the frozen batch loss: the search evaluates the
        # loss once per trial step, never at the batch's own targets.
        rng = np.random.default_rng(seed)
        loss = LogisticLoss()
        z = rng.normal(scale=2.0, size=5)
        batch = frozen(loss, z, np.where(rng.random(5) < 0.5, 1.0, -1.0))
        seen = []

        class Recording:
            def values(self, f, y):
                seen.append(f)
                return loss.values(f, y)

        step, stalled = target_line_search(Recording(), batch, alpha0=10.0)
        trials, a = 1, 10.0
        while a > step:
            a, trials = a * LS_SHRINK, trials + 1
        assert not stalled and len(seen) == trials > 1
        assert not any(np.array_equal(f, batch.z) for f in seen)
