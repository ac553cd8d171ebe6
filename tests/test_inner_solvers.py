import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st

from targetopt import inner_solvers
from targetopt.data import SyntheticSpec, generate_synthetic
from targetopt.inner_solvers import (
    ARMIJO_C,
    BACKTRACK_FLOOR,
    TRIAL_BLOCK,
    DivergenceError,
    InnerResult,
    armijo_backtracking,
    backtrack,
    exact_linear_solve,
    gd_fixed,
)
from targetopt.losses import SquaredLoss
from targetopt.models import LinearModel
from targetopt.optimizers import batch_param_grad
from targetopt.surrogates import Batch, SquaredProximity, Surrogate, build_deterministic

from helpers import CASES, CountingLoss, make_problem, stochastic


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

    def test_default_step_on_zero_rows_keeps_the_start(self):
        # Zero rows: smoothness bound 0, surrogate gradient exactly 0.
        ds = one_dim_ds(x=0.0)
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.array([3.0]), [0], 0.5)
        assert surr.smoothness_bound() == 0.0
        res = gd_fixed(surr, np.array([3.0]), 4)
        np.testing.assert_array_equal(res.theta, [3.0])
        assert res.inner_steps == 4 and not res.stalled

    def test_rejects_bad_m(self):
        ds = one_dim_ds()
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(1), [0], 0.5)
        with pytest.raises(ValueError):
            gd_fixed(surr, np.zeros(1), 0)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_gradient_raises_at_its_step(self, sparse):
        # One row whose anchor logit is -1.5e308: the first step moves it by
        # -5e307, past the largest float, so the second gradient is -inf.
        rows, theta = np.array([[1e77]]), np.array([-1.5e231])
        rows = sp.csr_matrix(rows) if sparse else rows
        z = LinearModel().forward(theta, rows)
        batch = Batch(LinearModel(), theta, rows, np.zeros(1), z, np.zeros(1), np.array([0.5]))
        surr = Surrogate(batch, SquaredProximity(np.ones(1)))
        for start in (theta, theta.copy()):
            with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
                gd_fixed(surr, start, 4, alpha=1e154)
            assert err.value.step == 1

    def test_finite_gradient_whose_squared_norm_overflows_does_not_raise(self):
        # ||g||^2 is inf although every entry of g is finite: no divergence.
        rows, theta = np.array([[1.0]]), np.zeros(1)
        batch = Batch(LinearModel(), theta, rows, np.zeros(1), rows @ theta, np.zeros(1),
                      np.array([1e200]))
        surr = Surrogate(batch, SquaredProximity(np.ones(1)))
        with np.errstate(over="ignore"):
            res = gd_fixed(surr, theta, 3, alpha=1e-200)
        assert res.inner_steps == 3
        np.testing.assert_array_equal(res.theta, [-3.0])


class TestBacktrack:
    # value_at(a) = a^2 against the line base - a/2: with base 1, trials
    # pass for a <= 0.78; with base -1, none passes.
    @staticmethod
    def trials(log):
        def value_at(a):
            log.append(a)
            return a * a
        return value_at

    def test_first_trial_accepted(self):
        log = []
        assert backtrack(self.trials(log), 1.0, 1.0, 0.5, 0.5, 0.5) == (0.5, 0.25, False)
        assert log == [0.5]

    def test_shrinks_to_first_passing_grid_point(self):
        log = []
        alpha, value, stalled = backtrack(self.trials(log), 1.0, 1.0, 4.0, 0.5, 0.5)
        assert (alpha, value, stalled) == (0.5, 0.25, False)
        assert log == [4.0, 2.0, 1.0, 0.5]

    def test_stall_returns_sub_floor_step(self):
        log = []
        alpha, value, stalled = backtrack(self.trials(log), -1.0, 1.0, 1.0, 0.5, 0.5)
        assert stalled and value is None
        assert alpha < BACKTRACK_FLOOR <= log[-1] and alpha == log[-1] * 0.5
        assert log == [0.5**k for k in range(len(log))]


class TestArmijo:
    def test_huge_alpha0_backtracks_below_curvature(self):
        ds = one_dim_ds(x=2.0, y=1.0)
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(1), [0], 0.25)
        # Quadratic curvature along theta: w * x^2 = 4 / 0.25 = 16.
        curvature = 16.0
        res = armijo_backtracking(surr, np.zeros(1), 1, alpha0=1e6)
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
        c = ARMIJO_C
        for _ in range(10):
            g = surr.grad(omega)
            val = surr.value(omega)
            res = armijo_backtracking(surr, omega, 1, alpha0=1.5)
            if res.inner_steps == 0:
                break
            assert surr.value(res.theta) <= val - c * res.last_alpha * (g @ g) + 1e-12
            omega = res.theta


def term_size(surrogate, theta) -> float:
    """The size of the terms `Surrogate.value` adds up at theta: the mean
    |consts|, the mean |linear term| and the proximity. The value's
    round-off is relative to these; the value itself can cancel to ~0."""
    batch = surrogate.batch
    f = batch.model.forward(theta, batch.rows)
    lin = np.abs((f - batch.z) * batch.coeffs)
    return float(np.mean(np.abs(batch.consts)) + np.sum(lin) / len(batch.consts)
                 + surrogate.scale * abs(surrogate.prox.values(f, batch.z)))


def parameter_armijo(surrogate, omega0, m, alpha0, shrink=0.8, c=0.5):
    """Armijo on theta from `Surrogate.value` and `grad` alone, the
    reference for `armijo_backtracking`; also returns the smallest gap
    between a trial value and its Armijo bound, relative to the size of
    the terms of the base and trial values."""
    omega, alpha, steps, gap = omega0.copy(), alpha0, 0, np.inf
    val = surrogate.value(omega)
    for _ in range(m):
        g = surrogate.grad(omega)
        gnorm2 = float(np.sum(g * g))
        if gnorm2 == 0.0:
            break
        alpha = alpha0
        while alpha >= BACKTRACK_FLOOR:
            trial = omega - alpha * g
            trial_val, bound = surrogate.value(trial), val - c * alpha * gnorm2
            size = max(term_size(surrogate, trial), term_size(surrogate, omega))
            gap = min(gap, abs(trial_val - bound) / size)
            if trial_val <= bound:
                break
            alpha *= shrink
        else:
            return InnerResult(omega, steps, stalled=True, last_alpha=alpha), gap
        omega, val = trial, trial_val
        steps += 1
    return InnerResult(omega, steps, last_alpha=alpha), gap


@st.composite
def armijo_problems(draw, cases):
    """(surrogate, omega0, m, alpha0) on a batch that may repeat rows."""
    n = draw(st.integers(2, 6))
    case = draw(st.sampled_from(cases))
    _, ds, model, loss, theta_t, rng = make_problem(
        case, n, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1)), draw(st.booleans())
    )
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    surr = stochastic(loss, model, ds, theta_t, idx, draw(st.floats(0.05, 2.0)), case[0])
    omega0 = theta_t + draw(st.sampled_from([0.0, 0.3])) * rng.normal(size=theta_t.size)
    alpha0 = 10.0 ** draw(st.floats(-14.0, 3.0))
    return surr, omega0, draw(st.integers(1, 8)), alpha0


LINK_CASES = [c for c in CASES if c[1] != "mlp"]


def cancelling_problem():
    """(surrogate, omega0, m, alpha0) on one linear row whose surrogate
    minimum is ~0. After four steps its trial values are ~1e-16, pure
    round-off, and on the fifth step the closed-form target-space trial
    accepts alpha 8 where the recomputed parameter-space one takes 6.4.
    These digits reproduce it; 8-digit roundings do not."""
    row, z = 0.3511756847214046, 0.06525919158626495
    batch = Batch(LinearModel(), np.array([z / row]), sp.csr_matrix([[row]]), np.zeros(1),
                  np.array([z]), np.array([0.8377580185481955]), np.array([1.2944172577250317]))
    return Surrogate(batch, SquaredProximity(np.ones(1))), np.array([0.7085523008474595]), 5, 10.0


class TestTargetSpaceArmijo:
    """Linear and softmax-linear surrogates run the line search on the
    batch logits; it must take the steps the parameter-space search takes."""

    @settings(max_examples=40, deadline=None)
    @given(armijo_problems(LINK_CASES))
    @example(problem=cancelling_problem())  # a gap of round-off only: discarded
    def test_matches_parameter_space_armijo(self, problem):
        surr, omega0, m, alpha0 = problem
        ref, gap = parameter_armijo(surr, omega0, m, alpha0)
        assume(gap > 1e-9)
        res = armijo_backtracking(surr, omega0, m, alpha0=alpha0)
        assert (res.inner_steps, res.stalled, res.last_alpha) == (
            ref.inner_steps, ref.stalled, ref.last_alpha
        )
        if m == 1:
            np.testing.assert_array_equal(res.theta, ref.theta)
        else:
            scale = np.max(np.abs(ref.theta))
            np.testing.assert_allclose(res.theta, ref.theta, rtol=1e-9, atol=1e-9 * scale)

    @settings(max_examples=40, deadline=None)
    @given(armijo_problems([c for c in CASES if c[1] == "mlp"]))
    def test_mlp_takes_the_parameter_space_path(self, problem):
        surr, omega0, m, alpha0 = problem
        ref, _ = parameter_armijo(surr, omega0, m, alpha0)
        res = armijo_backtracking(surr, omega0, m, alpha0=alpha0)
        np.testing.assert_array_equal(res.theta, ref.theta)
        assert (res.inner_steps, res.stalled, res.last_alpha) == (
            ref.inner_steps, ref.stalled, ref.last_alpha
        )

    @pytest.mark.parametrize("case", LINK_CASES)
    def test_no_oracle_call(self, case):
        _, ds, model, loss, theta_t, _ = make_problem(case, 5, 3, 11, False)
        counting = CountingLoss(loss)
        surr = stochastic(counting, model, ds, theta_t, [0, 2, 2, 4], 0.5, case[0])
        built = counting.calls
        res = armijo_backtracking(surr, theta_t, 8, alpha0=10.0)
        assert res.inner_steps > 1 and counting.calls == built

    @pytest.mark.parametrize("dense", [True, False])
    @pytest.mark.parametrize("case", [c for c in LINK_CASES if c[1] == "linear"])
    def test_m1_linear_solve_reads_its_start_value_from_the_batch(self, monkeypatch, case, dense):
        # One step from the batch's anchor: the base value is one
        # `Surrogate.value` call at the anchor array, which reads the frozen
        # batch loss, and the line's trials are closed-form, so nothing
        # evaluates `target_values`.
        _, ds, model, loss, theta_t, _ = make_problem(case, 6, 3, 17, dense)
        surr = stochastic(loss, model, ds, theta_t, [0, 2, 2, 5], 0.5, case[0])
        value, target_values = Surrogate.value, Surrogate.target_values
        at_anchor, evaluated = [], []
        monkeypatch.setattr(Surrogate, "value", lambda self, theta: (
            at_anchor.append(theta is self.batch.theta) or value(self, theta)))
        monkeypatch.setattr(Surrogate, "target_values", lambda self, fs: (
            evaluated.append(fs) or target_values(self, fs)))
        res = armijo_backtracking(surr, surr.batch.theta, 1, alpha0=10.0)
        assert res.inner_steps == 1 and not res.stalled
        assert at_anchor == [True] and evaluated == []

    def test_accepted_trial_is_not_recomputed(self, monkeypatch):
        # From the batch's anchor the start's value is the frozen batch
        # loss and its gradient reads the frozen targets z: no
        # `target_values` call and no softmax there. A mirror solve then
        # takes exactly one softmax per block of trials, inside the block,
        # and a step reuses its accepted trial: no softmax runs between a
        # block and the next gradient.
        _, ds, model, loss, theta_t, _ = make_problem(CASES[-1], 6, 3, 13, True)
        surr = stochastic(loss, model, ds, theta_t, [0, 2, 2, 5], 0.5, "entropy-mirror")
        events, searches = [], []

        def logging(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            return wrapped

        def counting_backtrack(value_at, *args):
            searches.append(0)

            def counted(a):
                searches[-1] += 1
                return value_at(a)
            return backtrack(counted, *args)

        monkeypatch.setattr(model, "link", logging("link", model.link))
        monkeypatch.setattr(Surrogate, "target_values", logging("value", Surrogate.target_values))
        monkeypatch.setattr(Surrogate, "link_values", logging("block", Surrogate.link_values))
        monkeypatch.setattr(Surrogate, "logit_grad", logging("grad", Surrogate.logit_grad))
        monkeypatch.setattr(inner_solvers, "backtrack", counting_backtrack)
        res = armijo_backtracking(surr, surr.batch.theta, 8, alpha0=10.0)
        blocks = sum(-(-trials // TRIAL_BLOCK) for trials in searches)
        assert res.inner_steps == 8 and sum(searches) > 8 and blocks > 8
        assert events[0] == "block" and "value" not in events
        assert events.count("block") == events.count("link") == blocks
        # Each block is one link; each gradient follows a block's link.
        for i, event in enumerate(events):
            if event == "link":
                assert events[i - 1] == "block"
            elif event == "grad":
                assert events[i - 2:i] == ["block", "link"]

    @pytest.mark.parametrize("case", LINK_CASES)
    def test_non_finite_coefficient_raises(self, case):
        _, ds, model, loss, theta_t, _ = make_problem(case, 5, 3, 12, True)
        surr = stochastic(loss, model, ds, theta_t, [1, 3], 0.5, case[0])
        coeffs = surr.batch.coeffs.copy()
        coeffs.flat[0] = np.nan
        bad = Surrogate(dataclasses.replace(surr.batch, coeffs=coeffs), surr.prox)
        with pytest.raises(DivergenceError):
            armijo_backtracking(bad, theta_t, 4)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_non_finite_gradient_on_the_quadratic_path_raises_at_its_step(self, sparse):
        # One row whose anchor logit is -1.5e308: the first step is accepted
        # (its trials are closed-form and finite) and moves the logit by
        # -5e307, past the largest float, so the second gradient is -inf.
        rows, theta = np.array([[1e77]]), np.array([-1.5e231])
        rows = sp.csr_matrix(rows) if sparse else rows
        z = LinearModel().forward(theta, rows)
        batch = Batch(LinearModel(), theta, rows, np.zeros(1), z, np.zeros(1), np.array([0.5]))
        surr = Surrogate(batch, SquaredProximity(np.array([5e-309])))
        for start in (theta, theta.copy()):
            with np.errstate(over="ignore"), pytest.raises(DivergenceError) as err:
                armijo_backtracking(surr, start, 4, alpha0=1e154)
            assert err.value.step == 1

    def test_finite_gradient_whose_squared_norm_overflows_does_not_raise(self):
        # ||g||^2 is inf although every entry of g is finite: the scan finds
        # nothing, so the search runs, and stalls because every trial is nan.
        rows, theta = np.array([[1.0]]), np.zeros(1)
        batch = Batch(LinearModel(), theta, rows, np.zeros(1), rows @ theta, np.zeros(1),
                      np.array([1e200]))
        surr = Surrogate(batch, SquaredProximity(np.ones(1)))
        with np.errstate(over="ignore", invalid="ignore"):
            res = armijo_backtracking(surr, theta, 3)
        assert res.stalled and res.inner_steps == 0


class TestExactSolve:
    def test_full_batch_newton_recovery(self):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=25, d=6, cond=100, noise=0.8, seed=6)
        )
        surr = build_deterministic(SquaredLoss(), LinearModel(), ds, np.zeros(6), 1.0)
        theta = exact_linear_solve(surr)
        direct, *_ = np.linalg.lstsq(np.asarray(ds.X), ds.y, rcond=None)
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
