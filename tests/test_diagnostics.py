import numpy as np
import pytest
import scipy.sparse as sp

from targetopt import diagnostics, models
from targetopt.data import Dataset, SyntheticSpec, generate_synthetic, max_abs_scale
from targetopt.diagnostics import (
    DegenerateCurvature,
    UnsupportedDiagnostic,
    counterexample_alphas,
    counterexample_check,
    expected_projection_error_sq,
    least_squares_optimum,
    noise_sigma2,
    projection_error,
    projection_error_bound,
    sigma2_z,
    zeta2,
)
from targetopt.losses import LogisticLoss, SquaredLoss, expit
from targetopt.models import LinearModel, MLPModel, row_norms2
from targetopt.optimizers import InnerOptions, RunConfig, ScheduleOptions, run
from targetopt.surrogates import build_analysis_q, build_stochastic, freeze


def counterexample():
    return generate_synthetic(SyntheticSpec("counterexample-quadratics"))


def interpolating(n=20, d=4, seed=0):
    return generate_synthetic(SyntheticSpec("interpolating", n=n, d=d, seed=seed))


class TestProjectionError:
    def test_exact_solve_single_example(self):
        # n=1 makes the analysis surrogate identical to the sampled one,
        # so an exact inner solve has zero projection error.
        ds = Dataset(X=sp.csr_matrix(np.array([[1.5]])), y=np.array([2.0]), task="regression")
        model, loss = LinearModel(), SquaredLoss()
        from helpers import stochastic
        from targetopt.inner_solvers import exact_linear_solve

        theta_t = np.array([0.2])
        eta = 0.5
        surr = stochastic(loss, model, ds, theta_t, [0], eta)
        theta_next = exact_linear_solve(surr, origin=theta_t)
        eps = projection_error(loss, ds, surr.batch, [0], eta, theta_next)
        assert eps <= 1e-10

    def test_no_inner_steps_gives_distance_to_analysis_targets(self):
        ds = generate_synthetic(SyntheticSpec("least-squares", n=8, d=3, cond=4, noise=0.5, seed=1))
        model, loss = LinearModel(), SquaredLoss()
        from helpers import analysis_q, stochastic
        from targetopt.inner_solvers import exact_linear_solve

        theta_t = np.random.default_rng(2).normal(size=3)
        eta = 0.3
        sampled = stochastic(loss, model, ds, theta_t, [4], eta).batch
        eps = projection_error(loss, ds, sampled, [4], eta, theta_t)
        q = analysis_q(loss, model, ds, theta_t, [4], eta)
        theta_bar = exact_linear_solve(q, origin=theta_t)
        z_t = model.forward(theta_t, ds.X)
        z_bar = model.forward(theta_bar, ds.X)
        assert eps == pytest.approx(np.linalg.norm(z_t - z_bar), abs=1e-12)

    def test_monotone_in_inner_iterations(self):
        ds = generate_synthetic(SyntheticSpec("least-squares", n=12, d=4, cond=10, noise=0.5, seed=3))
        model, loss = LinearModel(), SquaredLoss()
        theta_t = np.random.default_rng(4).normal(size=4)
        eta = 0.4
        vals = [
            expected_projection_error_sq(ds, loss, model, theta_t, eta, m)
            for m in (1, 2, 5, 10, 50)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_mlp_unsupported(self):
        from helpers import stochastic

        ds = generate_synthetic(SyntheticSpec("least-squares", n=5, d=2, seed=5))
        model = MLPModel(hidden=3)
        theta = np.zeros(model.dim(2))
        sampled = stochastic(SquaredLoss(), model, ds, theta, [0], 0.5).batch
        with pytest.raises(UnsupportedDiagnostic):
            projection_error(SquaredLoss(), ds, sampled, [0], 0.5, theta)


class TestNoise:
    def test_interpolating_zero(self):
        ds = interpolating(seed=6)
        _, z_star = least_squares_optimum(ds)
        assert abs(noise_sigma2(ds, SquaredLoss(), z_star)) <= 1e-20

    def test_single_example_zero(self):
        ds = Dataset(X=sp.csr_matrix(np.array([[2.0]])), y=np.array([3.0]), task="regression")
        assert noise_sigma2(ds, SquaredLoss(), np.array([0.0])) == 0.0

    def test_counterexample_hand_value(self):
        # z* = (0, 0); individual gradients (-1, 0) and (0, 1/2); averaged
        # gradient (-1/2, 1/4). Enumerating both deviations by hand gives
        # sigma^2 = 0.3125.
        ds = counterexample()
        val = noise_sigma2(ds, SquaredLoss(), np.zeros(2))
        assert val == pytest.approx(0.3125, abs=1e-12)
        assert val > 0


class TestSigmaZ:
    def test_interpolating_zero(self):
        assert abs(sigma2_z(interpolating(seed=7), SquaredLoss())) <= 1e-16

    def test_single_example_zero(self):
        ds = Dataset(X=sp.csr_matrix(np.array([[2.0]])), y=np.array([3.0]), task="regression")
        assert sigma2_z(ds, SquaredLoss()) == pytest.approx(0.0, abs=1e-16)

    def test_counterexample_closed_form(self):
        # min_theta h = h(0) = (1/2)(1/2 + 1/8)/... computed by hand: the
        # averaged loss at its minimizer theta*=0 is 5/16; each individual
        # loss attains 0, so sigma_z^2 = 5/16.
        assert sigma2_z(counterexample(), SquaredLoss()) == pytest.approx(5 / 16, abs=1e-12)

    def test_logistic_minimum_by_newton(self):
        # A non-squared loss takes the averaged loss's minimum from a long
        # full-batch GD run; a zero row's own minimum is its loss at 0, log 2.
        ds = generate_synthetic(SyntheticSpec("logistic", n=20, d=3, cond=2.0, noise=2.0, seed=4))
        X, y = ds.X.copy(), ds.y
        X[0] = 0.0
        theta = np.zeros(3)
        for _ in range(30):
            p = expit(-y * (X @ theta))
            grad = -(X.T @ (y * p)) / 20
            hess = (X.T * (p * (1 - p))) @ X / 20
            theta -= np.linalg.solve(hess, grad)
        best = float(np.mean(LogisticLoss().values(X @ theta, y)))
        got = sigma2_z(Dataset(X=X, y=y, task="binary"), LogisticLoss())
        assert got == pytest.approx(best - np.log(2) / 20, rel=1e-10)

    def test_dense_X_matches_csr(self):
        ds = generate_synthetic(SyntheticSpec("least-squares", n=12, d=3, noise=0.5, seed=8))
        ds.X[0] = 0.0  # a zero row takes the per-example branch
        csr = Dataset(X=sp.csr_matrix(ds.X), y=ds.y, task=ds.task)
        assert sigma2_z(ds, SquaredLoss()) == pytest.approx(sigma2_z(csr, SquaredLoss()), abs=1e-12)


class TestZeta2:
    def test_full_information_zero(self):
        # One example: sampling is deterministic, min and E commute.
        ds = Dataset(X=sp.csr_matrix(np.array([[1.2]])), y=np.array([0.7]), task="regression")
        val = zeta2(ds, SquaredLoss(), LinearModel(), np.array([0.4]), 0.5)
        assert abs(val) <= 1e-12

    def test_interpolating_point_zero(self):
        ds = interpolating(n=15, d=3, seed=8)
        theta_star, _ = least_squares_optimum(ds)
        val = zeta2(ds, SquaredLoss(), LinearModel(), theta_star, 0.5)
        assert abs(val) <= 1e-8

    def test_counterexample_positive_matches_enumeration(self):
        # Independent closed-form enumeration of the two scalar surrogates.
        ds = counterexample()
        theta_t = np.array([1.0])
        eta = 0.5
        got = zeta2(ds, SquaredLoss(), LinearModel(), theta_t, eta)

        # Surrogate minima in closed form: value drop from the anchor is
        # (eta/2) c^2 for the sampled quadratic (curvature x^2/eta along
        # theta), and (eta') c^2 x^2 / (2 (x1^2+x2^2) / ...) via the full
        # regularizer for the analysis surrogate.
        X = np.array([1.0, 2.0])
        y = np.array([1.0, -0.5])
        t = theta_t[0]
        c = X * t - y  # per-example residuals = derivatives
        ell = 0.5 * c**2
        # g-tilde minima: anchor value minus eta/2 * c_i^2.
        min_g = ell - 0.5 * eta * c**2
        # q-tilde: linear term c_i x_i (theta - t), regularizer
        # ||X||^2 (theta - t)^2 / (2 eta') with eta' = 2 eta.
        eta_p = eta * 2
        quad = (X @ X) / eta_p
        min_q = ell - 0.5 * (c * X) ** 2 / quad
        # Full surrogate: mean linear + mean quadratic with weight 1/eta.
        grad_full = np.mean(c * X)
        quad_full = np.mean(X * X) / eta
        min_full = np.mean(ell) - 0.5 * grad_full**2 / quad_full
        mu_g = min((X**2) / eta)
        mu_q = quad
        expected = (8.0 / min(mu_g, mu_q)) * (
            (min_full - np.mean(min_g)) + (min_full - np.mean(min_q))
        )
        assert got == pytest.approx(expected, rel=1e-10)
        assert got > 0

    def test_degenerate_curvature_raises(self):
        ds = Dataset(X=sp.csr_matrix(np.zeros((2, 2))), y=np.array([1.0, 2.0]), task="regression")
        with pytest.raises(DegenerateCurvature):
            zeta2(ds, SquaredLoss(), LinearModel(), np.zeros(2), 0.5)

    def test_run_on_a_zero_row_is_refused_before_any_step(self):
        ds = Dataset(X=sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 2.0]])),
                     y=np.array([1.0, 2.0, 0.5]), task="regression")
        cfg = RunConfig(optimizer="sso", T=2, batch_size=1, schedule=ScheduleOptions(eta0=0.5),
                        inner=InnerOptions(solver="exact"), diagnostics=("zeta2",))
        with pytest.raises(ValueError, match=r"row 1 \(from 0\) of the data is all zero"):
            run(cfg, ds, LinearModel(), SquaredLoss())
        cfg.diagnostics = ("eps",)  # eps reads no singleton
        assert np.isfinite(run(cfg, ds, LinearModel(), SquaredLoss()).rows[-1].eps)

    def test_freezes_each_singleton_once(self):
        # The full batch once (n rows) and each singleton once (n rows).
        class RowCountingLoss(SquaredLoss):
            rows = 0

            def grads(self, z, y):
                RowCountingLoss.rows += len(z)
                return super().grads(z, y)

        ds = interpolating(n=10, d=3, seed=4)
        zeta2(ds, RowCountingLoss(), LinearModel(), np.ones(3), 0.5)
        assert RowCountingLoss.rows == 20

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_singletons_are_row_views(self, monkeypatch, storage):
        # Each singleton reads its row as a view of X, with no gather: no
        # take_rows call, and the floats of freezing a gathered copy.
        ds = generate_synthetic(SyntheticSpec("least-squares", n=30, d=4, noise=0.2, seed=3))
        if storage == "csr":
            ds = Dataset(X=sp.csr_matrix(ds.X), y=ds.y, task=ds.task)
        loss, model, theta = SquaredLoss(), LinearModel(), np.full(4, 0.3)

        def gathered(loss, model, dataset, theta_t, eta_t):
            pairs = []
            for i in range(dataset.n):
                batch = freeze(loss, model, theta_t, models.take_rows(dataset.X, [i]), dataset.y[[i]])
                pairs.append((build_stochastic(loss, batch, eta_t),
                              build_analysis_q(loss, dataset, batch, [i], eta_t)))
            return pairs

        with monkeypatch.context() as patched:
            patched.setattr(diagnostics, "_singletons", gathered)
            want = (zeta2(ds, loss, model, theta, 0.5),
                    expected_projection_error_sq(ds, loss, model, theta, 0.5, 3))
        calls, take_rows = [], models.take_rows

        def counting(X, idx):
            calls.append(idx)
            return take_rows(X, idx)

        monkeypatch.setattr(models, "take_rows", counting)
        monkeypatch.setattr(diagnostics, "take_rows", counting, raising=False)
        got = (zeta2(ds, loss, model, theta, 0.5),
               expected_projection_error_sq(ds, loss, model, theta, 0.5, 3))
        assert calls == []
        assert got == want


def reference_counterexample(c, alphas, T, theta1, trials, seed):
    """One start's Monte Carlo run with fresh arrays and np.where at each
    step: the floats `counterexample_check` must give."""
    expected = theta1
    for t in range(T - 1):
        ca = c * alphas[t]
        expected = (1.0 - ca) * expected + 0.375 * ca
    rng = np.random.default_rng(seed)
    theta = np.full(trials, float(theta1))
    for t in range(T - 1):
        ca = c * alphas[t]
        pick_first = rng.random(trials) < 0.5
        theta = np.where(pick_first, theta - ca * (theta - 1.0), (1.0 - ca) * theta - 0.25 * ca)
    se = float(theta.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(theta.mean()), float(expected), se


class TestCounterexample:
    def test_constant_unit_step_hits_fixed_point(self):
        alphas = counterexample_alphas("constant", 50)
        for T in (2, 10, 50):
            _, closed, _ = counterexample_check(1.0, alphas, T, 1.0, trials=10, seed=0)
            assert closed == pytest.approx(0.375, abs=1e-12)

    def test_fixed_point_is_invariant(self):
        alphas = counterexample_alphas("sqrt-decay", 100)
        _, closed, _ = counterexample_check(0.7, alphas, 100, 0.375, trials=10, seed=0)
        assert closed == pytest.approx(0.375, abs=1e-12)

    def test_monte_carlo_agrees_with_closed_form(self):
        alphas = counterexample_alphas("constant", 60)
        mc, closed, se = counterexample_check(0.5, alphas, 60, 1.0, trials=40000, seed=1)
        assert abs(mc - closed) <= 3 * se

    def test_lower_bound_across_schedules(self):
        for kind in ("constant", "sqrt-decay", "exponential"):
            alphas = counterexample_alphas(kind, 100)
            for c in (0.1, 0.5, 1.0):
                for theta1 in (0.1, 1.0, 5.0):
                    _, closed, _ = counterexample_check(c, alphas, 100, theta1, trials=2, seed=0)
                    assert closed >= min(theta1, 0.375) - 1e-9

    def test_mc_path_matches_exact_solver_path(self):
        # One sampled trajectory replayed through the generic machinery:
        # the vectorized update formulas must match exact surrogate solves.
        from helpers import stochastic
        from targetopt.inner_solvers import exact_linear_solve

        ds = counterexample()
        model, loss = LinearModel(), SquaredLoss()
        c, T = 0.8, 20
        alphas = counterexample_alphas("sqrt-decay", T)
        rng = np.random.default_rng(5)
        picks = rng.random(T - 1) < 0.5

        theta_formula = 1.0
        theta_solver = np.array([1.0])
        for t in range(T - 1):
            ca = c * alphas[t]
            i = 0 if picks[t] else 1
            surr = stochastic(loss, model, ds, theta_solver, [i], ca)
            theta_solver = exact_linear_solve(surr, origin=theta_solver)
            if i == 0:
                theta_formula = theta_formula - ca * (theta_formula - 1.0)
            else:
                theta_formula = (1.0 - ca) * theta_formula - 0.25 * ca
            assert theta_solver[0] == pytest.approx(theta_formula, abs=1e-12)

    def test_rejects_bad_c(self):
        with pytest.raises(ValueError):
            counterexample_check(0.0, np.ones(10), 5, 1.0, 10)

    @pytest.mark.parametrize("kind", ["constant", "sqrt-decay", "exponential"])
    @pytest.mark.parametrize("T,trials", [(1, 5), (2, 1), (40, 2), (60, 3001)])
    def test_starts_as_rows_match_scalar_calls(self, kind, T, trials):
        alphas = counterexample_alphas(kind, max(T, 2))
        theta1s = np.array([0.1, 0.375, 1.0, 5.0, -2.0])
        for c in (0.1, 0.5, 1.0):
            rows = counterexample_check(c, alphas, T, theta1s, trials=trials, seed=11)
            assert all(isinstance(r, np.ndarray) and r.shape == (5,) for r in rows)
            for i, theta1 in enumerate(theta1s):
                scalar = counterexample_check(c, alphas, T, float(theta1), trials=trials, seed=11)
                want = reference_counterexample(c, alphas, T, float(theta1), trials, seed=11)
                assert all(type(v) is float for v in scalar)
                got = tuple(float(r[i]) for r in rows)
                assert [v.hex() for v in got] == [v.hex() for v in scalar] == [
                    v.hex() for v in want], (c, theta1)


class TestBound:
    def test_nonnegative_quantities(self):
        ds = generate_synthetic(SyntheticSpec("least-squares", n=10, d=3, cond=5, noise=0.3, seed=9))
        model, loss = LinearModel(), SquaredLoss()
        theta_t = np.random.default_rng(10).normal(size=3)
        _, z_star = least_squares_optimum(ds)
        assert noise_sigma2(ds, loss, z_star) >= -1e-10
        assert sigma2_z(ds, loss) >= -1e-10
        assert zeta2(ds, loss, model, theta_t, 0.5) >= -1e-10
        assert expected_projection_error_sq(ds, loss, model, theta_t, 0.5, 3) >= -1e-10

    def test_bound_direction_holds(self):
        ds = generate_synthetic(SyntheticSpec("least-squares", n=12, d=4, cond=20, noise=0.4, seed=11))
        model, loss = LinearModel(), SquaredLoss()
        _, z_star = least_squares_optimum(ds)
        rng = np.random.default_rng(12)
        for m in (1, 5, 20):
            theta_t = rng.normal(size=4)
            lhs = expected_projection_error_sq(ds, loss, model, theta_t, 0.5, m)
            rhs = projection_error_bound(ds, loss, model, theta_t, 0.5, m, z_star)
            assert lhs <= rhs + 1e-8


SPARSE_OPERATORS = ("__matmul__", "__rmatmul__", "multiply", "__getitem__", "tocsc")


def test_csr_rows_reach_scipy_only_as_container_and_kernels(monkeypatch):
    # Every gather and product of CSR rows runs in models on scipy's compiled
    # kernels, also for a scipy csr_matrix that a library caller hands in;
    # with scipy's sparse operators patched to raise, an exact SSO run with
    # both diagnostics, max-abs scaling and row_norms2 still give their floats.
    rng = np.random.default_rng(6)
    A = np.where(rng.random((9, 4)) < 0.5, rng.normal(size=(9, 4)), 0.0)
    A[:, 0] = rng.normal(size=9)  # zeta2 needs curvature in every singleton
    ds = Dataset(X=sp.csr_matrix(A), y=rng.normal(size=9), task="regression")
    cfg = RunConfig(optimizer="sso", T=4, batch_size=3, schedule=ScheduleOptions(eta0=0.5),
                    inner=InnerOptions(solver="exact"), diagnostics=("eps", "zeta2"))
    want_rows = run(cfg, ds, LinearModel(), SquaredLoss()).rows
    want_X = max_abs_scale(ds).X
    want_norms = row_norms2(ds.X)

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy sparse operator was called")

    for cls in type(ds.X).__mro__:
        for name in SPARSE_OPERATORS:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse)
    with pytest.raises(AssertionError):
        ds.X @ np.ones(4)
    rows = run(cfg, ds, LinearModel(), SquaredLoss()).rows
    assert [(r.loss, r.eps, r.zeta2) for r in rows] == [(r.loss, r.eps, r.zeta2) for r in want_rows]
    assert all(np.isfinite(r.eps) and np.isfinite(r.zeta2) for r in rows[1:])
    got_X = max_abs_scale(ds).X
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got_X, name), getattr(want_X, name))
    np.testing.assert_array_equal(row_norms2(ds.X), want_norms)
