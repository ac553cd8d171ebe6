from typing import get_args

import numpy as np
import pytest
import scipy.sparse as sp

from targetopt.data import Dataset, SyntheticSpec, generate_synthetic
from targetopt.diagnostics import least_squares_optimum
from targetopt.losses import LogisticLoss, MulticlassKLLoss, SquaredLoss, loss_value
from targetopt import optimizers, surrogates
from targetopt.inner_solvers import gd_fixed
from targetopt.models import LinearModel, SoftmaxLinearModel, spectral_norm, take_rows
from targetopt.optimizers import (
    InnerOptions,
    Optimizer,
    RunConfig,
    Sampling,
    ScheduleOptions,
    _batches,
    batch_param_grad,
    full_loss,
    run,
    theoretical_parametric_step,
)
from targetopt.schedules import LS_ALPHA0
from targetopt.surrogates import build_stochastic, freeze

from helpers import make_problem

OPTIMIZERS = get_args(Optimizer)
SAMPLING_MODES = get_args(Sampling)


def ls_dataset(n=30, d=5, cond=5.0, noise=0.4, seed=0, kind="least-squares"):
    return generate_synthetic(
        SyntheticSpec(kind, n=n, d=d, cond=cond, noise=noise, seed=seed)
    )


class TestSSO:
    def test_m1_matches_parametric_sgd(self):
        ds = ls_dataset(seed=1)
        model, loss = LinearModel(), SquaredLoss()
        alpha = theoretical_parametric_step(ds, loss, 5)
        common = dict(T=60, batch_size=5, seed=42, eval_every=1)
        sso = run(
            RunConfig(optimizer="sso", schedule=ScheduleOptions(eta0=0.5),
                      inner=InnerOptions(solver="gd", m=1, alpha=alpha), **common),
            ds, model, loss,
        )
        sgd = run(
            RunConfig(optimizer="sgd", schedule=ScheduleOptions(eta0=alpha), **common),
            ds, model, loss,
        )
        np.testing.assert_array_equal(sso.losses(), sgd.losses())

    def test_full_batch_exact_solve_one_step(self):
        ds = ls_dataset(n=40, d=8, cond=50, seed=2)
        model, loss = LinearModel(), SquaredLoss()
        cfg = RunConfig(optimizer="sso", T=1, batch_size=None,
                        schedule=ScheduleOptions(eta0=1.0), inner=InnerOptions(solver="exact"),
                        seed=0)
        trace = run(cfg, ds, model, loss)
        _, z_star = least_squares_optimum(ds)
        assert trace.final_loss() - loss_value(loss, z_star, ds.y) <= 1e-10

    def test_deterministic_descent(self):
        ds = ls_dataset(n=25, d=6, cond=100, noise=0.6, seed=3)
        model, loss = LinearModel(), SquaredLoss()
        cfg = RunConfig(optimizer="sso", T=50, batch_size=None,
                        schedule=ScheduleOptions(eta0=1.0 / loss.L),
                        inner=InnerOptions(solver="gd", m=3), seed=0, eval_every=1)
        trace = run(cfg, ds, model, loss)
        losses = trace.losses()
        assert np.all(np.diff(losses) <= 1e-12)

    @pytest.mark.parametrize("batch_size, norms", [(None, 1), (3, 6)])
    def test_spectral_norm_once_per_run_on_a_full_batch(self, monkeypatch, batch_size, norms):
        # gd's default step 1/beta reads the batch rows' spectral norm: a
        # full batch's once per run, smaller batches' once per build. The
        # thetas are those of a loop that bounds every build afresh.
        ds = ls_dataset(n=20, d=4, seed=3)
        model, loss = LinearModel(), SquaredLoss()
        cfg = RunConfig(optimizer="sso", T=6, batch_size=batch_size, record_theta=True,
                        schedule=ScheduleOptions(eta0=0.5), inner=InnerOptions(solver="gd", m=4))
        expected = [np.asarray(model.init_params(ds.d, np.random.default_rng(0)))]
        batches = _batches(ds, batch_size or ds.n, np.random.default_rng(0), "replacement", cfg.T)
        for _, rows, y_b in batches:
            batch = freeze(loss, model, expected[-1], rows, y_b)
            expected.append(gd_fixed(build_stochastic(loss, batch, 0.5), batch.theta, 4).theta)
        calls = []
        for module in (optimizers, surrogates):
            monkeypatch.setattr(module, "spectral_norm",
                                lambda X, f=spectral_norm: calls.append(X) or f(X))
        trace = run(cfg, ds, model, loss)
        assert len(calls) == norms
        for got, want in zip(trace.thetas, expected, strict=True):
            np.testing.assert_array_equal(got, want)

    def test_gd_default_step_on_a_zero_row(self):
        # A label-only LibSVM line is a zero row: its surrogate's smoothness
        # bound is 0 and its gradient exactly 0, so gd's m steps stay put.
        X = sp.csr_matrix(np.array([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]]))
        ds = Dataset(X=X, y=np.array([1.0, -1.0, 0.5]), task="regression")
        cfg = RunConfig(optimizer="sso", T=30, batch_size=1, eval_every=1,
                        schedule=ScheduleOptions(eta0=0.5), inner=InnerOptions(solver="gd", m=2))
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert [r.inner_steps for r in trace.rows] == [2 * t for t in range(31)]
        assert np.isfinite(trace.losses()).all()

    def test_oracle_accounting_b_per_step(self):
        ds = ls_dataset(seed=4)
        cfg = RunConfig(optimizer="sso", T=10, batch_size=3,
                        schedule=ScheduleOptions(eta0=0.5),
                        inner=InnerOptions(solver="gd", m=7), seed=0, eval_every=1)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        calls = [r.oracle_calls for r in trace.rows]
        assert calls == [3 * t for t in range(11)]
        # Inner iterations never touch the oracle, whatever m is.
        assert trace.rows[-1].inner_steps == 70

    def test_seed_determinism(self):
        ds = ls_dataset(seed=5)
        cfg = lambda: RunConfig(optimizer="sso", T=20, batch_size=4,
                                schedule=ScheduleOptions(eta0=0.4),
                                inner=InnerOptions(solver="armijo", m=5), seed=9, eval_every=1)
        a = run(cfg(), ds, LinearModel(), SquaredLoss())
        b = run(cfg(), ds, LinearModel(), SquaredLoss())
        np.testing.assert_array_equal(a.losses(), b.losses())
        assert [r.oracle_calls for r in a.rows] == [r.oracle_calls for r in b.rows]

    def test_epoch_shuffling_covers_dataset(self):
        ds = ls_dataset(n=12, seed=6)
        rng = np.random.default_rng(0)
        batches = _batches(ds, 4, rng, "shuffle", 3)
        seen = np.concatenate([next(batches)[0] for _ in range(3)])
        assert sorted(seen.tolist()) == list(range(12))

    def test_shuffled_batches_pinned(self):
        # The first three epoch-shuffled batches of n=7, b=3 at seed 0; the
        # third spans two permutations.
        ds = Dataset(X=np.arange(14.0).reshape(7, 2), y=np.arange(7.0), task="regression")
        batches = _batches(ds, 3, np.random.default_rng(0), "shuffle", 3)
        drawn = [next(batches) for _ in range(3)]
        assert [idx.tolist() for idx, _, _ in drawn] == [[2, 4, 3], [6, 5, 0], [1, 5, 2]]
        for idx, rows, labels in drawn:
            np.testing.assert_array_equal(rows, ds.X[idx])
            np.testing.assert_array_equal(labels, ds.y[idx])

    def test_log_growth_inner_rule(self):
        ds = ls_dataset(seed=7)
        cfg = RunConfig(optimizer="sso", T=5, batch_size=2, schedule=ScheduleOptions(eta0=0.5),
                        inner=InnerOptions(solver="gd", m=2, m_rule="log"), seed=0,
                        eval_every=1)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        per_step = np.diff([r.inner_steps for r in trace.rows])
        expected = [int(np.ceil(2 * np.log(t + 2))) for t in range(1, 6)]
        assert per_step.tolist() == expected

    def test_sls_schedule_runs(self):
        ds = ls_dataset(n=20, d=4, seed=8)
        cfg = RunConfig(optimizer="sso", T=30, batch_size=2,
                        schedule=ScheduleOptions(kind="target-line-search"),
                        inner=InnerOptions(solver="armijo", m=5), seed=1, eval_every=30)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert trace.final_loss() < trace.rows[0].loss
        # The line search reuses the frozen batch values: still b calls/step.
        assert trace.rows[-1].oracle_calls == 2 * 30

    def test_newton_variant_on_logistic(self):
        ds = ls_dataset(n=30, d=4, seed=9, kind="logistic", noise=0.1)
        loss = LogisticLoss()
        cfg = RunConfig(optimizer="sso", T=40, batch_size=None, variant="newton",
                        schedule=ScheduleOptions(eta0=0.5),
                        inner=InnerOptions(solver="armijo", m=10), seed=0, eval_every=40)
        trace = run(cfg, ds, LinearModel(), loss)
        assert trace.final_loss() < trace.rows[0].loss

    def test_mlp_deterministic_descent(self):
        # Non-convex model: full-batch surrogate descent with a line-search
        # inner solver still decreases the loss monotonically.
        from targetopt.models import MLPModel

        ds = ls_dataset(n=25, d=4, cond=3, noise=0.3, seed=30)
        model = MLPModel(hidden=6)
        cfg = RunConfig(optimizer="sso", T=25, batch_size=None,
                        schedule=ScheduleOptions(eta0=1.0),
                        inner=InnerOptions(solver="armijo", m=5), seed=0, eval_every=1)
        trace = run(cfg, ds, model, SquaredLoss())
        losses = trace.losses()
        assert np.all(np.diff(losses) <= 1e-12)
        assert losses[-1] < losses[0]

    def test_entropy_mirror_variant_multiclass(self):
        from targetopt.losses import MulticlassKLLoss, smoothed_expert_rows
        from targetopt.models import SoftmaxLinearModel

        rng = np.random.default_rng(31)
        n, d, K = 30, 5, 3
        X = sp.csr_matrix(rng.normal(size=(n, d)))
        y = smoothed_expert_rows(rng.integers(0, K, n), K, 0.1)
        ds = Dataset(X=X, y=y, task="multiclass", n_classes=K)
        model = SoftmaxLinearModel(K)
        loss = MulticlassKLLoss()
        # Full batch: multiplicative updates + KL projection decrease the loss.
        full = run(
            RunConfig(optimizer="sso", T=60, batch_size=None, variant="entropy-mirror",
                      schedule=ScheduleOptions(eta0=0.3),
                      inner=InnerOptions(solver="armijo", m=8), seed=0, eval_every=60),
            ds, model, loss,
        )
        assert full.final_loss() < full.rows[0].loss - 0.05
        # Stochastic batches converge with a proportionate step.
        stoch = run(
            RunConfig(optimizer="sso", T=300, batch_size=15, variant="entropy-mirror",
                      schedule=ScheduleOptions(eta0=0.1),
                      inner=InnerOptions(solver="armijo", m=8), seed=0, eval_every=300),
            ds, model, loss,
        )
        assert stoch.final_loss() < stoch.rows[0].loss - 0.05

    def test_sqrt_decay_and_exponential_schedules_run(self):
        ds = ls_dataset(n=20, d=4, seed=33)
        for kind in ("sqrt-decay", "exponential"):
            cfg = RunConfig(optimizer="sso", T=20, batch_size=2,
                            schedule=ScheduleOptions(kind=kind, eta0=0.5),
                            inner=InnerOptions(solver="gd", m=3), seed=0, eval_every=20)
            trace = run(cfg, ds, LinearModel(), SquaredLoss())
            assert np.isfinite(trace.final_loss())

    def test_adagrad_norm_schedule_etas_non_increasing(self):
        ds = ls_dataset(n=20, d=4, seed=34)
        cfg = RunConfig(optimizer="sso", T=25, batch_size=4,
                        schedule=ScheduleOptions(kind="adagrad-norm"),
                        inner=InnerOptions(solver="gd", m=2), seed=0, eval_every=1)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        etas = [r.eta for r in trace.rows[1:]]
        assert all(a >= b for a, b in zip(etas, etas[1:]))


def one_draw_per_batch(ds, b, rng, mode, T):
    """The batches of one rng draw and one take_rows per batch."""
    order = np.empty(0, dtype=int)
    for _ in range(T):
        if mode == "replacement":
            idx = rng.integers(0, ds.n, size=b)
        else:
            if order.size < b:
                order = np.concatenate([order, rng.permutation(ds.n)])
            idx, order = order[:b], order[b:]
        yield idx, take_rows(ds.X, idx), ds.y[idx]


def stored_arrays(rows):
    return [rows] if isinstance(rows, np.ndarray) else [rows.indptr, rows.indices, rows.data]


class TestBatchBlocks:
    """_batches draws and gathers several batches at once; they must be the
    batches of one draw per batch, and read-only."""

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize("b", [1, 3, 16])
    def test_same_batches_as_one_draw_per_batch(self, monkeypatch, mode, storage, b):
        # T * b is a whole number of permutations: the last block ends where
        # one ends, and drawing another there would change the end state.
        n, d, T = 17, 6, 34
        gen = np.random.default_rng(4)
        A = np.where(gen.random((n, d)) < 0.4, gen.normal(size=(n, d)), 0.0)
        A[5] = 0.0  # a row with no stored entries
        ds = Dataset(X=A if storage == "dense" else sp.csr_matrix(A), y=gen.normal(size=n),
                     task="regression")
        # Four to six batches per block, so T spans several blocks.
        monkeypatch.setattr(optimizers, "BLOCK_ENTRIES", 4 * b * d)
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = list(_batches(ds, b, rng, mode, T))
        want = list(one_draw_per_batch(ds, b, ref_rng, mode, T))
        assert len(got) == T
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for (idx, rows, labels), (ref_idx, ref_rows, ref_labels) in zip(got, want):
            np.testing.assert_array_equal(idx, ref_idx)
            np.testing.assert_array_equal(labels, ref_labels)
            assert type(rows) is type(ref_rows) and rows.shape == ref_rows.shape
            for a, ref in zip(stored_arrays(rows), stored_arrays(ref_rows)):
                np.testing.assert_array_equal(a, ref)
                assert a.dtype == ref.dtype
            for a in [idx, labels] + stored_arrays(rows):
                assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stored_arrays(got[0][1])[-1][0] = 1.0

    @pytest.mark.parametrize("mode", SAMPLING_MODES)
    def test_full_batch_is_the_dataset(self, mode):
        ds = ls_dataset(n=9, seed=2)
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        got = list(_batches(ds, 9, rng, mode, 4))
        assert len(got) == 4 and rng.bit_generator.state == state
        for idx, rows, labels in got:
            np.testing.assert_array_equal(idx, np.arange(9))
            assert rows is ds.X and labels is ds.y


class TestTargetSpaceEquivalence:
    def test_exact_solve_equals_projected_target_sgd(self):
        # Singleton batches on a linear model: exact surrogate minimization
        # must track explicit target-space SGD followed by a coordinate
        # projection (both sides solved with minimum-norm conventions).
        from helpers import stochastic
        from targetopt.inner_solvers import exact_linear_solve

        ds = ls_dataset(n=15, d=4, cond=8, noise=0.5, seed=10)
        model, loss = LinearModel(), SquaredLoss()
        X = np.asarray(ds.X)
        eta = 0.45
        rng = np.random.default_rng(11)

        theta_a = np.zeros(ds.d)  # surrogate path
        theta_b = np.zeros(ds.d)  # projection path
        for step in range(50):
            i = int(rng.integers(0, ds.n))
            # Side A: minimize the surrogate in closed form.
            surr = stochastic(loss, model, ds, theta_a, [i], eta)
            theta_a = exact_linear_solve(surr)
            # Side B: target-space SGD on coordinate i, then solve the
            # single-coordinate consistency equation by least squares.
            z_i = X[i] @ theta_b
            z_half = z_i - eta * loss.grads(np.array([z_i]), ds.y[[i]])[0]
            theta_b, *_ = np.linalg.lstsq(X[i : i + 1], np.array([z_half]), rcond=None)
            assert np.linalg.norm(X @ theta_a - X @ theta_b) <= 1e-8


class TestParametricBaselines:
    def test_sgd_stationary_at_optimum(self):
        X = sp.csr_matrix(np.eye(3))
        ds = Dataset(X=X, y=np.zeros(3), task="regression")
        cfg = RunConfig(optimizer="sgd", T=10, batch_size=None, seed=0, eval_every=1)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert np.all(trace.losses() == 0.0)

    def test_sgd_oracle_calls(self):
        ds = ls_dataset(seed=12)
        cfg = RunConfig(optimizer="sgd", T=25, batch_size=4, seed=0, eval_every=25)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert trace.rows[-1].oracle_calls == 4 * 25

    def test_full_batch_gd_matches_scalar_recursion(self):
        # Two decoupled 1-d problems: with step 1/L the slow coordinate
        # contracts by exactly (1 - mu/L) per iteration.
        X = sp.csr_matrix(np.diag([1.0, 2.0]))
        y = np.array([1.0, 1.0])
        ds = Dataset(X=X, y=y, task="regression")
        loss = SquaredLoss()
        L = theoretical_parametric_step(ds, loss)  # = 1/(2 L_theta)
        step = 2 * L  # exactly 1/L_theta
        T = 12
        cfg = RunConfig(optimizer="sgd", T=T, batch_size=None,
                        schedule=ScheduleOptions(eta0=step), seed=0, eval_every=1)
        trace = run(cfg, ds, LinearModel(), loss)
        # Closed form: theta1_t = (1 - mu/L_theta)^t-scaled approach to 1.
        Ltheta = 2.0 / 2  # lambda_max(X^T X)/n = 4/2 ... per-coordinate 2^2/2
        h1_curv = 1.0 / 2  # coordinate 1 curvature of averaged loss
        h2_curv = 4.0 / 2
        ratio = 1 - step * h1_curv
        theta1 = np.array([0.0, 0.0])
        for _ in range(T):
            theta1 = theta1 - step * np.array(
                [h1_curv * (theta1[0] - 1.0), h2_curv * (theta1[1] - 0.5)]
            )
        z = X @ theta1
        np.testing.assert_allclose(trace.final_loss(), loss_value(loss, z, y), atol=1e-14)
        assert abs(theta1[0] - 1.0) == pytest.approx(ratio**T, abs=1e-12)

    def test_sls_zero_gradient_takes_no_step(self):
        # At a zero batch gradient SLS keeps theta and reports eta0 without
        # a search, still paying the batch's oracle calls.
        ds = Dataset(X=sp.csr_matrix(np.eye(3)), y=np.zeros(3), task="regression")
        cfg = RunConfig(optimizer="sls", T=4, batch_size=2, seed=0, eval_every=1,
                        record_theta=True)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert [r.eta for r in trace.rows[1:]] == [LS_ALPHA0] * cfg.T
        assert [r.oracle_calls for r in trace.rows] == [0, 2, 4, 6, 8]
        assert all(np.array_equal(theta, np.zeros(3)) for theta in trace.thetas)
        assert trace.inner_stalls == 0

    def test_adam_zero_gradient_stationary(self):
        X = sp.csr_matrix(np.eye(2))
        ds = Dataset(X=X, y=np.zeros(2), task="regression")
        cfg = RunConfig(optimizer="adam", T=15, batch_size=None, seed=0, eval_every=1)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert np.all(trace.losses() == 0.0)

    def test_adam_reaches_optimum(self):
        ds = ls_dataset(n=40, d=5, seed=13)
        cfg = RunConfig(optimizer="adam", T=300, batch_size=None,
                        schedule=ScheduleOptions(eta0=0.05), seed=0, eval_every=300)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        _, z_star = least_squares_optimum(ds)
        assert trace.final_loss() <= loss_value(SquaredLoss(), z_star, ds.y) + 1e-6

    def test_adagrad_matches_reference_update(self):
        ds = ls_dataset(n=10, d=3, seed=14)
        model, loss = LinearModel(), SquaredLoss()
        cfg = RunConfig(optimizer="adagrad", T=6, batch_size=None, seed=0,
                        schedule=ScheduleOptions(eta0=0.3), eval_every=1)
        trace = run(cfg, ds, model, loss)
        theta = np.zeros(3)
        acc = np.zeros(3)
        coord_steps = []
        for _ in range(6):
            g = batch_param_grad(loss, model, theta, ds.X, ds.y)
            acc += g * g
            coord_steps.append(0.3 / (np.sqrt(acc) + 1e-10))
            theta = theta - coord_steps[-1] * g
        final = full_loss(loss, ds, model.forward(theta, ds.X))
        np.testing.assert_allclose(trace.final_loss(), final, atol=1e-14)
        steps = np.array(coord_steps)
        assert np.all(np.diff(steps, axis=0) <= 0)  # per-coordinate monotone

    def test_sls_accepted_steps_satisfy_armijo(self):
        ds = ls_dataset(n=20, d=4, cond=10, seed=15)
        model, loss = LinearModel(), SquaredLoss()
        cfg = RunConfig(optimizer="sls", T=25, batch_size=5, seed=3, eval_every=1)
        trace = run(cfg, ds, model, loss)
        # Replay the run: same derived sampling stream, recorded step sizes.
        rng = np.random.default_rng(3)
        theta = model.init_params(ds.d, rng)
        batches = _batches(ds, 5, rng, "replacement", cfg.T)
        for row in trace.rows[1:]:
            idx, _, _ = next(batches)
            z = model.forward(theta, ds.X[idx])
            base = float(np.mean(loss.values(z, ds.y[idx])))
            g = batch_param_grad(loss, model, theta, ds.X[idx], ds.y[idx])
            step = row.eta
            z_new = model.forward(theta - step * g, ds.X[idx])
            trial = float(np.mean(loss.values(z_new, ds.y[idx])))
            assert trial <= base - 0.5 * step * float(g @ g) + 1e-12
            theta = theta - step * g
        final = full_loss(loss, ds, model.forward(theta, ds.X))
        np.testing.assert_allclose(final, trace.final_loss(), atol=1e-12)


class TestSVRG:
    def test_control_variate_zero_variance_at_snapshot(self):
        ds = ls_dataset(n=12, d=3, seed=16)
        model, loss = LinearModel(), SquaredLoss()
        theta = np.random.default_rng(17).normal(size=3)
        mu = batch_param_grad(loss, model, theta, ds.X, ds.y)
        estimates = np.array(
            [
                batch_param_grad(loss, model, theta, ds.X[[i]], ds.y[[i]])
                - batch_param_grad(loss, model, theta, ds.X[[i]], ds.y[[i]])
                + mu
                for i in range(ds.n)
            ]
        )
        assert np.allclose(estimates.var(axis=0), 0.0)

    def test_interpolating_linear_convergence(self):
        ds = ls_dataset(n=40, d=6, cond=4, seed=18, kind="interpolating", noise=0.0)
        cfg = RunConfig(optimizer="svrg", T=4000, batch_size=1, seed=0, eval_every=4000)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert trace.final_loss() <= 1e-10

    def test_epoch_oracle_accounting(self):
        ds = ls_dataset(n=20, seed=19)
        b, freq = 4, 5
        cfg = RunConfig(optimizer="svrg", T=freq, batch_size=b,
                        svrg_snapshot_freq=freq, seed=0, eval_every=1)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        # One snapshot (n calls) plus 2b per update step.
        assert trace.rows[-1].oracle_calls == ds.n + 2 * b * freq


class TestTraceContents:
    def test_rows_record_costs(self):
        ds = ls_dataset(seed=20)
        cfg = RunConfig(optimizer="sso", T=8, batch_size=2, schedule=ScheduleOptions(eta0=0.5),
                        inner=InnerOptions(solver="gd", m=3), tau=100.0, seed=0, eval_every=2)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        for row in trace.rows:
            assert row.sim_cost == row.oracle_calls * 100.0 + row.inner_steps
        assert [r.outer_t for r in trace.rows] == [0, 2, 4, 6, 8]

    def test_validation_errors(self):
        ds = ls_dataset(seed=21)
        with pytest.raises(ValueError):
            RunConfig(optimizer="sso", T=0).validate(ds.n)
        with pytest.raises(ValueError):
            RunConfig(optimizer="sso", batch_size=100).validate(ds.n)
        with pytest.raises(ValueError):
            RunConfig(optimizer="nope").validate(ds.n)

    @pytest.mark.parametrize(
        "field, message",
        [("optimizer", "^optimizer must be one of .*, not 'nope'$"),
         ("variant", "^variant must be one of .*, not 'nope'$"),
         ("inner_solver", "^inner.solver must be one of .*, not 'nope'$"),
         ("inner_m_rule", "^inner.m_rule must be one of .*, not 'constnat'$")],
        ids=["optimizer-unknown name", "variant-unknown name", "inner_solver-unknown name",
             "inner_m_rule-unknown name"],
    )
    def test_run_rejects_unknown_name_before_any_step(self, field, message):
        class Unevaluated(SquaredLoss):
            def values(self, z, y):
                raise AssertionError("the loss was evaluated before validation")

        ds = ls_dataset(seed=22)
        cfg = RunConfig(optimizer="sso", T=3, batch_size=2)
        if field == "inner_solver":
            cfg.inner.solver = "nope"
        elif field == "inner_m_rule":
            cfg.inner.m_rule = "constnat"
        else:
            setattr(cfg, field, "nope")
        with pytest.raises(ValueError, match=message):
            run(cfg, ds, LinearModel(), Unevaluated())

    @pytest.mark.parametrize("model, loss, message", [
        (LinearModel(), MulticlassKLLoss(), "^loss 'multiclass-kl' needs model 'softmax-linear', "
                                            "not 'linear'$"),
        (SoftmaxLinearModel(3), SquaredLoss(), "^model 'softmax-linear' needs loss "
                                               "'multiclass-kl', not 'squared'$"),
    ], ids=["kl-linear", "softmax-squared"])
    def test_run_rejects_a_loss_model_pair_before_any_step(self, model, loss, message):
        def unevaluated(theta, rows):
            raise AssertionError("the model was evaluated before the pairing check")

        model.forward = unevaluated
        with pytest.raises(ValueError, match=message):
            run(RunConfig(optimizer="sgd", T=3), ls_dataset(seed=22), model, loss)

    def test_resolve_fixes_every_default_in_a_copy(self):
        ds, loss = ls_dataset(n=30, seed=22), SquaredLoss()
        cfg = RunConfig(optimizer="svrg", T=3, batch_size=None)
        full = cfg.resolve(ds, LinearModel(), loss)
        assert (full.batch_size, full.svrg_snapshot_freq) == (30, 1)
        assert full.schedule.eta0 == theoretical_parametric_step(ds, loss)
        assert (cfg.batch_size, cfg.svrg_snapshot_freq, cfg.schedule.eta0) == (None, None, None)
        cfg.batch_size = 4
        assert cfg.resolve(ds, LinearModel(), loss).svrg_snapshot_freq == 8  # ceil(30 / 4)
        assert full.resolve(ds, LinearModel(), loss) == full


class TestEveryOptimizer:
    def test_runners_are_the_optimizer_choices(self):
        # A runner without its name in `Optimizer`, or a name without its
        # runner, fails here.
        assert set(optimizers.RUNNERS) == set(OPTIMIZERS)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_record_theta(self, optimizer):
        ds = ls_dataset(n=20, d=4, seed=22)
        model, loss = LinearModel(), SquaredLoss()
        cfg = RunConfig(optimizer=optimizer, T=7, batch_size=5,
                        schedule=ScheduleOptions(eta0=0.5), seed=0, eval_every=3,
                        record_theta=True)
        trace = run(cfg, ds, model, loss)
        assert len(trace.thetas) == cfg.T + 1
        assert full_loss(loss, ds, model.forward(trace.thetas[-1], ds.X)) == trace.final_loss()

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_dense_X_matches_csr(self, optimizer):
        ds = ls_dataset(n=20, d=4, seed=23, kind="logistic", noise=0.1)
        csr = Dataset(X=sp.csr_matrix(ds.X), y=ds.y, task=ds.task)
        loss = LogisticLoss()
        inner = InnerOptions(solver="armijo", m=3) if optimizer == "sso" else InnerOptions()
        cfg = lambda: RunConfig(optimizer=optimizer, T=15, batch_size=5,
                                schedule=ScheduleOptions(eta0=0.5),
                                inner=inner, seed=1, eval_every=1)
        a = run(cfg(), csr, LinearModel(), loss)
        b = run(cfg(), ds, LinearModel(), loss)
        np.testing.assert_allclose(b.losses(), a.losses(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_schedule_eta0_is_the_base_step(self, optimizer):
        # schedule.eta0 is every optimizer's outer step; SLS backtracks from it.
        ds = ls_dataset(n=20, d=4, seed=25)
        cfg = RunConfig(optimizer=optimizer, T=3, batch_size=5,
                        schedule=ScheduleOptions(eta0=0.3), seed=0, eval_every=1)
        eta = run(cfg, ds, LinearModel(), SquaredLoss()).rows[1].eta
        if optimizer == "sls":
            assert any(eta == 0.3 * 0.5**k for k in range(60)), eta
        else:
            assert eta == 0.3

    @pytest.mark.parametrize("optimizer", OPTIMIZERS)
    def test_nonpositive_eta0_rejected(self, optimizer):
        cfg = RunConfig(optimizer=optimizer, T=3, schedule=ScheduleOptions(eta0=0.0))
        with pytest.raises(ValueError, match="eta0 must be positive"):
            run(cfg, ls_dataset(n=20, d=4, seed=25), LinearModel(), SquaredLoss())

    def test_stalled_inner_solves_are_counted(self):
        ds = ls_dataset(seed=24)
        cfg = RunConfig(optimizer="sso", T=5, batch_size=4, schedule=ScheduleOptions(eta0=0.5),
                        inner=InnerOptions(solver="armijo", m=3, alpha=1e-14), seed=0)
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert trace.inner_stalls == 5
        assert trace.rows[-1].inner_steps == 0

    @pytest.mark.parametrize("optimizer, kind", [("sls", "constant"), ("sso", "target-line-search")])
    def test_stalled_line_searches_are_counted(self, optimizer, kind):
        # A first trial below the backtrack floor stalls every search.
        ds = ls_dataset(seed=24)
        cfg = RunConfig(optimizer=optimizer, T=5, batch_size=4, seed=0,
                        schedule=ScheduleOptions(kind=kind, eta0=1e-14),
                        inner=InnerOptions(solver="gd"))
        assert run(cfg, ds, LinearModel(), SquaredLoss()).inner_stalls == cfg.T

    @pytest.mark.parametrize("optimizer, solver", [("sgd", "gd"), ("sso", "gd"), ("sso", "armijo")])
    def test_adagrad_norm_run_from_an_exact_optimum(self, optimizer, solver):
        # y = 0 and theta_0 = 0: every gradient is zero, so adagrad-norm
        # has accumulated nothing and must keep its first step size.
        ds = Dataset(X=sp.csr_matrix(np.eye(3)), y=np.zeros(3), task="regression")
        cfg = RunConfig(optimizer=optimizer, T=4, batch_size=None, seed=0, eval_every=1,
                        schedule=ScheduleOptions(kind="adagrad-norm", eta0=0.5),
                        inner=InnerOptions(solver=solver))
        trace = run(cfg, ds, LinearModel(), SquaredLoss())
        assert np.all(trace.losses() == 0.0)
        assert [r.eta for r in trace.rows[1:]] == [0.5] * cfg.T


class RecordingModel(LinearModel):
    """A linear model that records the rows of every call."""

    def __init__(self):
        self.forward_rows, self.grad_rows = [], []

    def forward(self, theta, rows):
        self.forward_rows.append(rows)
        return super().forward(theta, rows)

    def param_grad(self, theta, rows, coeffs, f):
        self.grad_rows.append(rows)
        return super().param_grad(theta, rows, coeffs, f)


class TestOneOraclePerBatch:
    @pytest.mark.parametrize("optimizer, kind", [
        ("sso", "constant"), ("sso", "target-line-search"), ("sso", "adagrad-norm"),
        ("sls", "constant"),
    ])
    def test_one_forward_at_the_anchor_per_outer_step(self, optimizer, kind):
        ds = ls_dataset(n=30, d=5, seed=25)
        model = RecordingModel()
        inner = InnerOptions(solver="exact") if optimizer == "sso" else InnerOptions()
        cfg = RunConfig(optimizer=optimizer, T=10, batch_size=5, seed=0, eval_every=1,
                        schedule=ScheduleOptions(kind=kind), inner=inner)
        trace = run(cfg, ds, model, SquaredLoss())
        on_batch = sum(rows is not ds.X for rows in model.forward_rows)
        # The exact solve makes no forward call; an SLS step that accepted
        # eta = LS_ALPHA0 / 2^k made k + 1 trial forwards.
        trials = 0
        if optimizer == "sls":
            trials = sum(round(np.log2(LS_ALPHA0 / r.eta)) + 1 for r in trace.rows[1:])
        assert on_batch - trials == cfg.T

    @pytest.mark.parametrize("optimizer", ["sso", "sgd", "adam"])
    def test_one_forward_on_X_per_recorded_row(self, optimizer):
        # The row's loss and gradient norm share one set of targets.
        ds = ls_dataset(n=30, d=5, seed=27)
        model = RecordingModel()
        cfg = RunConfig(optimizer=optimizer, T=6, batch_size=5, seed=0, eval_every=2,
                        schedule=ScheduleOptions(eta0=0.1))
        trace = run(cfg, ds, model, SquaredLoss())
        assert sum(rows is ds.X for rows in model.forward_rows) == len(trace.rows) == 4

    def test_sgd_step_on_softmax_runs_one_softmax(self, monkeypatch):
        # The gradient pulls the coefficients back through the step's own
        # targets instead of running the softmax again.
        _, ds, model, loss, _, _ = make_problem(("smoothness", "softmax", "kl"), 12, 3, 28, True)
        sizes, link = [], model.link
        monkeypatch.setattr(model, "link", lambda logits: sizes.append(len(logits)) or link(logits))
        cfg = RunConfig(optimizer="sgd", T=5, batch_size=4, seed=0, eval_every=5,
                        schedule=ScheduleOptions(eta0=0.1))
        run(cfg, ds, model, loss)
        assert sizes.count(4) == cfg.T

    @pytest.mark.parametrize("optimizer, solver", [
        ("sso", "exact"), ("sso", "gd"), ("sgd", "gd"), ("svrg", "gd"),
    ])
    def test_full_batch_runs_pass_X_itself(self, optimizer, solver):
        ds = ls_dataset(n=20, d=4, seed=26)
        model = RecordingModel()
        cfg = RunConfig(optimizer=optimizer, T=4, batch_size=None, seed=0, eval_every=2,
                        schedule=ScheduleOptions(eta0=0.5), inner=InnerOptions(solver=solver))
        run(cfg, ds, model, SquaredLoss())
        assert model.forward_rows and model.grad_rows
        assert all(rows is ds.X for rows in model.forward_rows + model.grad_rows)
