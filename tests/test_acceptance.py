"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import contextlib
import os
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from targetopt.data import Dataset, SyntheticSpec, generate_synthetic, parse_libsvm
from targetopt.diagnostics import (
    counterexample_alphas,
    counterexample_check,
    expected_projection_error_sq,
    least_squares_optimum,
    noise_sigma2,
    projection_error_bound,
    sigma2_z,
    zeta2,
)
from targetopt.harness import run_experiment
from targetopt.inner_solvers import exact_linear_solve
from targetopt.losses import (
    LogisticLoss,
    MulticlassKLLoss,
    SquaredLoss,
    loss_value,
    smoothed_expert_rows,
)
from targetopt.models import LinearModel, MLPModel, SoftmaxLinearModel
from targetopt.optimizers import (
    InnerOptions,
    RunConfig,
    ScheduleOptions,
    run,
    theoretical_parametric_step,
)
from targetopt.surrogates import build_deterministic

from helpers import analysis_q, stochastic


@contextlib.contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {name}: PASS")


def test_01_m1_equivalence():
    with criterion(1, "m=1 matches parametric SGD"):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=100, d=20, cond=10.0, noise=0.5, seed=0)
        )
        model, loss = LinearModel(), SquaredLoss()
        alpha = theoretical_parametric_step(ds, loss, 10)
        common = dict(T=200, batch_size=10, seed=7, eval_every=200, record_theta=True)
        start = time.perf_counter()
        sso = run(
            RunConfig(optimizer="sso", variant="smoothness",
                      schedule=ScheduleOptions(eta0=0.5),
                      inner=InnerOptions(solver="gd", m=1, alpha=alpha), **common),
            ds, model, loss,
        )
        sgd = run(
            RunConfig(optimizer="sgd", schedule=ScheduleOptions(eta0=alpha), **common),
            ds, model, loss,
        )
        elapsed = time.perf_counter() - start
        assert len(sso.thetas) == len(sgd.thetas) == 201
        dev = max(
            float(np.max(np.abs(a - b))) for a, b in zip(sso.thetas, sgd.thetas)
        )
        assert dev <= 1e-10, f"max deviation {dev}"
        assert elapsed < 1.0, f"runtime {elapsed:.2f}s"


def test_02_target_space_equivalence():
    with criterion(2, "exact solve equals projected target-space SGD"):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=30, d=6, cond=8.0, noise=0.5, seed=1)
        )
        model, loss = LinearModel(), SquaredLoss()
        X = np.asarray(ds.X)
        eta = 0.4
        rng = np.random.default_rng(2)
        theta_a = np.zeros(ds.d)
        theta_b = np.zeros(ds.d)
        worst = 0.0
        for _ in range(50):
            i = int(rng.integers(0, ds.n))
            surr = stochastic(loss, model, ds, theta_a, [i], eta)
            theta_a = exact_linear_solve(surr)
            z_i = X[i] @ theta_b
            z_half = z_i - eta * loss.grads(np.array([z_i]), ds.y[[i]])[0]
            theta_b, *_ = np.linalg.lstsq(X[i : i + 1], np.array([z_half]), rcond=None)
            worst = max(worst, float(np.linalg.norm(X @ theta_a - X @ theta_b)))
        assert worst <= 1e-8, f"max target deviation {worst}"


def test_03_newton_recovery():
    with criterion(3, "one exact full-batch solve reaches the least-squares fit"):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=60, d=12, cond=100.0, noise=0.7, seed=3)
        )
        model, loss = LinearModel(), SquaredLoss()
        cfg = RunConfig(optimizer="sso", T=1, batch_size=None,
                        schedule=ScheduleOptions(eta0=1.0), inner=InnerOptions(solver="exact"),
                        seed=0)
        trace = run(cfg, ds, model, loss)
        _, z_star = least_squares_optimum(ds)
        gap = trace.final_loss() - loss_value(loss, z_star, ds.y)
        assert gap <= 1e-10, f"loss gap {gap}"


def test_04_majorization_and_descent():
    with criterion(4, "surrogate majorizes the loss; full-batch descent is monotone"):
        # Upper bound at eta = 1/L over 1000 random parameter points.
        ds = generate_synthetic(
            SyntheticSpec("logistic", n=50, d=10, cond=5.0, noise=0.4, seed=4)
        )
        model, loss = LinearModel(), LogisticLoss()
        rng = np.random.default_rng(5)
        theta_t = rng.normal(size=ds.d)
        surr = build_deterministic(loss, model, ds, theta_t, 1.0 / loss.L)
        worst = np.inf
        for _ in range(1000):
            theta = rng.normal(scale=3.0, size=ds.d)
            h = loss_value(loss, model.forward(theta, ds.X), ds.y)
            worst = min(worst, surr.value(theta) - h)
        assert worst >= -1e-10, f"worst slack {worst}"

        # Monotone full-batch descent with the default 1/beta inner step.
        cfg = RunConfig(optimizer="sso", T=100, batch_size=None,
                        schedule=ScheduleOptions(eta0=1.0 / loss.L),
                        inner=InnerOptions(solver="gd", m=5), seed=0, eval_every=1)
        trace = run(cfg, ds, model, loss)
        diffs = np.diff(trace.losses())
        assert np.all(diffs <= 1e-12), f"max increase {diffs.max()}"


def test_05_counterexample_lower_bound():
    with criterion(5, "two-quadratic instance keeps its expectation bias"):
        start = time.perf_counter()
        T, trials = 200, 100000
        for kind in ("constant", "sqrt-decay", "exponential"):
            alphas = counterexample_alphas(kind, T)
            for c in (0.1, 0.5, 1.0):
                for theta1 in (0.1, 1.0, 5.0):
                    mc, closed, se = counterexample_check(
                        c, alphas, T, theta1, trials=trials, seed=11
                    )
                    bound = min(theta1, 0.375) - 1e-9
                    assert closed >= bound, (kind, c, theta1, closed)
                    assert mc >= bound - 3 * se, (kind, c, theta1, mc)
                    assert abs(mc - closed) <= 3 * se + 1e-12, (
                        kind, c, theta1, mc, closed, se,
                    )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s"


def test_06_interpolation_regime():
    with criterion(6, "interpolating instance: fast convergence, zero noise terms"):
        ds = generate_synthetic(
            SyntheticSpec("interpolating", n=200, d=50, cond=1.0, seed=6)
        )
        model, loss = LinearModel(), SquaredLoss()
        # Constant step 1/(2 L n) with L the target-vector smoothness of the
        # averaged loss (L_coord / n), i.e. a per-coordinate step 1/(2 L_coord).
        eta = 1.0 / (2.0 * (loss.L / ds.n) * ds.n)
        first = build_deterministic(loss, model, ds, np.zeros(ds.d), eta)
        alpha = 1.0 / first.smoothness_bound()
        cfg = RunConfig(optimizer="sso", T=500, batch_size=None,
                        schedule=ScheduleOptions(eta0=eta),
                        inner=InnerOptions(solver="gd", m=20, alpha=alpha), seed=0,
                        eval_every=500, record_theta=True)
        trace = run(cfg, ds, model, loss)
        assert trace.final_loss() <= 1e-6, f"final loss {trace.final_loss()}"

        _, z_star = least_squares_optimum(ds)
        s2 = noise_sigma2(ds, loss, z_star)
        s2z = sigma2_z(ds, loss)
        zt2 = zeta2(ds, loss, model, trace.thetas[-1], eta)
        assert abs(s2) <= 1e-8 and abs(s2z) <= 1e-8 and abs(zt2) <= 1e-8, (s2, s2z, zt2)


def test_07_projection_error_bound():
    with criterion(7, "measured projection error obeys the bound"):
        ds = generate_synthetic(
            SyntheticSpec("least-squares", n=20, d=5, cond=10.0, noise=0.5, seed=7)
        )
        model, loss = LinearModel(), SquaredLoss()
        _, z_star = least_squares_optimum(ds)
        eta = 0.5
        cfg = RunConfig(optimizer="sso", T=27, batch_size=1,
                        schedule=ScheduleOptions(eta0=eta),
                        inner=InnerOptions(solver="gd", m=5), seed=1, eval_every=27,
                        record_theta=True)
        trace = run(cfg, ds, model, loss)
        checkpoints = trace.thetas[::3][:10]
        assert len(checkpoints) == 10
        for m in (1, 5, 20):
            for theta_t in checkpoints:
                lhs = expected_projection_error_sq(ds, loss, model, theta_t, eta, m)
                rhs = projection_error_bound(ds, loss, model, theta_t, eta, m, z_star)
                assert lhs <= rhs + 1e-8, (m, lhs, rhs)


def test_08_oracle_efficiency():
    with criterion(8, "surrogate reuse beats SGD on simulated oracle cost"):
        ds = generate_synthetic(
            SyntheticSpec("interpolating", n=100, d=20, cond=1e3, seed=8)
        )
        model, loss = LinearModel(), SquaredLoss()
        tau = 1000.0
        threshold = 1e-3

        # Amortized regime: one full oracle call per outer step, surrogate
        # solved to completion before the next call.
        start = time.perf_counter()
        sso_cfg = RunConfig(optimizer="sso", T=50, batch_size=None,
                            schedule=ScheduleOptions(eta0=0.5),
                            inner=InnerOptions(solver="exact"), tau=tau, seed=2, eval_every=1)
        sso = run(sso_cfg, ds, model, loss)
        sso_time = time.perf_counter() - start

        start = time.perf_counter()
        sgd_cfg = RunConfig(optimizer="sgd", T=60000, batch_size=1, tau=tau,
                            seed=2, eval_every=500)
        sgd = run(sgd_cfg, ds, model, loss)
        sgd_time = time.perf_counter() - start

        def cost_to_reach(trace):
            for row in trace.rows:
                if row.loss <= threshold:
                    return row.sim_cost
            return None

        sso_cost = cost_to_reach(sso)
        sgd_cost = cost_to_reach(sgd)
        assert sso_cost is not None, "surrogate run never reached the threshold"
        assert sgd_cost is not None, "SGD run never reached the threshold"
        assert sso_cost < sgd_cost, (sso_cost, sgd_cost)
        assert sso_time < 60.0 and sgd_time < 60.0, (sso_time, sgd_time)


def _mushrooms_like_dataset():
    """The real file when available, otherwise a seeded stand-in with the
    same geometry: sparse binary features with skewed column popularity
    (ill-conditioned Gram matrix) and near-separable labels."""
    for root in (os.environ.get("TARGETOPT_DATA"), "tests/data", "data"):
        if not root:
            continue
        path = Path(root) / "mushrooms"
        if path.exists():
            with open(path, "rb") as fh:
                return parse_libsvm(fh, task="binary", allow_binary_remap=True), str(path)
    rng = np.random.default_rng(9)
    n, d, k = 1000, 100, 20
    popularity = rng.dirichlet(np.ones(d) * 0.25)
    rows = np.zeros((n, d))
    for i in range(n):
        rows[i, rng.choice(d, size=k, replace=False, p=popularity)] = 1.0
    margins = rows @ rng.normal(size=d)
    margins -= np.median(margins)
    y = np.where(margins >= 0, 1.0, -1.0)
    y[rng.random(n) < 0.03] *= -1.0
    ds = Dataset(X=sp.csr_matrix(rows), y=y, task="binary")
    return ds, "synthetic stand-in"


def test_09_desk_scale_parity():
    with criterion(9, "more inner steps help on the logistic benchmark"):
        ds, source = _mushrooms_like_dataset()
        model, loss = LinearModel(), LogisticLoss()
        batch = 125
        steps_per_epoch = int(np.ceil(ds.n / batch))
        T = 50 * steps_per_epoch
        eta = 1.0 / (2.0 * loss.L)  # constant target step 1/(2L) for logistic
        finals: dict = {"sgd": [], "sso-5": [], "sso-20": []}
        for seed in (0, 1, 2):
            sgd = run(
                RunConfig(optimizer="sgd", T=T, batch_size=batch, seed=seed,
                          eval_every=T),
                ds, model, loss,
            )
            finals["sgd"].append(sgd.final_loss())
            for m in (5, 20):
                sso = run(
                    RunConfig(optimizer="sso", T=T, batch_size=batch,
                              schedule=ScheduleOptions(eta0=eta),
                              inner=InnerOptions(solver="armijo", m=m), seed=seed,
                              eval_every=T),
                    ds, model, loss,
                )
                finals[f"sso-{m}"].append(sso.final_loss())
        med = {k: float(np.median(v)) for k, v in finals.items()}
        assert med["sso-5"] <= med["sgd"], (source, med)
        assert med["sso-20"] <= med["sso-5"], (source, med)
        print(f"[criterion 9 on {source}: medians {med}]")


def test_10_gradient_hygiene():
    with criterion(10, "every gradient matches central finite differences"):
        rng = np.random.default_rng(10)

        def check(value, grad, dim, points=100, scale=1.0, rel=1e-5):
            worst = 0.0
            for _ in range(points):
                theta = rng.normal(scale=scale, size=dim)
                g = np.asarray(grad(theta), dtype=np.float64)
                h = 1e-6 * (1 + np.linalg.norm(theta))
                fd = np.empty(dim)
                for j in range(dim):
                    e = np.zeros(dim)
                    e[j] = h
                    fd[j] = (value(theta + e) - value(theta - e)) / (2 * h)
                denom = max(float(np.max(np.abs(fd))), 1e-7)
                worst = max(worst, float(np.max(np.abs(g - fd))) / denom)
            assert worst <= rel, worst

        # Per-coordinate losses.
        for loss in (SquaredLoss(), LogisticLoss()):
            y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
            check(
                lambda z, loss=loss, y=y: float(np.mean(loss.values(z, y))),
                lambda z, loss=loss, y=y: np.asarray(loss.grads(z, y)) / len(y),
                dim=8,
                scale=3.0,
            )

        # Surrogate variants on a linear model.
        ds = generate_synthetic(
            SyntheticSpec("logistic", n=12, d=4, cond=4.0, noise=0.3, seed=11)
        )
        model = LinearModel()
        theta_t = rng.normal(size=4)
        batch = [0, 3, 7]
        for build in (
            lambda: stochastic(LogisticLoss(), model, ds, theta_t, batch, 0.6),
            lambda: stochastic(LogisticLoss(), model, ds, theta_t, batch, 0.6, "newton"),
            lambda: analysis_q(LogisticLoss(), model, ds, theta_t, batch, 0.6),
            lambda: build_deterministic(LogisticLoss(), model, ds, theta_t, 0.6),
        ):
            surr = build()
            check(surr.value, surr.grad, dim=4)

        # MLP parameter gradients through the surrogate machinery.
        ds_r = generate_synthetic(
            SyntheticSpec("least-squares", n=10, d=3, cond=3.0, noise=0.4, seed=12)
        )
        mlp = MLPModel(hidden=4)
        theta_r = mlp.init_params(3, np.random.default_rng(12))
        surr = stochastic(SquaredLoss(), mlp, ds_r, theta_r, [0, 4, 9], 0.7)
        check(surr.value, surr.grad, dim=mlp.dim(3), scale=0.5)

        # Mirror projection objective through a softmax-linear model.
        K = 3
        Xm = sp.csr_matrix(rng.normal(size=(6, 2)))
        ym = smoothed_expert_rows(rng.integers(0, K, 6), K, 0.1)
        dsm = Dataset(X=Xm, y=ym, task="multiclass", n_classes=K)
        smodel = SoftmaxLinearModel(K)
        msurr = stochastic(
            MulticlassKLLoss(), smodel, dsm, rng.normal(size=smodel.dim(2)) * 0.3,
            [1, 4], 0.8, "entropy-mirror",
        )
        check(msurr.value, msurr.grad, dim=smodel.dim(2), scale=0.4, rel=1e-4)


def test_11_determinism(tmp_path):
    with criterion(11, "reruns are byte-identical modulo wall clock"):
        def config(out):
            return {
                "name": "det",
                "dataset": {
                    "synthetic": {"kind": "logistic", "n": 40, "d": 6, "cond": 5.0,
                                  "noise": 0.2, "seed": 13}
                },
                "loss": "logistic",
                "model": "linear",
                "seeds": [0, 1],
                "out_dir": str(out),
                "runs": [
                    {"id": "sso", "optimizer": "sso", "T": 30, "batch_size": 5,
                     "eval_every": 5, "inner": {"solver": "armijo", "m": 4}},
                    {"id": "adagrad", "optimizer": "adagrad", "T": 30,
                     "batch_size": 5, "eval_every": 5},
                ],
            }

        assert run_experiment(config(tmp_path / "a")) == 0
        assert run_experiment(config(tmp_path / "b")) == 0

        def strip_wall(text):
            lines = text.splitlines()
            wall = lines[0].split(",").index("wall_ms")
            return "\n".join(
                ",".join(p for i, p in enumerate(l.split(",")) if i != wall)
                for l in lines
            )

        for name in ("sso_s0.csv", "sso_s1.csv", "adagrad_s0.csv", "adagrad_s1.csv"):
            a = (tmp_path / "a" / name).read_text()
            b = (tmp_path / "b" / name).read_text()
            assert strip_wall(a) == strip_wall(b), name
        assert (tmp_path / "a" / "summary.csv").read_text() == (
            tmp_path / "b" / "summary.csv"
        ).read_text()
