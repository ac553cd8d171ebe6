import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from targetopt.data import SyntheticSpec, generate_synthetic
from targetopt.losses import (
    LogisticLoss,
    MulticlassKLLoss,
    SquaredLoss,
    loss_value,
    smoothed_expert_rows,
)
from targetopt.models import LinearModel, MLPModel, SoftmaxLinearModel
from targetopt.optimizers import InnerOptions, RunConfig, ScheduleOptions, run
from targetopt.surrogates import (
    Batch,
    KLProximity,
    OracleCounter,
    SquaredProximity,
    Surrogate,
    build_deterministic,
    build_stochastic,
    freeze,
)

from helpers import CASES, CountingLoss, analysis_q, make_problem, problems, stochastic


def make_ls(n=12, d=4, seed=0, noise=0.5):
    return generate_synthetic(
        SyntheticSpec("least-squares", n=n, d=d, cond=5.0, noise=noise, seed=seed)
    )


class TestStochastic:
    def test_single_example_closed_form(self):
        # One-example least squares: the built surrogate must match the
        # explicit quadratic expression term by term.
        ds = make_ls(n=3, d=2, seed=1)
        model = LinearModel()
        loss = SquaredLoss()
        rng = np.random.default_rng(2)
        theta_t = rng.normal(size=2)
        eta = 0.7
        i = 1
        surr = stochastic(loss, model, ds, theta_t, [i], eta)
        x_i = ds.X[i]
        for _ in range(20):
            theta = rng.normal(size=2)
            r = x_i @ theta_t - ds.y[i]
            expected = (
                0.5 * r**2
                + r * (x_i @ (theta - theta_t))
                + (x_i @ (theta - theta_t)) ** 2 / (2 * eta)
            )
            assert surr.value(theta) == pytest.approx(expected, rel=1e-12)

    def test_anchor_tightness(self):
        ds = make_ls()
        model = LinearModel()
        loss = LogisticLoss()
        ds.y = np.where(ds.y > np.median(ds.y), 1.0, -1.0)
        theta_t = np.random.default_rng(3).normal(size=ds.d)
        idx = [0, 3, 7]
        surr = stochastic(loss, model, ds, theta_t, idx, 0.5)
        z = model.forward(theta_t, ds.X[idx])
        batch_loss = float(np.mean(loss.values(z, ds.y[idx])))
        assert surr.value(theta_t) == pytest.approx(batch_loss, abs=1e-15)

    def test_one_dim_argmin(self):
        # X=[1], y=2, anchor 0, eta=0.5: stationarity gives theta = 1.
        X = sp.csr_matrix(np.array([[1.0]]))
        ds = type("D", (), {})()
        ds.X, ds.y, ds.n, ds.d = X, np.array([2.0]), 1, 1
        surr = stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(1), [0], 0.5)
        ts = np.linspace(-1, 3, 4001)
        vals = [surr.value(np.array([t])) for t in ts]
        assert ts[int(np.argmin(vals))] == pytest.approx(1.0, abs=1e-3)

    def test_unbiasedness_over_singletons(self):
        ds = make_ls(n=8, d=3, seed=4)
        model = LinearModel()
        loss = SquaredLoss()
        rng = np.random.default_rng(5)
        theta_t = rng.normal(size=3)
        eta = 0.3
        full = build_deterministic(loss, model, ds, theta_t, eta)
        for _ in range(5):
            theta = rng.normal(size=3)
            mean_val = np.mean(
                [
                    stochastic(loss, model, ds, theta_t, [i], eta).value(theta)
                    for i in range(ds.n)
                ]
            )
            assert mean_val == pytest.approx(full.value(theta), abs=1e-10)

    def test_grad_matches_finite_differences(self):
        ds = make_ls(n=10, d=4, seed=6)
        model = LinearModel()
        loss = SquaredLoss()
        rng = np.random.default_rng(7)
        theta_t = rng.normal(size=4)
        surr = stochastic(loss, model, ds, theta_t, [1, 4, 8], 0.4)
        theta = rng.normal(size=4)
        g = surr.grad(theta)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (surr.value(theta + e) - surr.value(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_newton_weight_equals_curvature(self):
        ds = generate_synthetic(SyntheticSpec("logistic", n=6, d=3, noise=0.2, seed=8))
        model = LinearModel()
        loss = LogisticLoss()
        theta_t = np.random.default_rng(9).normal(size=3)
        eta = 0.5
        idx = [0, 2, 5]
        surr = stochastic(loss, model, ds, theta_t, idx, eta, variant="newton")
        z = model.forward(theta_t, ds.X[idx])
        curv = loss.curvs(z, ds.y[idx])
        np.testing.assert_allclose(surr.prox.weights, curv / eta)

    def test_newton_zero_curvature_floored(self):
        X = sp.csr_matrix(np.array([[1.0]]))
        ds = type("D", (), {})()
        ds.X, ds.y, ds.n, ds.d = X, np.array([1.0]), 1, 1
        # Saturated logistic: curvature underflows to 0; weight gets floored.
        surr = stochastic(
            LogisticLoss(), LinearModel(), ds, np.array([1e3]), [0], 0.5, "newton"
        )
        assert surr.prox.weights[0] == pytest.approx(1e-8 / 0.5)

    def test_oracle_isolation(self):
        ds = make_ls()
        counter = OracleCounter()
        surr = stochastic(
            SquaredLoss(), LinearModel(), ds, np.zeros(ds.d), [0, 1], 0.5, counter=counter
        )
        assert counter.calls == 2
        theta = np.ones(ds.d)
        surr.value(theta)
        surr.grad(theta)
        surr.smoothness_bound()
        assert counter.calls == 2

    def test_rejects_bad_inputs(self):
        ds = make_ls()
        with pytest.raises(ValueError, match="eta"):
            stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(ds.d), [0], 0.0)
        for eta in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"eta.*{eta}"):
                stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(ds.d), [0], eta)
        with pytest.raises(ValueError, match="nonempty"):
            stochastic(SquaredLoss(), LinearModel(), ds, np.zeros(ds.d), [], 0.5)


class TestDeterministic:
    def test_upper_bound_at_eta_inverse_L(self):
        ds = make_ls(n=20, d=5, seed=10)
        model = LinearModel()
        loss = SquaredLoss()
        rng = np.random.default_rng(11)
        theta_t = rng.normal(size=5)
        surr = build_deterministic(loss, model, ds, theta_t, 1.0 / loss.L)
        for _ in range(300):
            theta = rng.normal(scale=3.0, size=5)
            h = loss_value(loss, model.forward(theta, ds.X), ds.y)
            assert surr.value(theta) >= h - 1e-10

    def test_tight_at_anchor(self):
        ds = make_ls(seed=12)
        model = LinearModel()
        loss = SquaredLoss()
        theta_t = np.random.default_rng(13).normal(size=ds.d)
        surr = build_deterministic(loss, model, ds, theta_t, 1.0)
        h = loss_value(loss, model.forward(theta_t, ds.X), ds.y)
        assert surr.value(theta_t) == pytest.approx(h, abs=1e-14)

    def test_least_squares_terms(self):
        # Full-batch squared loss: value matches the averaged closed form
        # 1/n [ 1/2||X t - y||^2 + <X t - y, X(s - t)> + 1/(2 eta)||X(s - t)||^2 ].
        ds = make_ls(n=7, d=3, seed=14)
        model = LinearModel()
        rng = np.random.default_rng(15)
        theta_t = rng.normal(size=3)
        eta = 0.9
        surr = build_deterministic(SquaredLoss(), model, ds, theta_t, eta)
        X = np.asarray(ds.X)
        r = X @ theta_t - ds.y
        for _ in range(10):
            theta = rng.normal(size=3)
            step = X @ (theta - theta_t)
            expected = (
                0.5 * r @ r + r @ step + step @ step / (2 * eta)
            ) / ds.n
            assert surr.value(theta) == pytest.approx(expected, rel=1e-12)


class TestAnalysisQ:
    def test_expectation_equals_full_surrogate(self):
        ds = make_ls(n=6, d=3, seed=16)
        model = LinearModel()
        loss = SquaredLoss()
        rng = np.random.default_rng(17)
        theta_t = rng.normal(size=3)
        eta = 0.4
        full = build_deterministic(loss, model, ds, theta_t, eta)
        for _ in range(5):
            theta = rng.normal(size=3)
            mean_q = np.mean(
                [
                    analysis_q(loss, model, ds, theta_t, [i], eta).value(theta)
                    for i in range(ds.n)
                ]
            )
            assert mean_q == pytest.approx(full.value(theta), abs=1e-10)

    def test_batch_is_the_mean_of_its_singletons(self):
        # A batch drawn with replacement repeats index 3; each draw counts.
        ds = make_ls(n=6, d=3, seed=23)
        model, loss = LinearModel(), SquaredLoss()
        rng = np.random.default_rng(24)
        theta_t = rng.normal(size=3)
        idx = [3, 1, 3]
        q = analysis_q(loss, model, ds, theta_t, idx, 0.4)
        singles = [analysis_q(loss, model, ds, theta_t, [i], 0.4) for i in idx]
        for _ in range(5):
            theta = rng.normal(size=3)
            mean_q = np.mean([s.value(theta) for s in singles])
            assert q.value(theta) == pytest.approx(mean_q, abs=1e-12)

    def test_anchor_value(self):
        ds = make_ls(seed=18)
        model = LinearModel()
        loss = SquaredLoss()
        theta_t = np.random.default_rng(19).normal(size=ds.d)
        q = analysis_q(loss, model, ds, theta_t, [2], 0.4)
        z2 = model.forward(theta_t, ds.X[[2]])
        assert q.value(theta_t) == pytest.approx(
            float(loss.values(z2, ds.y[[2]])[0]), abs=1e-14
        )

    def test_n_equal_one_reduces_to_stochastic(self):
        X = sp.csr_matrix(np.array([[1.5]]))
        ds = type("D", (), {})()
        ds.X, ds.y, ds.n, ds.d = X, np.array([2.0]), 1, 1
        theta_t = np.array([0.3])
        g = stochastic(SquaredLoss(), LinearModel(), ds, theta_t, [0], 0.5)
        q = analysis_q(SquaredLoss(), LinearModel(), ds, theta_t, [0], 0.5)
        for t in np.linspace(-2, 2, 17):
            assert g.value(np.array([t])) == pytest.approx(q.value(np.array([t])), abs=1e-14)


class TestMirror:
    def test_entropy_requires_positive(self):
        class ZeroTarget(SoftmaxLinearModel):
            def forward(self, theta, rows):
                return np.array([[0.0, 1.0]])

        ds = type("D", (), {})()
        ds.X, ds.y, ds.n, ds.d = sp.csr_matrix(np.ones((1, 1))), np.array([[0.5, 0.5]]), 1, 1
        with np.errstate(divide="ignore"), pytest.raises(ValueError, match="strictly positive"):
            stochastic(
                MulticlassKLLoss(), ZeroTarget(2), ds, np.zeros(2), [0], 1.0, "entropy-mirror"
            )

    @pytest.mark.parametrize("model", [LinearModel(), MLPModel(4)], ids=["linear", "mlp"])
    def test_entropy_needs_a_softmax_linear_model(self, model):
        # Off softmax-linear the KL term is no Bregman proximity of the
        # targets: the surrogate would neither touch nor bound the loss.
        # Positive rows and weights give the linear model positive targets.
        rng = np.random.default_rng(4)
        X = rng.uniform(0.5, 1.5, size=(5, 3))
        theta = rng.uniform(0.5, 1.5, size=model.dim(3))
        batch = freeze(SquaredLoss(), model, theta, X, rng.normal(size=5))
        with pytest.raises(ValueError, match=f"softmax-linear model, not {model.kind!r}"):
            build_stochastic(SquaredLoss(), batch, 0.5, "entropy-mirror")

    def test_projection_objective_zero_when_equal_normalized(self):
        row = np.array([0.3, 0.7])
        assert KLProximity(1.0).values(row, row) == pytest.approx(0.0, abs=1e-15)

    def test_projection_objective_nonnegative_when_normalized(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            a = rng.dirichlet(np.ones(3))
            b = rng.dirichlet(np.ones(3)) + 1e-9
            b /= b.sum()
            assert KLProximity(1.0).values(a, b) >= -1e-12

    def test_mirror_surrogate_grad_finite_differences(self):
        rng = np.random.default_rng(21)
        n, d, K = 5, 3, 3
        X = sp.csr_matrix(rng.normal(size=(n, d)))
        ds = type("D", (), {})()
        ds.X, ds.n, ds.d = X, n, d
        ds.y = smoothed_expert_rows(rng.integers(0, K, n), K, eps=0.1)
        model = SoftmaxLinearModel(K)
        loss = MulticlassKLLoss()
        theta_t = rng.normal(size=model.dim(d)) * 0.3
        surr = stochastic(loss, model, ds, theta_t, [0, 2], 0.8, "entropy-mirror")
        theta = rng.normal(size=model.dim(d)) * 0.3
        g = surr.grad(theta)
        h = 1e-6
        for j in range(theta.size):
            e = np.zeros_like(theta)
            e[j] = h
            fd = (surr.value(theta + e) - surr.value(theta - e)) / (2 * h)
            assert g[j] == pytest.approx(fd, rel=2e-4, abs=1e-8)

    def test_mirror_anchor_tightness(self):
        rng = np.random.default_rng(22)
        n, d, K = 4, 2, 3
        X = sp.csr_matrix(rng.normal(size=(n, d)))
        ds = type("D", (), {})()
        ds.X, ds.n, ds.d = X, n, d
        ds.y = smoothed_expert_rows(rng.integers(0, K, n), K, eps=0.1)
        model = SoftmaxLinearModel(K)
        loss = MulticlassKLLoss()
        theta_t = rng.normal(size=model.dim(d)) * 0.2
        idx = [1, 3]
        surr = stochastic(loss, model, ds, theta_t, idx, 0.5, "entropy-mirror")
        z = model.forward(theta_t, ds.X[idx])
        batch_loss = float(np.mean(loss.values(z, ds.y[idx])))
        assert surr.value(theta_t) == pytest.approx(batch_loss, abs=1e-12)


# ----------------------------------------------------------------------
# Properties of the one representation, over map x model x loss x batch
# ----------------------------------------------------------------------

def batch_loss(loss, model, ds, theta, idx):
    return float(np.mean(loss.values(model.forward(theta, ds.X[idx]), ds.y[idx])))


PROPERTY = settings(max_examples=40, deadline=None)


class TestRepresentationProperties:
    @PROPERTY
    @given(problems())
    def test_anchor_value_is_the_batch_loss(self, problem):
        (variant, ds, model, loss, theta_t, _), idx, eta = problem
        surr = stochastic(loss, model, ds, theta_t, idx, eta, variant)
        assert surr.value(theta_t) == batch_loss(loss, model, ds, theta_t, idx)

    @PROPERTY
    @given(problems())
    def test_value_and_grad_make_no_oracle_calls(self, problem):
        (variant, ds, model, loss, theta_t, rng), idx, eta = problem
        counting, counter = CountingLoss(loss), OracleCounter()
        surr = stochastic(counting, model, ds, theta_t, idx, eta, variant, counter)
        assert counter.calls == len(idx)
        built = counting.calls
        for _ in range(3):
            theta = theta_t + 0.3 * rng.normal(size=theta_t.size)
            surr.value(theta)
            surr.grad(theta)
        assert counting.calls == built and counter.calls == len(idx)

    @PROPERTY
    @given(problems())
    def test_grad_matches_central_differences(self, problem):
        (variant, ds, model, loss, theta_t, rng), idx, eta = problem
        surr = stochastic(loss, model, ds, theta_t, idx, eta, variant)
        theta = theta_t + 0.3 * rng.normal(size=theta_t.size)
        g = surr.grad(theta)
        h = 1e-6
        for _ in range(2):
            u = rng.normal(size=theta.size)
            u /= np.linalg.norm(u)
            fd = (surr.value(theta + h * u) - surr.value(theta - h * u)) / (2 * h)
            assert g @ u == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @PROPERTY
    @given(problems(cases=[c for c in CASES if c[0] == "smoothness" and c[2] != "kl"]),
           st.floats(0.05, 1.0))
    def test_deterministic_euclidean_majorizes_for_eta_below_inverse_L(self, problem, u):
        (_, ds, model, loss, theta_t, rng), _, _ = problem
        surr = build_deterministic(loss, model, ds, theta_t, u / loss.L)
        for _ in range(5):
            theta = theta_t + rng.normal(scale=2.0, size=theta_t.size)
            h = batch_loss(loss, model, ds, theta, np.arange(ds.n))
            assert surr.value(theta) >= h - 1e-12 * max(1.0, abs(h))

    @PROPERTY
    @given(problems(cases=[("entropy-mirror", "softmax", "kl")], eye=True))
    def test_entropy_minimizer_is_the_normalized_mirror_step(self, problem):
        # With X = I every row has its own free logits, so the surrogate's
        # minimizer over the parameters is its minimizer over the targets.
        (variant, ds, model, loss, theta_t, rng), idx, eta = problem
        surr = stochastic(loss, model, ds, theta_t, idx, eta, variant)
        z = model.forward(theta_t, ds.X)
        g = loss.grads(z, ds.y)
        step = z * np.exp(-eta * g)
        step /= step.sum(axis=1, keepdims=True)
        theta_star = np.log(step).ravel()
        assert np.linalg.norm(surr.grad(theta_star)) <= 1e-9 * (
            1.0 + np.linalg.norm(surr.grad(theta_t))
        )
        best = surr.value(theta_star)
        for _ in range(5):
            other = theta_star + 0.1 * rng.normal(size=theta_star.size)
            assert surr.value(other) >= best - 1e-12

    # entropy-mirror is left out: its KL proximity's gradient at the anchor
    # is zero only up to rounding, so its m=1 iterates can differ from SGD's
    # in the last bits (up to ~3e-16 in the loss).
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([c for c in CASES if c[0] != "entropy-mirror"]),
           st.integers(2, 6), st.integers(1, 4), st.integers(0, 2**32 - 1), st.booleans(),
           st.data())
    def test_m1_gd_run_matches_sgd(self, case, n, d, seed, dense, data):
        variant, ds, model, loss, _, _ = make_problem(case, n, d, seed, dense)
        common = dict(T=data.draw(st.integers(1, 5)), batch_size=data.draw(st.integers(1, n - 1)),
                      sampling="replacement", seed=seed, eval_every=1)
        a = data.draw(st.floats(0.01, 1.0))
        sso = RunConfig(optimizer="sso", variant=variant,
                        schedule=ScheduleOptions(eta0=data.draw(st.floats(0.05, 2.0))),
                        inner=InnerOptions(solver="gd", m=1, alpha=a), **common)
        sgd = RunConfig(optimizer="sgd", schedule=ScheduleOptions(eta0=a), **common)
        np.testing.assert_array_equal(run(sso, ds, model, loss).losses(),
                                      run(sgd, ds, model, loss).losses())


def scipy_quadratic_parts(R, w, z, coeffs):
    """(H, b) by scipy's sparse operators, or ndarray @ for dense R."""
    s = 1.0 / len(z)
    if isinstance(R, np.ndarray):
        H = s * (R.T @ (w[:, None] * R))
    else:
        H = s * (R.T @ R.multiply(w[:, None]).tocsr()).toarray()
    return H, s * (R.T @ (w * z)) - (R.T @ coeffs) / len(z)


def csr_with_signed_zeros(rng, n=7, d=5):
    """A CSR matrix storing explicit +0 and -0 entries, whose row 2 stores
    no entry and whose row 4 stores only zeros."""
    A = np.where(rng.random((n, d)) < 0.5, rng.normal(size=(n, d)), 0.0)
    stored = A != 0
    stored[0, :2] = stored[4, 1:4] = stored[5, -1] = True
    A[0, :2], A[4, 1:4], A[5, -1] = [0.0, -0.0], [-0.0, 0.0, -0.0], -0.0
    stored[2] = False
    rows, cols = np.nonzero(stored)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    return sp.csr_matrix((A[rows, cols], cols, indptr), shape=(n, d))


class TestQuadraticParts:
    """quadratic_parts forms H and b with the models products, which give
    scipy's sparse operator formula bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("storage", ["csr", "dense"])
    def test_bit_for_bit_against_scipy(self, seed, storage):
        rng = np.random.default_rng(seed)
        R = csr_with_signed_zeros(rng)
        assert R.nnz > np.count_nonzero(R.data) and np.signbit(R.data).any()
        if storage == "dense":
            R = R.toarray()
        n, d = R.shape
        w, z, coeffs = rng.random(n) + 0.1, rng.normal(size=n), rng.normal(size=n)
        batch = Batch(LinearModel(), np.zeros(d), R, None, z, np.zeros(n), coeffs)
        H, b = Surrogate(batch, SquaredProximity(w)).quadratic_parts()
        want_H, want_b = scipy_quadratic_parts(R, w, z, coeffs)
        for got, want in ((H, want_H), (b, want_b)):
            assert type(got) is np.ndarray and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
