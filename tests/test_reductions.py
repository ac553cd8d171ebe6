"""The hot paths reduce through `np.add.reduce` and `losses.mean` instead of
numpy's `np.sum` / `np.mean` wrappers. These tests hold each rewritten path
to the wrapper formula it replaced with `==`, not a tolerance: the sums run
in the same order, so every value is the same float. The mirror line's
trials are held so to a one-trial wrapper of their projection form, and
to the anchored value within a round-off bound (TestProjectionForm)."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from targetopt import inner_solvers
from targetopt.inner_solvers import (
    ARMIJO_C,
    ARMIJO_SHRINK,
    BACKTRACK_FLOOR,
    TRIAL_BLOCK,
    DivergenceError,
    _TargetLine,
    armijo_backtracking,
    backtrack,
    gd_fixed,
)
from targetopt.losses import (
    LogisticLoss,
    MulticlassKLLoss,
    SquaredLoss,
    loss_value,
    mean,
    smoothed_expert_rows,
    xlogy,
)
from targetopt.models import LinearModel, SoftmaxLinearModel, row_product
from targetopt.schedules import target_line_search
from targetopt.surrogates import KLProximity, Surrogate, build_stochastic, freeze

from helpers import CASES, make_problem, stochastic

K = 3
TRIALS = (10.0, 1.0, 0.37, 1e-3)


# -- the wrapper formulas the hot paths used before ---------------------


def wrapper_prox(prox, f, z):
    # The library's own xlogy: this pins numpy's reduction order, not the kernel.
    if isinstance(prox, KLProximity):
        return float(np.sum(xlogy(f, f / z))) / prox.eta
    return float(np.sum(0.5 * prox.weights * (f - z) ** 2))


def wrapper_target_value(surr, f):
    batch = surr.batch
    prod = (f - batch.z) * batch.coeffs
    lin = prod if prod.ndim == 1 else prod.sum(axis=1)
    return float(np.mean(batch.consts + lin)) + surr.scale * wrapper_prox(surr.prox, f, batch.z)


def wrapper_softmax(logits):
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def wrapper_mirror_value(surr, logits):
    """One trial's value at batch logits under the KL proximity, in the
    projection form const + sum f (log f - log p) / (eta b)."""
    batch, eta = surr.batch, surr.prox.eta
    q = np.log(batch.z) - eta * batch.coeffs
    top = q.max(axis=1, keepdims=True)
    log_Z = top + np.log(np.exp(q - top).sum(axis=1, keepdims=True))
    const = np.mean(batch.consts - (batch.coeffs * batch.z).sum(axis=1) - log_Z[:, 0] / eta)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    sums = e.sum(axis=1, keepdims=True)
    terms = e / sums * (shifted - np.log(sums) - (q - log_Z))
    return float(const + np.sum(terms) / (eta * len(batch.consts)))


def wrapper_trial_value(surr, logits):
    """One softmax-line trial's value at batch logits: the projection form
    under the KL proximity, `target_value` at their softmax otherwise."""
    if isinstance(surr.prox, KLProximity):
        return wrapper_mirror_value(surr, logits)
    return wrapper_target_value(surr, wrapper_softmax(logits))


def anchored_trial_value(surr, logits):
    """One trial's value as `Surrogate.target_value` at the link of its logits."""
    return surr.target_value(surr.batch.model.link(logits))


def wrapper_target_line_search(loss, z, y, g, alpha0=10.0, shrink=0.5, c=0.5):
    gnorm2 = float(np.mean(g * g))
    if gnorm2 == 0.0:
        return alpha0, False
    base = float(np.mean(loss.values(z, y)))
    alpha = alpha0
    while alpha >= 1e-12:
        if float(np.mean(loss.values(z - alpha * g, y))) <= base - c * alpha * gnorm2:
            return alpha, False
        alpha *= shrink
    return alpha, True


def wrapper_armijo(surr, omega, m, alpha0, shrink=0.8, c=0.5):
    """Parameter-space Armijo as it was; also returns each step's ||g||^2."""
    val, g, steps, slopes = surr.value(omega), surr.grad(omega), 0, []
    for _ in range(m):
        gnorm2 = float(np.sum(g * g))
        if gnorm2 == 0.0:
            break
        slopes.append(gnorm2)
        alpha, val, stalled = backtrack(lambda a: surr.value(omega - a * g), val, gnorm2,
                                        alpha0, shrink, c)
        if stalled:
            break
        omega, steps, g = omega - alpha * g, steps + 1, surr.grad(omega - alpha * g)
    return omega, steps, slopes


class MatrixQuadratic:
    """sum(w * (W - C)^2) / 2 over a (d, K) matrix W: a surrogate whose
    gradient is 2-D, so Armijo takes the parameter-space path."""

    batch = SimpleNamespace(model=SimpleNamespace(kind="mlp"))

    def __init__(self, w, C):
        self.w, self.C = w, C

    def value(self, W):
        return float(np.sum(0.5 * self.w * (W - self.C) ** 2))

    def grad(self, W):
        return self.w * (W - self.C)


# -- random batches --------------------------------------------------------


@st.composite
def batches(draw, multiclass=None, classes=st.just(K)):
    """(rows, y, loss, model, theta, rng): dense or CSR rows with 1-D
    targets (linear model, squared or logistic loss) or (b, K) targets
    (softmax-linear model, KL loss), K drawn from `classes`."""
    b, d = draw(st.integers(1, 40)), draw(st.integers(1, 8))
    sparse = draw(st.booleans())
    if multiclass is None:
        multiclass = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Small softmax logits: a target that underflows to 0 has an infinite
    # KL gradient, and nan == nan fails.
    X = rng.normal(size=(b, d)) * 10.0 ** draw(st.integers(-3, 1 if multiclass else 3))
    if sparse:
        X = sp.csr_matrix(X * (rng.random((b, d)) < 0.5))
    if multiclass:
        k = draw(classes)
        y = smoothed_expert_rows(rng.integers(0, k, b), k, eps=0.1)
        loss, model = MulticlassKLLoss(), SoftmaxLinearModel(k)
    elif draw(st.booleans()):
        y, loss, model = rng.normal(size=b), SquaredLoss(), LinearModel()
    else:
        y, loss, model = rng.choice([-1.0, 1.0], size=b), LogisticLoss(), LinearModel()
    theta = rng.normal(size=model.dim(d))
    return X, y, loss, model, theta, rng


def surrogate_of(data, variant, eta):
    X, y, loss, model, theta, rng = data
    return build_stochastic(loss, freeze(loss, model, theta, X, y), eta, variant)


VARIANTS_1D = st.sampled_from(["smoothness", "newton"])
VARIANTS_2D = st.sampled_from(["smoothness", "entropy-mirror"])
ETAS = st.floats(1e-3, 10.0)


def assert_quadratic_trials(surr, omega, m):
    """On a linear model every trial of `armijo_backtracking` is the closed
    form val - a ||g||^2 + a^2 sum(w u^2) / 2b, u = R g, with `==`; the
    solve is replayed from `Surrogate.value` and `grad` at omega."""
    searches = []

    def recording_backtrack(value_at, base, slope, *args):
        found = backtrack(value_at, base, slope, *args)
        searches.append((base, slope, [value_at(a) for a in TRIALS], found[0]))
        return found

    with mock.patch.object(inner_solvers, "backtrack", recording_backtrack):
        armijo_backtracking(surr, omega, m)
    batch, rows, w, s = surr.batch, surr.batch.rows, surr.prox.weights, surr.scale
    val, g, L = surr.value(omega), surr.grad(omega), batch.model.forward(omega, rows)
    for base, slope, values, alpha in searches:
        u = row_product(rows, g)
        curv = float(np.sum(w * u * u)) * s / 2
        assert (base, slope) == (val, float(g @ g))
        assert values == [val - a * slope + a * a * curv for a in TRIALS]
        val, L = val - alpha * slope + alpha * alpha * curv, L - alpha * u
        g = row_product(rows, (batch.coeffs + w * (L - batch.z)) * s, transpose=True)


class TestSameFloats:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 2000), st.integers(0, 2**32 - 1), st.booleans())
    def test_mean_is_np_mean(self, size, seed, blocked):
        x = np.random.default_rng(seed).normal(size=size)
        if blocked and size >= K:  # a (rows, K) block, as the softmax targets come
            x = x[: size - size % K].reshape(-1, K)
        assert mean(x) == float(np.mean(x))

    @settings(max_examples=60, deadline=None)
    @given(st.booleans(), st.data(), ETAS)
    def test_target_value(self, multiclass, draw, eta):
        data = draw.draw(batches(multiclass=multiclass))
        variant = draw.draw(VARIANTS_2D if multiclass else VARIANTS_1D)
        surr = surrogate_of(data, variant, eta)
        X, _, _, model, theta, rng = data
        for f in (surr.batch.z, model.forward(theta + rng.normal(size=theta.shape), X)):
            assert surr.target_value(f) == wrapper_target_value(surr, f)
            assert surr.prox.values(f, surr.batch.z) == wrapper_prox(surr.prox, f, surr.batch.z)

    @settings(max_examples=60, deadline=None)
    @given(batches(classes=st.integers(2, 6)), ETAS)
    def test_target_line_trials(self, data, eta):
        X, _, _, model, theta, rng = data
        variant = "entropy-mirror" if model.kind == "softmax-linear" else "smoothness"
        surr = surrogate_of(data, variant, eta)
        omega = theta + 0.1 * rng.normal(size=theta.shape)
        if model.kind == "linear":
            assert_quadratic_trials(surr, omega, 3)
            return
        line, g = _TargetLine(surr, omega), surr.grad(omega)
        value_at = line.values(g, surr.value(omega), float(g @ g))
        for a in TRIALS:
            assert value_at(a) == wrapper_trial_value(surr, line.logits - a * line.u)
        f, coeffs = model.link(line.logits), surr.batch.coeffs
        assert np.array_equal(f, wrapper_softmax(line.logits))
        want = f * (coeffs - (f * coeffs).sum(axis=1, keepdims=True))
        assert np.array_equal(model.link_vjp(f, coeffs), want)

    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_loss_value(self, data):
        X, y, loss, model, theta, _ = data
        z = model.forward(theta, X)
        assert loss_value(loss, z, y) == float(np.mean(loss.values(z, y)))

    @settings(max_examples=60, deadline=None)
    @given(batches(), st.floats(1e-6, 100.0))
    def test_target_line_search_step(self, data, alpha0):
        X, y, loss, model, theta, _ = data
        batch = freeze(loss, model, theta, X, y)
        with np.errstate(invalid="ignore"):  # KL trials can leave the simplex
            got = target_line_search(loss, batch.z, batch.y, batch.coeffs, alpha0=alpha0)
            want = wrapper_target_line_search(loss, batch.z, batch.y, batch.coeffs, alpha0=alpha0)
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 8))
    def test_armijo_on_a_matrix_gradient(self, seed, d, m):
        rng = np.random.default_rng(seed)
        w = 10.0 ** rng.uniform(-3, 3, size=(d, K))
        surr = MatrixQuadratic(w, rng.normal(size=(d, K)))
        W0 = rng.normal(size=(d, K))
        got_slopes = []

        def recording_backtrack(value_at, base, slope, *args):
            got_slopes.append(slope)
            return backtrack(value_at, base, slope, *args)

        with mock.patch.object(inner_solvers, "backtrack", recording_backtrack):
            got = armijo_backtracking(surr, W0, m, alpha0=1.0)
        theta, steps, slopes = wrapper_armijo(surr, W0, m, alpha0=1.0)
        assert got_slopes == slopes
        assert got.inner_steps == steps
        assert np.array_equal(got.theta, theta)


# -- softmax trials a block at a time ------------------------------------


def one_trial_armijo(surr, omega, m, alpha0, trial_value=wrapper_trial_value):
    """The softmax-line Armijo solve with one trial_value(surr, logits) per
    trial: (theta, inner_steps, stalled, last_alpha)."""
    model, rows = surr.batch.model, surr.batch.rows
    val, g = surr.value(omega), surr.grad(omega)
    logits, steps, alpha = model.logits(omega, rows), 0, alpha0
    for k in range(m):
        if not np.isfinite(g).all():
            raise DivergenceError(k)
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            break
        u = model.logits(g, rows)
        alpha, val, stalled = backtrack(lambda a: trial_value(surr, logits - a * u),
                                        val, gnorm2, alpha0, ARMIJO_SHRINK, ARMIJO_C)
        if stalled:
            return omega, steps, True, alpha
        omega, logits, steps = omega - alpha * g, logits - alpha * u, steps + 1
        g = row_product(rows, surr.logit_grad(model.link(logits)), transpose=True).ravel()
    return omega, steps, False, alpha


def assert_matches_one_trial_armijo(surr, omega, m, alpha0, trial_value=wrapper_trial_value):
    """Both solves end alike: the same result, or divergence at the same
    step (a target that underflows to 0 has an infinite KL gradient)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            res = armijo_backtracking(surr, omega, m, alpha0)
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as ref_err:
                one_trial_armijo(surr, omega, m, alpha0, trial_value)
            assert ref_err.value.step == err.step
            return None
        theta, steps, stalled, alpha = one_trial_armijo(surr, omega, m, alpha0, trial_value)
    np.testing.assert_array_equal(res.theta, theta)
    assert (res.inner_steps, res.stalled, res.last_alpha) == (steps, stalled, alpha)
    return res


class SecondSearchAscends(Surrogate):
    """A surrogate whose gradient after the first step has the wrong sign:
    every trial of the second search ascends, down to the backtrack floor."""

    def logit_grad(self, f):
        return -super().logit_grad(f)


def softmax_surrogate(seed, b, d, k, variant, sparse=False, eta=0.5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(b, d))
    y = smoothed_expert_rows(rng.integers(0, k, b), k, eps=0.1)
    data = (sp.csr_matrix(X) if sparse else X, y, MulticlassKLLoss(), SoftmaxLinearModel(k),
            rng.normal(size=d * k), rng)
    return surrogate_of(data, variant, eta), data[4]


class TestTrialBlocks:
    """On a softmax-linear model a target-line trial is evaluated with the next
    TRIAL_BLOCK - 1 steps of its ladder in one pass; every value, and every
    solve, must be the one-trial-at-a-time float."""

    @settings(max_examples=80, deadline=None)
    @given(batches(multiclass=True, classes=st.integers(2, 6)), VARIANTS_2D, ETAS,
           st.floats(-3.0, 2.0))
    def test_ladder_values_are_single_trial_values(self, data, variant, eta, log_alpha0):
        X, _, _, model, theta, rng = data
        surr = surrogate_of(data, variant, eta)
        omega = theta + 0.1 * rng.normal(size=theta.shape)
        line = _TargetLine(surr, omega)
        g = surr.grad(omega)
        value_at = line.values(g, surr.value(omega), float(g @ g))
        L, u, a = line.logits, line.u, 10.0 ** log_alpha0
        for _ in range(2 * TRIAL_BLOCK + 1):  # into a third block
            assert value_at(a) == wrapper_trial_value(surr, L - a * u)
            last, a = a, a * ARMIJO_SHRINK
        # The last trial, as an accepted step (NaN where a target underflowed).
        with np.errstate(divide="ignore", invalid="ignore"):
            want = row_product(X, surr.logit_grad(wrapper_softmax(L - last * u)), transpose=True)
            np.testing.assert_array_equal(line.step(last), want.ravel())

    @settings(max_examples=60, deadline=None)
    @given(batches(multiclass=True, classes=st.integers(2, 6)), VARIANTS_2D, ETAS,
           st.floats(-3.0, 3.0), st.integers(1, 8))
    def test_armijo_matches_one_trial_at_a_time(self, data, variant, eta, log_alpha0, m):
        _, _, _, _, theta, rng = data
        surr = surrogate_of(data, variant, eta)
        omega = theta + 0.3 * rng.normal(size=theta.shape)
        assert_matches_one_trial_armijo(surr, omega, m, 10.0 ** log_alpha0)

    @pytest.mark.parametrize("variant", ["smoothness", "entropy-mirror"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_accepted_after_the_first_block(self, variant, sparse):
        surr, theta = softmax_surrogate(3, 12, 4, 4, variant, sparse)
        alpha0 = 1e3
        res = assert_matches_one_trial_armijo(surr, theta, 4, alpha0)
        assert res.inner_steps == 4
        assert res.last_alpha < alpha0 * ARMIJO_SHRINK ** (TRIAL_BLOCK - 1)

    @pytest.mark.parametrize("variant", ["smoothness", "entropy-mirror"])
    def test_stall_at_the_backtrack_floor(self, variant):
        surr, theta = softmax_surrogate(5, 9, 3, 3, variant)
        surr = SecondSearchAscends(surr.batch, surr.prox)
        res = assert_matches_one_trial_armijo(surr, theta, 4, 1.0)
        assert res.stalled and res.inner_steps == 1 and res.last_alpha < BACKTRACK_FLOOR


# -- mirror trials in the projection form ---------------------------------


def mirror_form_error_bound(surr, f):
    """A bound on |projection form - `target_values`| at one trial's
    targets f: (n + 4) eps times the summed magnitude of every term that
    either form adds, n = b K the terms of its longest sum."""
    batch, eta, (b, k) = surr.batch, surr.prox.eta, f.shape
    z, g = batch.z, batch.coeffs
    q = np.log(z) - eta * g
    log_Z = np.logaddexp.reduce(q, axis=1, keepdims=True)
    logs = np.abs(xlogy(f, f)) + f * (np.abs(np.log(z)) + eta * np.abs(g) + np.abs(log_Z) + np.log(k) + 1)
    magnitude = (np.mean(np.abs(batch.consts)) + np.sum(np.abs(g) * (f + z)) / b
                 + np.sum(logs + np.abs(xlogy(f, f / z))) / (eta * b))
    return (f.size + 4) * np.finfo(float).eps * magnitude


class TestProjectionForm:
    """Under the KL proximity a softmax line's trials take the projection
    form: one divergence to the mirror step per trial."""

    @settings(max_examples=100, deadline=None)
    @given(batches(multiclass=True, classes=st.integers(2, 6)), st.floats(1e-4, 10.0),
           st.floats(-3.0, 1.0))
    def test_matches_the_anchored_value(self, data, eta, log_alpha0):
        X, _, _, model, theta, rng = data
        surr = surrogate_of(data, "entropy-mirror", eta)
        omega = theta + 0.1 * rng.normal(size=theta.shape)
        L, u = model.logits(omega, X), model.logits(surr.grad(omega), X)
        steps = 10.0 ** log_alpha0 * ARMIJO_SHRINK ** np.arange(TRIAL_BLOCK)
        f, values = surr.link_values(L - np.multiply.outer(steps, u))
        for f_j, value in zip(f, values):
            want = surr.target_values(f_j)
            assert np.isfinite(value) and np.isfinite(want)
            assert abs(value - want) <= mirror_form_error_bound(surr, f_j)

    @pytest.mark.parametrize("eta", [1.0, 0.1, 1e-3, 1e-5])
    @pytest.mark.parametrize("seed", range(5))
    def test_solve_is_the_anchored_one(self, eta, seed):
        # b = 15, K = 3 and m = 8, as on the benchmark's mirror workload.
        surr, theta = softmax_surrogate(seed, 15, 4, 3, "entropy-mirror", eta=eta)
        res = assert_matches_one_trial_armijo(surr, theta, 8, 1.0, anchored_trial_value)
        assert res.inner_steps == 8 and not res.stalled


# -- a solve from the batch's anchor reads z ------------------------------


def assert_same_solve(solve, anchor):
    """solve(anchor) and solve(anchor.copy()) end alike: the same result bit
    for bit, or divergence at the same step."""
    with np.errstate(all="ignore"):
        try:
            got = solve(anchor)
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as ref_err:
                solve(anchor.copy())
            assert ref_err.value.step == err.step
            return
        want = solve(anchor.copy())
    np.testing.assert_array_equal(got.theta, want.theta)
    assert (got.inner_steps, got.stalled, got.last_alpha) == (
        want.inner_steps, want.stalled, want.last_alpha)
    return got


class TestAnchorFromZ:
    """A surrogate handed its batch's own anchor array takes the targets
    from the frozen z (`Batch`'s invariant z = forward(theta, rows)) and
    runs no model. A solve from the anchor must end bit for bit as the
    same solve from a copy of it, which runs the model."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CASES), st.booleans(), st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.floats(-3.0, 1.0), st.floats(0.05, 2.0))
    def test_solve_from_the_anchor_is_the_solve_from_a_copy(self, case, dense, seed, m,
                                                           log_alpha, eta):
        _, ds, model, loss, theta_t, rng = make_problem(case, 6, 3, seed, dense)
        idx = rng.integers(0, 6, size=int(rng.integers(1, 9)))
        surr = stochastic(loss, model, ds, theta_t, idx, eta, case[0])
        for solver in (armijo_backtracking, gd_fixed):
            assert_same_solve(lambda w: solver(surr, w, m, 10.0 ** log_alpha), surr.batch.theta)

    @pytest.mark.parametrize("case", [c for c in CASES if c[1] != "mlp"])
    def test_link_model_solve_from_the_anchor_runs_no_forward_pass(self, case, monkeypatch):
        _, ds, model, loss, theta_t, _ = make_problem(case, 5, 3, 11, False)
        surr = stochastic(loss, model, ds, theta_t, [0, 2, 2, 4], 0.5, case[0])

        def no_forward(*args):
            raise AssertionError("the model ran at the anchor")

        monkeypatch.setattr(model, "forward", no_forward)
        assert armijo_backtracking(surr, surr.batch.theta, 8, alpha0=10.0).inner_steps > 1
        assert gd_fixed(surr, surr.batch.theta, 1, alpha=0.1).inner_steps == 1

    def test_the_anchor_is_a_read_only_copy(self):
        theta = np.ones(2)
        batch = freeze(SquaredLoss(), LinearModel(), theta, np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            batch.theta[0] = 2.0
        theta[0] = 2.0  # the caller's array stays writeable and apart
        np.testing.assert_array_equal(batch.theta, [1.0, 1.0])


@pytest.mark.parametrize("rows_dtype", [np.float32, np.int32, np.float64])
@pytest.mark.parametrize("v_dtype", [np.float32, np.int32, np.float64])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("ndim", [1, 2])
def test_row_product_dtype_is_result_type(rows_dtype, v_dtype, transpose, ndim):
    R = sp.csr_matrix(np.array([[1, 0, 2], [0, 3, 0]], dtype=rows_dtype))
    v = np.ones((2 if transpose else 3,) + (2,) * (ndim - 1), dtype=v_dtype)
    out = row_product(R, v, transpose=transpose)
    assert out.dtype == np.result_type(R.dtype, v.dtype)
    np.testing.assert_array_equal(out, R.T @ v if transpose else R @ v)
