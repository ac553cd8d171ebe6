import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.special
from hypothesis import given, settings, strategies as st

from targetopt.losses import (
    EXP_MAX,
    LogisticLoss,
    MulticlassKLLoss,
    SquaredLoss,
    expit,
    kl_to_expert,
    loss_value,
    make_loss,
    smoothed_expert_rows,
    xlogy,
)


class TestValues:
    def test_logistic_symmetric_point(self):
        assert loss_value(LogisticLoss(), [0.0], [1.0]) == pytest.approx(np.log(2))

    def test_squared_zero_residual(self):
        y = np.array([1.0, -2.0, 3.0])
        assert loss_value(SquaredLoss(), y, y) == 0.0

    def test_squared_hand_value(self):
        # (1/2)(0 - 2)^2 = 2 for a single example.
        assert loss_value(SquaredLoss(), [0.0], [2.0]) == pytest.approx(2.0)

    def test_logistic_stable_at_large_targets(self):
        vals = LogisticLoss().values(np.array([1e4, -1e4]), np.array([1.0, 1.0]))
        assert np.all(np.isfinite(vals))
        assert vals[0] == pytest.approx(0.0, abs=1e-300)
        assert vals[1] == pytest.approx(1e4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            loss_value(SquaredLoss(), [0.0, 1.0], [1.0])


# Margins where the softplus changes regime: the ln 2 at zero, the point
# past which e^-t is below an ulp of 1, exp's underflow to subnormals and to
# zero, and the ends of the double range.
EDGES = [v for m in (0.0, 1e-300, 36.0, 745.0, 1e4, 1e308) for v in (m, -m)]


class TestLogisticKernel:
    """The logistic values against np.logaddexp(0, -y z), the formula they
    compute with numpy's vectorized exp and log1p instead of libm's."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGES),
                                        st.floats(allow_nan=False, allow_infinity=False),
                                        st.floats(-746.0, -700.0)),  # subnormal values
                              st.sampled_from([-1.0, 1.0])), min_size=1, max_size=64))
    def test_matches_logaddexp_to_an_ulp(self, pairs):
        z, y = np.array(pairs).T
        expected = np.logaddexp(0.0, -y * z)
        got = LogisticLoss().values(z, y)
        np.testing.assert_array_equal(got == 0.0, expected == 0.0)
        # Relative to the value where it is normal; a subnormal value has
        # fewer bits, and there the two differ by at most its spacing.
        subnormal = expected < np.finfo(np.float64).tiny
        tol = 4.5e-16 * expected
        tol[subnormal] = np.spacing(expected[subnormal])
        assert np.all(np.abs(got - expected) <= tol), np.max(np.abs(got - expected) / tol)

    def test_non_finite_margins(self):
        got = LogisticLoss().values(np.array([np.nan, -np.inf, np.inf]), np.ones(3))
        assert np.isnan(got[0]) and got[1] == np.inf and got[2] == 0.0

    def test_no_warning_under_default_error_state(self):
        z = np.array(EDGES + [np.nan, np.inf, -np.inf])
        with warnings.catch_warnings(), np.errstate(divide="warn", over="warn",
                                                    under="ignore", invalid="warn"):
            warnings.simplefilter("error")
            LogisticLoss().values(z, np.ones_like(z))

    def test_mushrooms_scale_loss_moves_by_round_off(self):
        # Sparse binary rows of mushrooms' size (8124 x 112, 21 features a
        # row) with near-separable labels, at a point with wide margins.
        rng = np.random.default_rng(0)
        n, d, k = 8124, 112, 21
        cols = np.argsort(rng.random((n, d)), axis=1)[:, :k]
        X = sp.csr_matrix((np.ones(n * k), cols.ravel(), np.arange(0, n * k + 1, k)), shape=(n, d))
        w = rng.normal(size=d)
        y = np.where(X @ w >= np.median(X @ w), 1.0, -1.0)
        for theta in (np.zeros(d), w, 10.0 * w):
            z = X @ theta
            old = np.mean(np.logaddexp(0.0, -y * z))
            assert abs(loss_value(LogisticLoss(), z, y) - old) <= 1e-15 * old


TINY = np.finfo(np.float64).tiny


def assert_matches_scipy(got, want, ulps):
    """Where scipy's value is normal, within `ulps` of its spacing; where it
    is subnormal or zero, within 1e-307; NaN and inf where scipy's are."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite & ~np.isnan(want)], want[~finite & ~np.isnan(want)])
    got, want = got[finite], want[finite]
    tol = np.where(np.abs(want) >= TINY, ulps * np.spacing(np.abs(want)), 1e-307)
    assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want) / tol)


# The margins where expit's exponent cap acts (EXP_MAX), where scipy's value
# underflows to a subnormal and to zero, the ends of the double range, inf.
EXPIT_EDGES = [v for m in (0.0, EXP_MAX, 745.0, 1e308, np.inf) for v in (m, -m)]
MARGINS = st.one_of(st.sampled_from(EXPIT_EDGES), st.floats(allow_nan=False),
                    st.floats(-750.0, 40.0))
LABELS = st.sampled_from([-1.0, 1.0])


class TestSpecialKernels:
    """expit and xlogy, scipy's formulas on numpy's vectorized exp and log,
    against scipy.special as the oracle. Each kernel's exp or log differs
    from libm's by at most an ulp, and the rest of the formula carries that
    to 2 ulps of the result, or 4 for margins between -40 and -30, where
    1 + e^-x rounds at a spacing of 2 (the worst of 5 million draws)."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(MARGINS, min_size=1, max_size=64))
    def test_expit_matches_scipy(self, x):
        x = np.array(x)
        assert_matches_scipy(expit(x), scipy.special.expit(x), ulps=4)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(MARGINS, LABELS), min_size=1, max_size=64))
    def test_grads_and_curvs_match_the_scipy_formulas(self, pairs):
        z, y = np.array(pairs).T
        loss = LogisticLoss()
        assert_matches_scipy(loss.grads(z, y), -y * scipy.special.expit(-y * z), ulps=4)
        # p (1 - p) near p = 1 is 1 - p, exact from p: it moves by p's error.
        p = scipy.special.expit(y * z)
        got, want = loss.curvs(z, y), p * (1.0 - p)
        tol = np.where(want >= TINY, 6 * np.spacing(want) + 4 * np.spacing(p), 1e-307)
        assert np.all(np.abs(got - want) <= tol)

    @settings(max_examples=300, deadline=None)
    # |x| <= 1e300 keeps x log y inside the double range (|log y| < 745).
    @given(st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(-1e300, 1e300)),
                              st.one_of(st.sampled_from([0.0, 1e-320, 1.0]),
                                        st.floats(allow_nan=False, allow_infinity=False))),
                    min_size=1, max_size=64))
    def test_xlogy_matches_scipy(self, pairs):
        x, y = np.array(pairs).T
        with np.errstate(divide="ignore", invalid="ignore"):  # log of y <= 0
            got = xlogy(x, y)
        assert_matches_scipy(got, scipy.special.xlogy(x, y), ulps=2)

    def test_expit_edges(self):
        x = np.array(EXPIT_EDGES + [np.nan])
        got = expit(x)
        assert_matches_scipy(got, scipy.special.expit(x), ulps=0)
        # The capped exponent: at most 5.6e-309 where scipy's value is 0.
        assert np.all(got[x <= -EXP_MAX] <= 5.6e-309)
        assert np.all(got[x >= EXP_MAX] == 1.0) and np.isnan(got[-1])

    def test_xlogy_is_exactly_zero_where_x_is_zero(self):
        y = np.array([0.0, -0.0, 1e-320, 0.5, 1.0, 1e308, np.inf, -1.0])
        for x in (np.zeros_like(y), -np.zeros_like(y)):
            got = xlogy(x, y)
            assert np.all(got == 0.0)
            np.testing.assert_array_equal(got, scipy.special.xlogy(x, y))

    def test_xlogy_is_non_finite_where_scipy_is(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            got = xlogy(np.array([1.0, -1.0, 1.0]), np.array([0.0, 0.0, -1.0]))
        np.testing.assert_array_equal(got, [-np.inf, np.inf, np.nan])

    def test_no_warning_under_default_error_state(self):
        margins = np.array(EXPIT_EDGES + [np.nan])
        x = np.array([0.0, -0.0, 0.0, 0.0, 0.5, 1e-300])
        y = np.array([0.0, 0.0, -1.0, np.inf, 0.25, 0.5])
        with warnings.catch_warnings(), np.errstate(divide="warn", over="warn",
                                                    under="ignore", invalid="warn"):
            warnings.simplefilter("error")
            expit(margins)
            for label in (1.0, -1.0):
                LogisticLoss().grads(margins, label)
                LogisticLoss().curvs(margins, label)
            xlogy(x, y)

    def test_kl_values_off_the_simplex_are_nan_without_a_warning(self):
        # A target line search's trial can leave the simplex; NaN rejects it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = MulticlassKLLoss().values(np.array([[1.2, -0.2], [0.5, 0.5]]),
                                            np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.isnan(got[0]) and got[1] == 0.0


class TestDerivatives:
    def test_logistic_grad_at_zero(self):
        assert LogisticLoss().grads(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(-0.5)

    def test_squared_grad_at_minimum(self):
        assert SquaredLoss().grads(np.array([2.0]), np.array([2.0]))[0] == 0.0

    def test_squared_grad_hand_value(self):
        assert SquaredLoss().grads(np.array([0.0]), np.array([2.0]))[0] == pytest.approx(-2.0)

    def test_logistic_curv_at_zero(self):
        assert LogisticLoss().curvs(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(0.25)

    def test_squared_curv_constant(self):
        for z in (-3.0, 0.0, 7.5):
            assert SquaredLoss().curvs(np.array([z]), np.array([2.0]))[0] == 1.0

    def test_logistic_curv_saturates(self):
        assert LogisticLoss().curvs(np.array([1e3]), np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-300)


class TestKL:
    def test_identical_rows(self):
        assert kl_to_expert([0.3, 0.7], [0.3, 0.7]) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        # 0.5 ln 2 + 0.5 ln(2/3), summed by hand.
        expected = 0.5 * np.log(2) + 0.5 * np.log(2 / 3)
        assert kl_to_expert([0.5, 0.5], [0.25, 0.75]) == pytest.approx(expected)
        assert expected == pytest.approx(0.143841, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4)) + 1e-6
            q /= q.sum()
            assert kl_to_expert(p, q) >= -1e-12

    def test_zero_expert_mass_is_infinite_loss(self):
        with pytest.raises(ValueError, match="infinite loss"):
            kl_to_expert([0.5, 0.5], [1.0, 0.0])

    def test_policy_zero_where_expert_zero_ok(self):
        assert np.isfinite(kl_to_expert([1.0, 0.0], [1.0, 0.0]))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), K=st.integers(2, 6), n=st.integers(1, 5), one_row=st.booleans())
    def test_values_match_the_xlogy_formula_bit_for_bit(self, data, K, n, one_row):
        # Zeros, -0, NaN-making negatives and experts with zero entries.
        shape = (K,) if one_row else (n, K)
        size = int(np.prod(shape))
        z_entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5]), st.floats(-1.0, 2.0))
        y_entry = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
        z, y = (np.array(data.draw(st.lists(e, min_size=size, max_size=size))).reshape(shape)
                for e in (z_entry, y_entry))

        def formula(z, y):
            z, y = np.atleast_2d(z), np.atleast_2d(y)
            if np.any((y <= 0) & (z > 0)):
                raise ValueError("infinite loss: expert has zero mass where policy > 0")
            with np.errstate(divide="ignore", invalid="ignore"):
                return (xlogy(z, z) - xlogy(z, y)).sum(axis=1)

        try:
            want = formula(z, y)
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                MulticlassKLLoss().values(z, y)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = MulticlassKLLoss().values(z, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestProperties:
    """Finite-difference, Lipschitz, and convexity sweeps."""

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss()])
    def test_grad_matches_finite_differences(self, loss):
        rng = np.random.default_rng(7)
        z = rng.normal(scale=3.0, size=100)
        y = np.where(rng.random(100) < 0.5, 1.0, -1.0)
        if loss.kind == "squared":
            y = rng.normal(scale=2.0, size=100)
        h = 1e-6
        fd = (loss.values(z + h, y) - loss.values(z - h, y)) / (2 * h)
        grads = loss.grads(z, y)
        denom = np.maximum(np.abs(fd), 1e-8)
        assert np.max(np.abs(grads - fd) / denom) <= 1e-6

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss()])
    def test_grad_is_L_lipschitz(self, loss):
        rng = np.random.default_rng(8)
        a = rng.normal(scale=5.0, size=200)
        b = rng.normal(scale=5.0, size=200)
        y = np.where(rng.random(200) < 0.5, 1.0, -1.0)
        lhs = np.abs(loss.grads(a, y) - loss.grads(b, y))
        assert np.all(lhs <= loss.L * np.abs(a - b) + 1e-12)

    @pytest.mark.parametrize("loss", [SquaredLoss(), LogisticLoss()])
    def test_value_convex_along_segments(self, loss):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = rng.normal(scale=4.0, size=10)
            b = rng.normal(scale=4.0, size=10)
            y = np.where(rng.random(10) < 0.5, 1.0, -1.0)
            mid = loss_value(loss, (a + b) / 2, y)
            avg = (loss_value(loss, a, y) + loss_value(loss, b, y)) / 2
            assert mid <= avg + 1e-12


class TestSpecsAndHelpers:
    def test_constants(self):
        assert SquaredLoss().L == 1.0
        assert LogisticLoss().L == 0.25

    def test_smoothness_override(self):
        assert make_loss("logistic", smoothness=2.0).L == 2.0

    def test_smoothed_expert_rows(self):
        rows = smoothed_expert_rows([0, 2], 3, eps=0.06)
        assert np.all(rows > 0)
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert rows[0, 0] == pytest.approx(0.94)

    def test_multiclass_loss_value(self):
        rows = smoothed_expert_rows([0, 1], 2, eps=0.2)
        val = loss_value(MulticlassKLLoss(), rows, rows)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_multiclass_grad_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        loss = MulticlassKLLoss()
        expert = rng.dirichlet(np.ones(4), size=6) + 1e-3
        expert /= expert.sum(axis=1, keepdims=True)
        z = rng.dirichlet(np.ones(4), size=6) + 1e-3
        z /= z.sum(axis=1, keepdims=True)
        g = loss.grads(z, expert)
        h = 1e-7
        for i in range(6):
            for k in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i, k] += h
                zm[i, k] -= h
                fd = (loss.values(zp, expert)[i] - loss.values(zm, expert)[i]) / (2 * h)
                assert g[i, k] == pytest.approx(fd, rel=1e-5)
