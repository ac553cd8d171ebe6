import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from targetopt.data import (
    SYNTHETIC_KINDS,
    Dataset,
    ParseError,
    SyntheticSpec,
    generate_synthetic,
    max_abs_scale,
    parse_libsvm,
    to_libsvm,
)


class TestParse:
    def test_single_binary_line(self):
        ds = parse_libsvm("+1 1:0.5 3:2\n", task="binary")
        assert ds.n == 1 and ds.d == 3
        row = ds.X.getrow(0)
        assert list(zip(row.indices + 1, row.data)) == [(1, 0.5), (3, 2.0)]
        assert ds.y.tolist() == [1.0]

    def test_empty_input(self):
        ds = parse_libsvm("", task="regression")
        assert ds.n == 0 and ds.d == 0

    def test_two_line_regression(self):
        ds = parse_libsvm("1.5 1:1\n-2 2:4\n", task="regression")
        assert ds.n == 2 and ds.d == 2
        assert ds.y.tolist() == [1.5, -2.0]

    def test_comments_and_blank_lines(self):
        ds = parse_libsvm("# header\n\n+1 1:1  # tail\n-1 2:3\n", task="binary")
        assert ds.n == 2 and ds.d == 2

    def test_crlf_and_bytes_input(self):
        ds = parse_libsvm(b"+1 1:1\r\n-1 2:3\r\n", task="binary")
        assert ds.n == 2 and ds.d == 2

    def test_malformed_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("1 1:1\n1 1:abc\n")

    def test_nonincreasing_indices_rejected(self):
        with pytest.raises(ParseError, match="not strictly increasing"):
            parse_libsvm("1 2:1 2:2\n")
        with pytest.raises(ParseError, match="not strictly increasing"):
            parse_libsvm("1 3:1 2:2\n")

    def test_label_outside_binary_domain(self):
        with pytest.raises(ParseError, match="binary label"):
            parse_libsvm("2 1:1\n", task="binary")

    def test_binary_remap_optin(self):
        ds = parse_libsvm("1 1:1\n2 1:2\n", task="binary", allow_binary_remap=True)
        assert sorted(ds.y.tolist()) == [-1.0, 1.0]

    def test_multiclass_first_appearance_remap(self):
        ds = parse_libsvm("7 1:1\n3 1:1\n7 2:1\n", task="multiclass")
        assert ds.y.tolist() == [0.0, 1.0, 0.0]
        assert ds.n_classes == 2
        assert ds.label_map == (7.0, 3.0)

    def test_d_override(self):
        ds = parse_libsvm("1 1:1\n", task="regression", d=5)
        assert ds.d == 5
        with pytest.raises(ValueError, match="override"):
            parse_libsvm("1 3:1\n", task="regression", d=2)


class TestRoundTrip:
    def test_simple_round_trip(self):
        text = "+1 1:0.5 3:2\n-1 2:1.25\n"
        ds = parse_libsvm(text, task="binary")
        again = parse_libsvm(to_libsvm(ds), task="binary")
        assert ds.equal_to(again)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_round_trip_random(self, data):
        n = data.draw(st.integers(0, 6))
        d = data.draw(st.integers(1, 5))
        rows = []
        for _ in range(n):
            label = data.draw(
                st.floats(-10, 10, allow_nan=False, allow_infinity=False)
            )
            idxs = sorted(
                data.draw(st.sets(st.integers(1, d), min_size=0, max_size=d))
            )
            vals = [
                data.draw(
                    st.floats(-5, 5, allow_nan=False, allow_infinity=False).filter(
                        lambda v: v != 0
                    )
                )
                for _ in idxs
            ]
            rows.append(
                f"{label!r} " + " ".join(f"{i}:{v!r}" for i, v in zip(idxs, vals))
            )
        text = "\n".join(rows) + ("\n" if rows else "")
        ds = parse_libsvm(text, task="regression", d=d)
        again = parse_libsvm(to_libsvm(ds), task="regression", d=d)
        assert ds.equal_to(again)


class TestSynthetic:
    def test_counterexample_instance(self):
        ds = generate_synthetic(SyntheticSpec("counterexample-quadratics"))
        np.testing.assert_allclose(np.asarray(ds.X), [[1.0], [2.0]])
        np.testing.assert_allclose(ds.y, [1.0, -0.5])

    def test_counterexample_shape_fixed(self):
        with pytest.raises(ValueError, match="fixes n=2"):
            SyntheticSpec("counterexample-quadratics", n=3, d=1).validate()

    def test_interpolating_zero_residual(self):
        ds = generate_synthetic(SyntheticSpec("interpolating", n=40, d=7, seed=5))
        theta, *_ = np.linalg.lstsq(np.asarray(ds.X), ds.y, rcond=None)
        assert np.linalg.norm(ds.X @ theta - ds.y) <= 1e-9

    def test_interpolating_min_loss_zero(self):
        ds = generate_synthetic(SyntheticSpec("interpolating", n=30, d=4, seed=1))
        theta, res, *_ = np.linalg.lstsq(np.asarray(ds.X), ds.y, rcond=None)
        h_min = 0.5 * np.sum((ds.X @ theta - ds.y) ** 2) / ds.n
        assert h_min <= 1e-18

    def test_determinism(self):
        spec = SyntheticSpec("least-squares", n=20, d=5, cond=10, noise=0.5, seed=11)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        assert a.equal_to(b)

    def test_condition_number_target(self):
        ds = generate_synthetic(SyntheticSpec("least-squares", n=50, d=8, cond=100, seed=2))
        s = np.linalg.svd(np.asarray(ds.X), compute_uv=False)
        np.testing.assert_allclose((s[0] / s[-1]) ** 2, 100.0, rtol=1e-8)

    def test_logistic_labels(self):
        ds = generate_synthetic(SyntheticSpec("logistic", n=30, d=4, noise=0.1, seed=3))
        assert ds.task == "binary"
        assert set(np.unique(ds.y)) <= {-1.0, 1.0}

    def test_interpolating_requires_zero_noise(self):
        with pytest.raises(ValueError, match="noise"):
            SyntheticSpec("interpolating", n=5, d=2, noise=0.1).validate()


def test_max_abs_scale_bounds_columns():
    ds = parse_libsvm("1 1:4 2:-8\n2 1:2\n", task="regression")
    scaled = max_abs_scale(ds)
    assert np.max(np.abs(scaled.X.toarray())) <= 1.0 + 1e-15
    assert np.max(np.abs(ds.X.toarray())) == 8.0  # original untouched


def _dense_copy(ds):
    return Dataset(X=ds.X.toarray(), y=ds.y.copy(), task=ds.task, n_classes=ds.n_classes,
                   label_map=ds.label_map)


@pytest.fixture(params=["csr", "dense"])
def storage(request):
    """Turns a CSR dataset into the parametrized storage."""
    return (lambda ds: ds) if request.param == "csr" else _dense_copy


TEXT = "1.5 1:4 3:-8\n-2 2:0.25\n0.5\n3 1:2 2:1 3:1\n"


def test_equal_to_accepts_dense(storage):
    ds = parse_libsvm(TEXT)
    same, other = storage(parse_libsvm(TEXT)), storage(parse_libsvm(TEXT.replace("4", "5")))
    assert storage(ds).equal_to(same) and same.equal_to(ds)
    assert not storage(ds).equal_to(other) and not other.equal_to(ds)


def test_max_abs_scale_accepts_dense(storage):
    ds = parse_libsvm(TEXT)
    got, want = max_abs_scale(storage(ds)), max_abs_scale(ds)
    assert sp.issparse(got.X) == sp.issparse(storage(ds).X)
    np.testing.assert_array_equal(sp.csr_matrix(got.X).toarray(), want.X.toarray())
    assert got.meta["scaled"]


def test_to_libsvm_accepts_dense(storage):
    ds = parse_libsvm(TEXT)
    text = to_libsvm(storage(ds))
    assert text == to_libsvm(ds)
    assert parse_libsvm(text, d=ds.d).equal_to(ds)


class TestStorage:
    """X is a dense ndarray exactly when every entry is stored."""

    @pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
    def test_synthetic_is_dense(self, kind):
        spec = SyntheticSpec(kind) if kind == "counterexample-quadratics" else SyntheticSpec(kind, n=6, d=3)
        assert isinstance(generate_synthetic(spec).X, np.ndarray)

    def test_fully_stored_text_is_dense(self):
        ds = parse_libsvm("1 1:0.5 2:0\n-2 1:3 2:4\n")
        assert isinstance(ds.X, np.ndarray)
        np.testing.assert_array_equal(ds.X, [[0.5, 0.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text, d", [
        ("1 1:0.5 2:1\n-2 2:4\n", None),  # one missing entry
        ("1 1:0.5 2:1\n-2 1:3 2:4\n", 3),  # d above the largest index
        ("", None),  # empty
    ], ids=["missing-entry", "d-override", "empty"])
    def test_partly_stored_text_is_csr(self, text, d):
        X = parse_libsvm(text, d=d).X
        assert sp.issparse(X) and X.format == "csr"

    def test_dense_round_trip(self):
        ds = generate_synthetic(SyntheticSpec("logistic", n=8, d=3, noise=0.1, seed=4))
        again = parse_libsvm(to_libsvm(ds), task="binary")
        assert isinstance(again.X, np.ndarray)
        assert ds.equal_to(again) and again.equal_to(ds)
