import io
import pickle
from dataclasses import replace
from typing import get_args

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from helpers import datasets_equal, reference_parse_libsvm, scipy_csr
from targetopt import data, models
from targetopt.data import (
    Dataset,
    ParseError,
    SyntheticKind,
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
        assert list(zip(ds.X.indices + 1, ds.X.data)) == [(1, 0.5), (3, 2.0)]
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

    def test_binary_error_names_first_bad_label_at_its_file_line(self):
        with pytest.raises(ParseError, match=r"^line 4: binary label 2.0 not in"):
            parse_libsvm("# header\n\n+1 1:1\n2 1:1\n", task="binary")
        with pytest.raises(ParseError, match=r"^line 3: binary label 3.0 not in"):
            parse_libsvm("+1 1:1\n\n3 1:1\n2 1:1\n-1\n", task="binary")

    @pytest.mark.parametrize("text, message", [
        ("1 1:nan 2:inf\nnan 1:1\n", "line 1: non-finite feature token '1:nan'"),
        ("1 1:1\nnan 1:1\n", "line 2: non-finite label token 'nan'"),
        ("-inf\n", "line 1: non-finite label token '-inf'"),
        ("1 1:1\n1 2:1e999\n", "line 2: non-finite feature token '2:1e999'"),
        ("1 1:Infinity 0:1\n", "line 1: non-finite feature token '1:Infinity'"),
    ])
    def test_non_finite_numbers_rejected(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_libsvm(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("token", ["1_0:1", "\u0661:1", "1.0:1", "0x1:1", "1" * 19 + ":1"])
    def test_index_is_ascii_digits(self, token):
        with pytest.raises(ParseError, match="bad feature token"):
            parse_libsvm(f"1 {token}\n")

    def test_vertical_tab_and_form_feed_separate_tokens(self):
        ds = parse_libsvm("1\v1:1\f2:2\n")
        assert ds.n == 1 and ds.X.tolist() == [[1.0, 2.0]]

    def test_signed_index(self):
        assert parse_libsvm("1 +2:1\n").X.indices.tolist() == [1]
        with pytest.raises(ParseError, match="^line 1: feature index -2 < 1$"):
            parse_libsvm("1 -2:1\n")

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
        assert datasets_equal(ds, again)

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
        assert datasets_equal(ds, again)


class TestSynthetic:
    def test_counterexample_instance(self):
        ds = generate_synthetic(SyntheticSpec("counterexample-quadratics"))
        np.testing.assert_allclose(np.asarray(ds.X), [[1.0], [2.0]])
        np.testing.assert_allclose(ds.y, [1.0, -0.5])

    def test_counterexample_shape_fixed(self):
        with pytest.raises(ValueError, match="fixes n=2"):
            SyntheticSpec("counterexample-quadratics", n=3, d=1).validate()

    @pytest.mark.parametrize("key, value", [("cond", 50.0), ("noise", 0.1), ("seed", 3)])
    def test_counterexample_rejects_settings_it_does_not_read(self, key, value):
        # The instance is fixed: no cond, noise or seed changes it.
        with pytest.raises(ValueError, match=f"does not read '{key}'; leave it out"):
            SyntheticSpec("counterexample-quadratics", **{key: value}).validate()

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
        assert datasets_equal(a, b)

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
    assert datasets_equal(storage(ds), same) and datasets_equal(same, ds)
    assert not datasets_equal(storage(ds), other) and not datasets_equal(other, ds)


def _scipy_same_entries(A, B) -> bool:
    """The comparison through scipy.sparse: no entry of A != B."""
    to_scipy = lambda X: sp.csr_matrix(X) if isinstance(X, np.ndarray) else scipy_csr(X)
    return (to_scipy(A) != to_scipy(B)).nnz == 0


@pytest.mark.parametrize("seed", range(60))
def test_equal_to_matches_the_scipy_comparison(seed):
    # Stored +0 and -0 equal a missing entry, and NaN equals nothing.
    rng = np.random.default_rng(seed)
    values = lambda: rng.choice([0.0, -0.0, 1.0, -2.5, np.nan], size=(4, 3), p=[0.3, 0.2, 0.2, 0.2, 0.1])
    A = values()
    B = np.where(rng.random(A.shape) < 0.9, A, values())

    def csr(M):
        rows, cols = np.nonzero((M != 0) | (rng.random(M.shape) < 0.5))  # some zeros stored
        return models.CSR(M[rows, cols], cols, np.searchsorted(rows, np.arange(5)), M.shape)

    for X in (A, csr(A)):
        for Y in (B, csr(B)):
            got = datasets_equal(Dataset(X=X, y=np.zeros(4), task="regression"),
                                 Dataset(X=Y, y=np.zeros(4), task="regression"))
            assert got == _scipy_same_entries(X, Y)


def test_csr_dataset_pickles():
    ds = parse_libsvm(TEXT)
    again = pickle.loads(pickle.dumps(ds))
    assert type(again.X) is models.CSR and again.X.shape == ds.X.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(again.X, name), getattr(ds.X, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert datasets_equal(again, ds)


def test_max_abs_scale_accepts_dense(storage):
    ds = parse_libsvm(TEXT)
    got, want = max_abs_scale(storage(ds)), max_abs_scale(ds)
    assert type(got.X) is type(storage(ds).X)
    np.testing.assert_array_equal(models.dense(got.X), want.X.toarray())
    assert got.meta["scaled"]


def csc_round_trip_scale(X):
    """Max-abs scaling through a CSC copy of X, column by column."""
    C = sp.csc_matrix(X if isinstance(X, np.ndarray) else scipy_csr(X), copy=True)
    for j in range(C.shape[1]):
        lo, hi = C.indptr[j], C.indptr[j + 1]
        if hi > lo and (m := np.max(np.abs(C.data[lo:hi]))) > 0:
            C.data[lo:hi] /= m
    if isinstance(X, np.ndarray):
        return C.toarray()
    R = C.tocsr()
    return models.CSR(R.data, R.indices, R.indptr, R.shape)


def test_copies_start_with_no_stored_start_rows(storage):
    # The start rows a run stores belong to the dataset object they ran on.
    ds = storage(parse_libsvm(TEXT))
    ds.starts["key"] = (1.0, 2.0)
    for copy in (replace(ds), replace(ds, y=ds.y + 1.0), max_abs_scale(ds)):
        assert copy.starts == {} and copy.starts is not ds.starts
    assert ds.starts == {"key": (1.0, 2.0)}
    assert replace(ds) == ds and "starts" not in repr(ds)


def test_max_abs_scale_matches_the_csc_round_trip(storage):
    # Stored -0 and +0 entries, an all-zero column (3) and an empty row; a
    # dense -0 reads +0, and a CSR one stays stored.
    ds = parse_libsvm("1 1:4 2:-0 3:-8 4:0\n-2 2:0.25 4:-0\n0.5\n3 1:-0 2:1 3:3\n")
    ds = storage(ds)
    if isinstance(ds.X, np.ndarray):
        ds.X[0, 1] = ds.X[3, 0] = -0.0
    got, want = max_abs_scale(ds).X, csc_round_trip_scale(ds.X)
    assert type(got) is type(want)
    arrays = (lambda X: [X]) if isinstance(got, np.ndarray) else (
        lambda X: [X.data, X.indices, X.indptr])
    for a, ref in zip(arrays(got), arrays(want)):
        assert a.dtype == ref.dtype and a.tobytes() == ref.tobytes()
    zeros = got[got == 0] if isinstance(got, np.ndarray) else got.data[got.data == 0]
    assert np.signbit(zeros).sum() == (0 if isinstance(got, np.ndarray) else 3)


def test_to_libsvm_accepts_dense(storage):
    ds = parse_libsvm(TEXT)
    text = to_libsvm(storage(ds))
    assert text == to_libsvm(ds)
    assert datasets_equal(parse_libsvm(text, d=ds.d), ds)


class TestStorage:
    """X is a dense ndarray exactly when every entry is stored."""

    @pytest.mark.parametrize("kind", get_args(SyntheticKind))
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
        assert type(X) is models.CSR

    def test_dense_round_trip(self):
        ds = generate_synthetic(SyntheticSpec("logistic", n=8, d=3, noise=0.1, seed=4))
        again = parse_libsvm(to_libsvm(ds), task="binary")
        assert isinstance(again.X, np.ndarray)
        assert datasets_equal(ds, again) and datasets_equal(again, ds)


def _assert_same_parse(got, want):
    """The same X arrays and dtypes, storage, labels and label map."""
    assert type(got.X) is type(want.X) and got.X.shape == want.X.shape
    if type(want.X) is models.CSR:
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got.X, name), getattr(want.X, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(got.X.data), np.signbit(want.X.data))
    else:
        assert got.X.dtype == want.X.dtype
        np.testing.assert_array_equal(got.X, want.X)
        np.testing.assert_array_equal(np.signbit(got.X), np.signbit(want.X))
    assert got.y.dtype == want.y.dtype
    np.testing.assert_array_equal(got.y, want.y)
    np.testing.assert_array_equal(np.signbit(got.y), np.signbit(want.y))
    assert (got.task, got.n_classes, got.label_map) == (want.task, want.n_classes, want.label_map)
    assert [type(v) for v in got.label_map] == [type(v) for v in want.label_map]


def _outcome(parse, text, **kw):
    """The parse, or the type and text of the error it raises."""
    try:
        return parse(text, **kw)
    except ValueError as err:
        return type(err), str(err)


def _check_against_reference(text, block_bytes=None, **kw):
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes is not None:
            mp.setattr(data, "_BLOCK_BYTES", block_bytes)
        got = _outcome(parse_libsvm, text, **kw)
    want = _outcome(reference_parse_libsvm, text, **kw)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, Dataset), got
        _assert_same_parse(got, want)


NUMBERS = st.one_of(
    st.integers(-10**15 + 1, 10**15 - 1).map(str),
    st.integers(0, 99).map(lambda v: f"+{v}"),
    st.integers(0, 999).map(lambda v: f"-{v:04d}"),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: format(v, ".17g")),
    st.sampled_from(["0.5", "-.25", "1e3", "2E-3", "-0", "-0.0", "7.", "123456789012345678"]),
)
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
# \v and \f separate tokens here but end a line for str.splitlines.
SPACE = st.sampled_from([" ", "  ", "\t", " \t"])


@st.composite
def libsvm_lines(draw, labels=NUMBERS):
    """Lines of LibSVM text without line ends: rows with leading, inner and
    trailing whitespace and comments, blank lines and comment lines."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "label-only", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #", "#1 1:1"])))
            continue
        parts = [draw(labels)]
        if kind == "row":
            for idx in sorted(draw(st.sets(st.integers(1, 12), max_size=6))):
                parts.append(f"{idx}:{draw(NUMBERS)}")
        line = "".join(p + draw(SPACE) for p in parts[:-1]) + parts[-1]
        lead, tail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", " # c", "#x:y"]))
        lines.append(lead + line + tail)
    return lines


def _join(lines, ends):
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def libsvm_text(draw, labels=NUMBERS):
    lines = draw(libsvm_lines(labels))
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return _join(lines, ends)


@st.composite
def fully_stored_rows(draw):
    """(labels, rows of value tokens) with every row storing all d entries;
    explicit zeros and -0 are common."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.one_of(NUMBERS, st.sampled_from(["0", "-0", "0.0", "-0.0"]))
    labels = [draw(NUMBERS) for _ in range(n)]
    return labels, [[draw(value) for _ in range(d)] for _ in range(n)]


def _text(labels, rows):
    return "".join(
        " ".join([label] + [f"{j + 1}:{tok}" for j, tok in row]) + "\n"
        for label, row in zip(labels, rows)
    )


class TestDenseParse:
    """A text that stores all d entries on every line parses straight to an
    ndarray, bit for bit the toarray of the CSR matrix of its entries."""

    @settings(max_examples=150, deadline=None)
    @given(case=fully_stored_rows(), override=st.booleans())
    def test_matches_csr_toarray(self, case, override):
        labels, rows = case
        n, d = len(rows), len(rows[0])
        X = parse_libsvm(_text(labels, [list(enumerate(r)) for r in rows]),
                         d=d if override else None).X
        values = np.array([float(tok) for row in rows for tok in row])
        indptr = np.arange(0, n * d + 1, d)
        want = sp.csr_matrix((values, np.tile(np.arange(d), n), indptr), shape=(n, d)).toarray()
        assert type(X) is np.ndarray and X.dtype == want.dtype and X.flags.c_contiguous
        np.testing.assert_array_equal(X.view(np.int64), want.view(np.int64))  # signbits too

    @settings(max_examples=50, deadline=None)
    @given(case=fully_stored_rows(), data=st.data())
    def test_missing_entry_is_csr(self, case, data):
        labels, rows = case
        n, d = len(rows), len(rows[0])
        entries = [list(enumerate(r)) for r in rows]
        i = data.draw(st.integers(0, n - 1))
        del entries[i][data.draw(st.integers(0, d - 1))]
        X = parse_libsvm(_text(labels, entries), d=d).X
        assert type(X) is models.CSR and X.nnz == n * d - 1


BAD_TOKENS = {
    "label": ["x", "1:1", "--1", "1e", ""],
    "feature": ["5", "1:2:3", "3:", ":3", "1:abc", "a:1", "1.5:1", "1::2"],
    "index": ["0:1", "-2:1", "-0:1"],
    "order": ["4:1 4:2", "5:1 3:1"],
}


class TestMatchesReference:
    """parse_libsvm gives the token-by-token reference parser's arrays,
    dtypes, labels and label map, and its errors with their lines."""

    @pytest.mark.parametrize("text", [
        "# header\n\n+1 1:1  # tail\n-1 2:3\n",
        "+1 1:1\r\n-1 2:3\r\n",
        "1\t1:1\t\t2:-3\r-1 2:3\r\r",
        "0.5\n-2 1:1\n7\n",  # label-only rows
        "-1.5 1:-2 2:0.25 3:1e-3 4:-2.5E+2 5:-0 6:007 7:+3 8:1_0\n",
        "1 1:123456789012345 2:-999999999999999 3:1234567890123456 4:0.1\n",
        "  3 1:1 # a # b\n\t\n#only\n2 2:2",
        "",
        "\n\n",
        "1 1:1\n2 2:2\n3 1:1 2:2",
    ])
    @pytest.mark.parametrize("task", ["regression", "multiclass"])
    def test_fixed_cases(self, text, task):
        _check_against_reference(text, task=task)

    def test_binary_and_remap(self):
        _check_against_reference("+1 1:1\n-1 2:1\n1 1:2\n", task="binary")
        _check_against_reference("2 1:1\n1 2:1\n2 1:2\n", task="binary", allow_binary_remap=True)

    @pytest.mark.parametrize("kind", ["str", "bytes", "binary-file", "text-file", "lines", "line-iterator"])
    def test_input_kinds(self, kind):
        text = "# c\n1 1:0.5 3:2\r\n\n-2 2:1e-3\n4\n"
        source = {
            "str": lambda: text,
            "bytes": lambda: text.encode(),
            "binary-file": lambda: io.BytesIO(text.encode()),
            "text-file": lambda: io.StringIO(text, newline=""),
            "lines": lambda: text.splitlines(),
            "line-iterator": lambda: iter(text.splitlines(keepends=True)),
        }[kind]
        _assert_same_parse(parse_libsvm(source(), task="multiclass"),
                           reference_parse_libsvm(source(), task="multiclass"))

    @settings(max_examples=150, deadline=None)
    @given(text=libsvm_text(), task=st.sampled_from(["regression", "multiclass"]),
           block_bytes=st.sampled_from([None, 1, 7, 16, 64]))
    def test_random_text(self, text, task, block_bytes):
        _check_against_reference(text, block_bytes=block_bytes, task=task)

    @settings(max_examples=50, deadline=None)
    @given(text=libsvm_text(labels=st.sampled_from(["1", "+1", "-1", "1.0", "-1e0"])),
           block_bytes=st.sampled_from([None, 5, 32]))
    def test_random_binary_text(self, text, block_bytes):
        _check_against_reference(text, block_bytes=block_bytes, task="binary")

    @settings(max_examples=150, deadline=None)
    @given(lines=libsvm_lines(), data=st.data(), block_bytes=st.sampled_from([None, 8, 24]))
    def test_random_malformed_line(self, lines, data, block_bytes):
        kind = data.draw(st.sampled_from(sorted(BAD_TOKENS)))
        bad = data.draw(st.sampled_from(BAD_TOKENS[kind]))
        line = bad + " 1:1" if kind == "label" else "1 2:1 " + bad if kind == "order" else "1 " + bad
        lines.insert(data.draw(st.integers(0, len(lines))), line)
        ends = data.draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
        text = _join(lines, ends)
        _check_against_reference(text, block_bytes=block_bytes)
        with pytest.raises(ParseError):
            parse_libsvm(text)

    @pytest.mark.parametrize("kind", sorted(BAD_TOKENS))
    @pytest.mark.parametrize("where", ["first-block", "later-block"])
    def test_malformed_kinds(self, kind, where):
        rows = [f"{i % 3} 1:{i} 2:0.5" for i in range(40)]
        at = 1 if where == "first-block" else 33
        for bad in BAD_TOKENS[kind]:
            line = bad + " 1:1" if kind == "label" else "1 2:1 " + bad if kind == "order" else "1 " + bad
            text = "\n".join(rows[:at] + [line] + rows[at:]) + "\n"
            _check_against_reference(text, block_bytes=128)
            with pytest.raises(ParseError, match=f"^line {at + 1}: "):
                parse_libsvm(text)

    @pytest.mark.parametrize("missing", [None, 0, 37])
    def test_dense_rule_across_blocks(self, missing):
        rows = [f"{i} 1:{i} 2:1 3:-1" for i in range(40)]
        if missing is not None:
            rows[missing] = f"{missing} 1:1 3:1"
        text = "\n".join(rows) + "\n"
        _check_against_reference(text, block_bytes=100)
        assert isinstance(parse_libsvm(text).X, np.ndarray) == (missing is None)

    @pytest.mark.parametrize("block_bytes", range(2, 12))
    def test_crlf_at_a_block_edge_is_one_line_end(self, block_bytes):
        text = "1 1:1\r\n" * 5 + "2 1:x\r\n"
        _check_against_reference(text, block_bytes=block_bytes)

    def test_long_line_spans_blocks(self):
        row = "1 " + " ".join(f"{j}:{j / 7!r}" for j in range(1, 200))
        _check_against_reference(f"{row}\r\n2 1:1\r{row}\n", block_bytes=50)
