r"""Dataset loading and synthetic problem generation.

A dataset is a feature matrix with a label vector. The feature matrix is
a dense ndarray when every entry is present (synthetic data, and LibSVM
text that stores all n*d entries) and a `models.CSR` matrix otherwise; this
module builds, serializes, compares and scales X, and it and `models` alone
know its storage. Parsing follows the LibSVM format (`<label> <idx>:<val> ...`
with 1-based, strictly increasing feature indices per line) on the text's
bytes: lines end at "\n", "\r\n" or a lone "\r", tokens are split
on ASCII whitespace, an index is ASCII digits, and labels and values must
be finite (the full grammar is in `parse_libsvm`). The parser works on one
block of whole lines at a time, with numpy operations over the block's
bytes and no Python loop over tokens. No path here imports scipy.sparse.
Synthetic generators cover least-squares / logistic instances with a
controllable condition number, exactly interpolable instances, and the
fixed two-quadratic instance used by the lower-bound diagnostics.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
from typing import Literal, get_args

import numpy as np

from .models import CSR
from .schema import check, reject_unread

Task = Literal["regression", "binary", "multiclass"]
TASKS = get_args(Task)
SyntheticKind = Literal["least-squares", "logistic", "counterexample-quadratics", "interpolating"]


class ParseError(ValueError):
    """Malformed LibSVM input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Dataset:
    """Feature matrix with labels.

    `X` is an n-by-d dense ndarray when every entry is present and a `CSR`
    matrix otherwise (see `parse_libsvm` and `generate_synthetic`).
    `y` holds the labels the loss sees: floats for regression, values in
    {-1, +1} for binary classification, and contiguous class ids 0..K-1
    for multiclass (with `label_map` recording the original label of each
    id in first-appearance order). A multiclass-kl problem replaces the
    ids by their (n, K) smoothed expert rows (`harness.load_problem`).
    Instances are treated as immutable once built and are safe to share
    across concurrent runs.
    """

    X: CSR | np.ndarray
    y: np.ndarray
    task: Task
    n_classes: int = 0
    label_map: tuple = ()
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.y.shape[0] != self.n:
            raise ValueError("label count does not match row count")
        if self.task == "binary" and self.n and not np.all(np.abs(self.y) == 1.0):
            raise ValueError("binary labels must be in {-1, +1}")
        if self.task == "multiclass":
            if self.n_classes < 1:
                raise ValueError("multiclass dataset needs n_classes >= 1")
            if self.n and (self.y.min() < 0 or self.y.max() >= self.n_classes):
                raise ValueError("class ids must lie in [0, n_classes)")

    def equal_to(self, other: "Dataset") -> bool:
        """The same task, labels and entries in either storage; -0 equals
        +0, and a NaN entry equals nothing."""
        return (
            self.task == other.task
            and self.X.shape == other.X.shape
            and self.n_classes == other.n_classes
            and self.label_map == other.label_map
            and np.array_equal(self.y, other.y)
            and all(map(np.array_equal, _nonzeros(self.X), _nonzeros(other.X)))
        )


def _nonzeros(X):
    """(rows, columns, values) of X's nonzero entries in row-major order
    (a CSR X's rows list their columns in increasing order, as parsed ones do)."""
    if isinstance(X, np.ndarray):
        rows, cols = np.nonzero(X)
        return rows, cols, X[rows, cols]
    keep = X.data != 0
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    return rows[keep], X.indices[keep], X.data[keep]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for `generate_synthetic`.

    `cond` targets the condition number of X^T X; `noise` is the label
    noise scale. The counterexample kind is one fixed two-example instance
    and rejects any other setting that is not at its default.
    """

    kind: SyntheticKind
    n: int = 2
    d: int = 1
    cond: float = 1.0
    noise: float = 0.0
    seed: int = 0

    def validate(self, path: str = "") -> None:
        check(self, path)
        at, where = (f"{path}.", f"{path}: ") if path else ("", "")
        for name in ("n", "d"):
            if getattr(self, name) < 1:
                raise ValueError(f"{at}{name} must be positive, not {getattr(self, name)!r}")
        if self.cond < 1.0:
            raise ValueError(f"{at}cond must be >= 1, not {self.cond!r}")
        if self.noise < 0.0:
            raise ValueError(f"{at}noise must be >= 0, not {self.noise!r}")
        if self.kind == "counterexample-quadratics":
            if (self.n, self.d) != (2, 1):
                raise ValueError(f"{where}counterexample-quadratics fixes n=2, d=1, "
                                 f"not n={self.n}, d={self.d}")
            reject_unread(self, f"{where}synthetic kind {self.kind!r}", ("cond", "noise", "seed"))
        if self.kind == "interpolating" and self.noise != 0.0:
            raise ValueError(f"{where}interpolating instances require noise = 0")


# Blocks bound the parser's temporary arrays, a few dozen bytes per input
# byte; a 64 KiB block parses as fast as a 128 KiB one with less memory.
_BLOCK_BYTES = 1 << 16
# Integers of up to 15 digits convert to float exactly (10**15 < 2**53);
# an index of up to 18 digits fits in int64.
_EXACT_DIGITS = 15
_INDEX_DIGITS = 18


def _as_bytes(text) -> bytes:
    if isinstance(text, io.IOBase):
        text = text.read()
    elif not isinstance(text, (str, bytes)):
        text = "\n".join(line.rstrip("\n") for line in text)
    if isinstance(text, str):
        return text.encode("utf-8")
    if not text.isascii():
        text.decode("utf-8")  # malformed UTF-8 raises UnicodeDecodeError
    return text


def _block_stop(buf: bytes, start: int) -> int:
    """End of the block from `start`: just past the last line end within
    _BLOCK_BYTES, or past the first one after it for a longer line."""
    stop = start + _BLOCK_BYTES
    if stop >= len(buf):
        return len(buf)
    cut = max(buf.rfind(b"\n", start, stop), buf.rfind(b"\r", start, stop))
    if cut < 0:
        found = [p for p in (buf.find(b"\n", stop), buf.find(b"\r", stop)) if p >= 0]
        cut = min(found) if found else len(buf) - 1
    if buf[cut : cut + 2] == b"\r\n":
        cut += 1
    return cut + 1


def _in_spans(size: int, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Mask of the positions 0..size-1 inside the disjoint spans [start, stop)."""
    edge = np.zeros(size + 1, dtype=np.int8)
    edge[start] = 1
    edge[stop] -= 1
    return np.cumsum(edge[:-1], dtype=np.int8) > 0


def _integers(b: np.ndarray, start: np.ndarray, stop: np.ndarray, digits: int):
    """The fields b[start:stop] read as optionally signed decimal integers
    of at most `digits` digits: (magnitude, negative, ok), with ok False
    where a field is not one. One pass per digit position, from the end."""
    head = b.take(start, mode="clip")
    negative = head == ord("-")
    size = stop - start - (negative | (head == ord("+")))
    ok = (size >= 1) & (size <= digits)
    value = np.zeros(len(start), dtype=np.int64)
    for k in range(int(size[ok].max(initial=0))):
        digit = (b.take(stop - 1 - k, mode="clip") - np.uint8(ord("0"))).astype(np.int64)
        digit[size <= k] = 0
        ok &= digit < 10
        value += digit * 10**k
    return value, negative, ok


def _parse_block(buf: bytes, lo: int, hi: int, line0: int):
    """Rows of the whole lines buf[lo:hi], whose first line is file line
    `line0`: (labels, row lines, 0-based indices, values, entries per row,
    line ends in the block). Raises ParseError for the first bad token."""
    b = np.frombuffer(buf, dtype=np.uint8, count=hi - lo, offset=lo)
    line_end = b == ord("\n")
    if buf.find(b"\r", lo, hi) >= 0:  # a lone \r ends a line, \r\n is one end
        lone = b == ord("\r")
        lone[:-1] &= ~line_end[1:]
        line_end |= lone
    ends = np.flatnonzero(line_end)
    if buf.find(b"#", lo, hi) >= 0:  # blank each line from its first '#'
        hashes = np.flatnonzero(b == ord("#"))
        line = np.searchsorted(ends, hashes)
        first = np.ones(len(hashes), dtype=bool)
        first[1:] = line[1:] != line[:-1]
        stop = np.append(ends, len(b))[line[first]]
        b = np.where(_in_spans(len(b), hashes[first], stop), np.uint8(ord(" ")), b)

    # Tokens are runs of bytes that are not ASCII whitespace: space or \t..\r.
    in_token = (b != ord(" ")) & (b - np.uint8(ord("\t")) > 4)
    edge = np.flatnonzero(np.diff(in_token.view(np.int8), prepend=np.int8(0), append=np.int8(0)))
    start, stop = edge[::2], edge[1::2]
    # A label is the first token of the block or the first after a line end.
    is_label = np.zeros(len(start) + 1, dtype=bool)
    is_label[np.searchsorted(start, ends)] = True
    is_label[0] = True
    is_label = is_label[:-1]
    label = np.flatnonzero(is_label)
    feat = np.flatnonzero(~is_label)

    # A feature token is <index>:<value> with exactly one ':', so in a
    # good block the k-th ':' lies inside the k-th feature token.
    bad = np.zeros(len(start), dtype=bool)
    colon = np.flatnonzero(b == ord(":"))
    if not (
        len(colon) == len(feat)
        and (start[feat] < colon).all()
        and (colon < stop[feat]).all()
    ):
        owner = np.searchsorted(start, colon, "right") - 1
        bad[feat] = np.bincount(owner, minlength=len(start))[feat] != 1
        at = np.zeros(len(start), dtype=np.int64)
        at[owner] = colon
        colon = at[feat]
    index, negative, ok = _integers(b, start[feat], colon, _INDEX_DIGITS)
    index[negative] *= -1
    bad[feat] |= ~ok

    # Numbers: the label token, or the value after a feature's ':'.
    num_start = start.copy()
    num_start[feat] = colon + 1
    bad |= num_start >= stop  # an empty value, which has no field to convert
    magnitude, negative, exact = _integers(b, num_start, stop, _EXACT_DIGITS)
    x = magnitude.astype(np.float64)
    x[negative] *= -1.0
    rest = np.flatnonzero(~exact & ~bad)
    if len(rest):
        fields = np.where(_in_spans(len(b), num_start[rest], stop[rest]), b, np.uint8(ord(" ")))
        got: list = []
        try:
            got.extend(map(float, fields.tobytes().split()))
        except ValueError:
            bad[rest[len(got)]] = True  # extend kept the fields before the bad one
        x[rest[: len(got)]] = got
    nonfinite = ~np.isfinite(x) & ~bad

    below_one = np.zeros(len(start), dtype=bool)
    below_one[feat] = index < 1
    repeated = np.zeros(len(start), dtype=bool)
    repeated[feat[1:]] = ~is_label[feat[1:] - 1] & (index[1:] <= index[:-1])
    error = bad | nonfinite | below_one | repeated
    if error.any():
        t = int(np.argmax(error))
        if bad[t] or nonfinite[t]:
            token = buf[lo + start[t] : lo + stop[t]].decode("utf-8")
            what = "bad" if bad[t] else "non-finite"
            message = f"{what} {'label' if is_label[t] else 'feature'} token {token!r}"
        else:
            idx = int(index[np.searchsorted(feat, t)])
            message = f"feature index {idx} " + ("< 1" if below_one[t] else "not strictly increasing")
        raise ParseError(line0 + int(np.searchsorted(ends, start[t])), message)

    counts = np.diff(np.append(label, len(start))) - 1
    lines = line0 + np.searchsorted(ends, start[label])
    return x[label], lines, index - 1, x[feat], counts, len(ends)


def parse_libsvm(
    text,
    task: Task = "regression",
    d: int | None = None,
    allow_binary_remap: bool = False,
) -> Dataset:
    r"""Parse LibSVM-format text into a Dataset.

    `text` may be a str, bytes, file object, or iterable of lines (joined
    with "\n"); bytes are UTF-8. The grammar, on the text's bytes:

    - lines end at "\n", "\r\n" or a lone "\r", and are numbered from 1;
    - `#` starts a comment that runs to the end of its line, and lines
      with no token are skipped;
    - tokens are split on ASCII whitespace (space, \t, \n, \r, \v, \f);
    - the first token of a line is the label, and each later token is
      `<index>:<value>` with exactly one `:`;
    - an index is ASCII digits (at most 18) with an optional sign, at
      least 1 and strictly increasing along its line;
    - a label or value is a token Python's `float()` accepts (signed
      integers of up to 15 digits convert without it, to the same
      float), and must be finite.

    A violation raises ParseError with the line of the first bad token.
    `d` overrides the inferred feature dimension (max index seen); it is an
    error for it to be smaller than an observed index. X is a dense ndarray
    when every line stores all d entries, and CSR otherwise. For binary
    tasks, `allow_binary_remap=True` maps a two-valued label set (e.g.
    {1, 2}) onto {+1, -1} by sorted order instead of rejecting it.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    buf = _as_bytes(text)
    no_float, no_int = np.empty(0), np.empty(0, dtype=np.int64)
    parts = [(no_float, no_int, no_int, no_float, no_int)]
    lo, line0 = 0, 1
    while lo < len(buf):
        hi = _block_stop(buf, lo)
        *block, n_ends = _parse_block(buf, lo, hi, line0)
        parts.append(block)
        lo, line0 = hi, line0 + n_ends
    y, lines, indices, values, counts = (np.concatenate(p) for p in zip(*parts))

    max_index = int(indices.max()) + 1 if len(indices) else 0
    if d is None:
        d = max_index
    elif d < max_index:
        raise ValueError(f"d override {d} smaller than max feature index {max_index}")

    n = len(y)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if 0 < len(values) == n * d:
        # Each line stores indices 0..d-1 in order (they increase strictly
        # and stay below d). Adding 0.0 reads a stored -0 as +0, as a CSR
        # matrix's toarray, which sums into zeros, does.
        X = values.reshape(n, d) + 0.0
    else:
        # Index arrays of int32 where every index fits, as scipy's constructor makes them.
        index = np.int32 if max(n, d, len(values)) <= np.iinfo(np.int32).max else np.int64
        X = CSR(values, indices.astype(index), indptr.astype(index), (n, d))
        if len(X.indptr) != n + 1 or X.indptr[0] != 0 or not X.nnz == len(X.indices) == len(X.data):
            raise ValueError("the CSR arrays do not describe the parsed rows")
    n_classes = 0
    label_map: tuple = ()

    if task == "binary" and n:
        bad = (y != 1.0) & (y != -1.0)
        if bad.any():
            distinct = np.unique(y)
            if allow_binary_remap and len(distinct) == 2:
                y = np.where(y == distinct[0], 1.0, -1.0)
            else:
                first = int(np.argmax(bad))
                raise ParseError(
                    int(lines[first]), f"binary label {float(y[first])} not in {{-1, +1}}"
                )
    elif task == "multiclass":
        # Class ids in order of first appearance.
        classes, first, inverse = np.unique(y, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty(len(classes), dtype=np.int64)
        rank[order] = np.arange(len(classes))
        label_map = tuple(y[first[order]])
        y = rank[inverse.ravel()].astype(np.float64)
        n_classes = len(classes)

    ds = Dataset(X=X, y=y, task=task, n_classes=n_classes, label_map=label_map)
    ds.validate()
    return ds


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_libsvm(ds: Dataset) -> str:
    """Serialize a Dataset back to LibSVM text (round-trips via parse).

    A row lists a dense X's nonzero entries (-0 is zero) in column order,
    and a CSR X's stored entries in its own order."""
    X = ds.X
    if isinstance(X, np.ndarray):
        rows, indices = np.nonzero(X)
        data, indptr = X[rows, indices], np.searchsorted(rows, np.arange(ds.n + 1))
    else:
        indices, data, indptr = X.indices, X.data, X.indptr
    out = []
    for i in range(ds.n):
        if ds.task == "multiclass":
            label = _fmt(ds.label_map[int(ds.y[i])])
        elif ds.task == "binary":
            label = "+1" if ds.y[i] > 0 else "-1"
        else:
            label = _fmt(ds.y[i])
        lo, hi = indptr[i], indptr[i + 1]
        feats = " ".join(
            f"{indices[k] + 1}:{_fmt(data[k])}" for k in range(lo, hi)
        )
        out.append(label + (" " + feats if feats else ""))
    return "\n".join(out) + ("\n" if out else "")


def max_abs_scale(ds: Dataset) -> Dataset:
    """Column-wise max-abs scaling (opt-in; changes smoothness constants).
    X keeps its storage, and a dense -0 reads +0."""
    X = ds.X
    if isinstance(X, np.ndarray):
        m = np.max(np.abs(X), axis=0, initial=0.0)
        X = X / np.where(m == 0, 1.0, m) + 0.0
    else:
        m = np.zeros(ds.d)
        np.maximum.at(m, X.indices, np.abs(X.data))
        data = X.data / np.where(m == 0, 1.0, m)[X.indices]
        X = CSR(data, X.indices.copy(), X.indptr.copy(), X.shape)
    return replace(ds, X=X, y=ds.y.copy(), meta={**ds.meta, "scaled": True})


def _conditioned_factors(rng: np.random.Generator, n: int, d: int, cond: float):
    # X = U diag(s) V^T with geometric singular values; cond(X^T X) = cond.
    r = min(n, d)
    U, _ = np.linalg.qr(rng.standard_normal((n, r)))
    V, _ = np.linalg.qr(rng.standard_normal((d, r)))
    s = np.geomspace(1.0, cond ** -0.5, r)
    return U, s, V


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Generate a synthetic Dataset with a dense X; deterministic given
    `spec.seed`."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)

    if spec.kind == "counterexample-quadratics":
        # Two one-dimensional quadratics: residuals (theta - 1) and
        # (2 theta + 1/2) under the squared loss.
        X = np.array([[1.0], [2.0]])
        y = np.array([1.0, -0.5])
        return Dataset(X=X, y=y, task="regression", meta={"kind": spec.kind})

    U, s, V = _conditioned_factors(rng, spec.n, spec.d, spec.cond)
    dense = (U * s) @ V.T
    theta_star = rng.standard_normal(spec.d)

    if spec.kind == "interpolating":
        # Spread label energy evenly across singular directions so the
        # conditioning target actually governs parametric difficulty:
        # y = U g with theta0 = V (g / s), still exactly interpolable.
        g = rng.standard_normal(len(s))
        y = U @ g
        task = "regression"
    elif spec.kind == "least-squares":
        y = dense @ theta_star + spec.noise * rng.standard_normal(spec.n)
        task = "regression"
    else:  # logistic
        margin = dense @ theta_star + spec.noise * rng.standard_normal(spec.n)
        y = np.where(margin >= 0, 1.0, -1.0)
        task = "binary"

    return Dataset(
        X=dense,
        y=y,
        task=task,
        meta={"kind": spec.kind, "seed": spec.seed},
    )
