"""Dataset loading and synthetic problem generation.

A dataset is a feature matrix with a label vector. The feature matrix is
a dense ndarray when every entry is present (synthetic data, and LibSVM
text that stores all n*d entries) and a CSR matrix otherwise. Parsing
follows the LibSVM text format (`<label> <idx>:<val> ...` with
1-based, strictly increasing feature indices per line). Synthetic
generators cover least-squares / logistic instances with a controllable
condition number, exactly interpolable instances, and the fixed
two-quadratic instance used by the lower-bound diagnostics.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

TASKS = ("regression", "binary", "multiclass")
SYNTHETIC_KINDS = (
    "least-squares",
    "logistic",
    "counterexample-quadratics",
    "interpolating",
)


class ParseError(ValueError):
    """Malformed LibSVM input; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


@dataclass
class Dataset:
    """Feature matrix with labels.

    `X` is an n-by-d dense ndarray when every entry is present and a CSR
    matrix otherwise (see `parse_libsvm` and `generate_synthetic`).
    `y` holds the labels the loss sees: floats for regression, values in
    {-1, +1} for binary classification, and contiguous class ids 0..K-1
    for multiclass (with `label_map` recording the original label of each
    id in first-appearance order). A multiclass-kl problem replaces the
    ids by their (n, K) smoothed expert rows (`harness.load_problem`).
    Instances are treated as immutable once built and are safe to share
    across concurrent runs.
    """

    X: sp.csr_matrix | np.ndarray
    y: np.ndarray
    task: str
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
        return (
            self.task == other.task
            and self.X.shape == other.X.shape
            and self.n_classes == other.n_classes
            and self.label_map == other.label_map
            and np.array_equal(self.y, other.y)
            and (sp.csr_matrix(self.X) != sp.csr_matrix(other.X)).nnz == 0
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for `generate_synthetic`.

    `cond` targets the condition number of X^T X; `noise` is the label
    noise scale. The counterexample kind ignores everything except its
    fixed two-example instance.
    """

    kind: str
    n: int = 2
    d: int = 1
    cond: float = 1.0
    noise: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in SYNTHETIC_KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.cond < 1.0:
            raise ValueError("condition-number target must be >= 1")
        if self.noise < 0.0:
            raise ValueError("noise scale must be >= 0")
        if self.kind == "counterexample-quadratics" and (self.n, self.d) != (2, 1):
            raise ValueError("counterexample-quadratics fixes n=2, d=1")
        if self.kind == "interpolating" and self.noise != 0.0:
            raise ValueError("interpolating instances require noise = 0")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")


def _coerce_lines(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    if isinstance(text, str):
        return text.splitlines()
    if isinstance(text, io.IOBase):
        raw = text.read()
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8")
        return raw.splitlines()
    return [line.rstrip("\n") for line in text]


def parse_libsvm(
    text,
    task: str = "regression",
    d: int | None = None,
    allow_binary_remap: bool = False,
) -> Dataset:
    """Parse LibSVM-format text into a Dataset.

    `text` may be a str, bytes, file object, or iterable of lines. Blank
    lines are skipped and `#` starts a comment (whole-line or trailing).
    `d` overrides the inferred feature dimension (max index seen); it is an
    error for it to be smaller than an observed index. X is a dense ndarray
    when every line stores all d entries, and CSR otherwise. For binary
    tasks, `allow_binary_remap=True` maps a two-valued label set (e.g.
    {1, 2}) onto {+1, -1} by sorted order instead of rejecting it.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    labels: list[float] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    max_index = 0

    for lineno, raw in enumerate(_coerce_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(lineno, f"bad label token {tokens[0]!r}") from None
        prev_idx = 0
        for tok in tokens[1:]:
            idx_s, _, val_s = tok.partition(":")
            if not val_s:
                raise ParseError(lineno, f"bad feature token {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(lineno, f"bad feature token {tok!r}") from None
            if idx < 1:
                raise ParseError(lineno, f"feature index {idx} < 1")
            if idx <= prev_idx:
                raise ParseError(
                    lineno, f"feature index {idx} not strictly increasing"
                )
            prev_idx = idx
            indices.append(idx - 1)
            values.append(val)
        max_index = max(max_index, prev_idx)
        labels.append(label)
        indptr.append(len(indices))

    if d is None:
        d = max_index
    elif d < max_index:
        raise ValueError(f"d override {d} smaller than max feature index {max_index}")

    n = len(labels)
    X = sp.csr_matrix(
        (np.asarray(values, dtype=np.float64), indices, indptr),
        shape=(n, d),
    )
    if 0 < X.nnz == n * d:
        X = X.toarray()
    y = np.asarray(labels, dtype=np.float64)
    n_classes = 0
    label_map: tuple = ()

    if task == "binary" and n:
        distinct = set(y.tolist())
        if not distinct <= {-1.0, 1.0}:
            if allow_binary_remap and len(distinct) == 2:
                lo, hi = sorted(distinct)
                y = np.where(y == lo, 1.0, -1.0)
            else:
                bad = next(iter(distinct - {-1.0, 1.0}))
                lineno = int(np.argmax(np.asarray(labels) == bad)) + 1
                raise ParseError(lineno, f"binary label {bad} not in {{-1, +1}}")
    elif task == "multiclass":
        seen: dict[float, int] = {}
        ids = np.empty(n, dtype=np.float64)
        for i, lab in enumerate(y):
            if lab not in seen:
                seen[lab] = len(seen)
            ids[i] = seen[lab]
        y = ids
        n_classes = len(seen)
        label_map = tuple(seen)

    ds = Dataset(X=X, y=y, task=task, n_classes=n_classes, label_map=label_map)
    ds.validate()
    return ds


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def to_libsvm(ds: Dataset) -> str:
    """Serialize a Dataset back to LibSVM text (round-trips via parse)."""
    out = []
    X = sp.csr_matrix(ds.X)
    for i in range(ds.n):
        if ds.task == "multiclass":
            label = _fmt(ds.label_map[int(ds.y[i])])
        elif ds.task == "binary":
            label = "+1" if ds.y[i] > 0 else "-1"
        else:
            label = _fmt(ds.y[i])
        lo, hi = X.indptr[i], X.indptr[i + 1]
        feats = " ".join(
            f"{X.indices[k] + 1}:{_fmt(X.data[k])}" for k in range(lo, hi)
        )
        out.append(label + (" " + feats if feats else ""))
    return "\n".join(out) + ("\n" if out else "")


def max_abs_scale(ds: Dataset) -> Dataset:
    """Column-wise max-abs scaling (opt-in; changes smoothness constants).
    Dense X stays dense."""
    X = sp.csc_matrix(ds.X, copy=True)
    for j in range(ds.d):
        lo, hi = X.indptr[j], X.indptr[j + 1]
        if hi > lo:
            m = np.max(np.abs(X.data[lo:hi]))
            if m > 0:
                X.data[lo:hi] /= m
    return Dataset(
        X=X.tocsr() if sp.issparse(ds.X) else X.toarray(),
        y=ds.y.copy(),
        task=ds.task,
        n_classes=ds.n_classes,
        label_map=ds.label_map,
        meta={**ds.meta, "scaled": True},
    )


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
