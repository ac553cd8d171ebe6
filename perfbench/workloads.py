"""The benchmark's workloads: seeded inputs, experiment configs, output checks.

Every workload is one closed-loop batch job, a single
`targetopt.harness.run_experiment(config, jobs=1)` call. Inputs are made
here from an instance number and written as LibSVM text or a synthetic
spec; the program sees only those inputs. This module does not import
`targetopt`, so input generation and checking stay independent of the
code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Inputs come from a pool of this many instances, each with reference
# outputs stored in reference.json.
POOL = 32

CSV_HEADER = [
    "run_id", "seed", "outer_t", "oracle_calls", "inner_steps",
    "sim_cost", "wall_ms", "eta", "loss", "grad_norm",
]
# Relative tolerance on the final loss and gradient norm against reference.json.
REFERENCE_RTOL = 1e-8


def mushrooms_like(n: int, d: int, k: int, seed: int):
    """Column indices and +-1 labels of the mushrooms stand-in.

    Sparse binary rows with skewed column popularity (an ill-conditioned
    Gram matrix) and near-separable labels with 3% flips. With
    (n, d, k, seed) = (1000, 100, 20, 9) this draws the same data as the
    acceptance tests' stand-in.
    """
    rng = np.random.default_rng(seed)
    popularity = rng.dirichlet(np.ones(d) * 0.25)
    rows = np.zeros((n, d))
    for i in range(n):
        rows[i, rng.choice(d, size=k, replace=False, p=popularity)] = 1.0
    margins = rows @ rng.normal(size=d)
    margins -= np.median(margins)
    y = np.where(margins >= 0, 1.0, -1.0)
    y[rng.random(n) < 0.03] *= -1.0
    return rows, y


def multiclass_gaussian(n: int, d: int, k: int, seed: int):
    """Gaussian features with uniformly drawn class ids 0..k-1."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, n)
    return X, y


def libsvm_text(X: np.ndarray, labels: list[str]) -> str:
    """LibSVM lines for a dense array; zero entries are left out."""
    lines = []
    for label, row in zip(labels, X):
        nz = np.flatnonzero(row)
        feats = " ".join(f"{j + 1}:{format(float(row[j]), '.17g')}" for j in nz)
        lines.append(f"{label} {feats}" if feats else label)
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def _sparse_logistic(instance: int, d: int, k: int, n: int, out: Path):
    rows, y = mushrooms_like(n, d, k, instance)
    text = libsvm_text(rows, ["+1" if v > 0 else "-1" for v in y])
    path = out / "data.libsvm"
    digest = _write(path, text)
    return {"path": str(path), "task": "binary", "d": d}, {"data.libsvm": digest}, (n, d)


def _build_sparse_logistic_armijo(instance: int, out: Path):
    dataset, hashes, shape = _sparse_logistic(instance, 100, 20, 1000, out)
    config = {
        "name": "sparse-logistic-armijo",
        "dataset": dataset,
        "loss": "logistic",
        "model": "linear",
        "global_seed": instance,
        "seeds": [0, 1, 2, 3],
        "runs": [
            {"id": "sgd-b125", "optimizer": "sgd", "batch_size": 125,
             "epochs": 40, "eval_every": 8},
            {"id": "sso-m20-b125", "optimizer": "sso", "batch_size": 125,
             "T": 14, "eval_every": 1,
             "schedule": {"kind": "constant", "eta0": 2.0},
             "inner": {"solver": "armijo", "m": 20}},
        ],
    }
    return config, hashes, shape


def _build_dense_ls_b1(instance: int, out: Path):
    spec = {"kind": "interpolating", "n": 100, "d": 20, "cond": 1e3, "seed": instance}
    digest = _write(out / "synthetic.json", json.dumps(spec, sort_keys=True))
    config = {
        "name": "dense-ls-b1",
        "dataset": {"synthetic": spec},
        "loss": "squared",
        "model": "linear",
        "global_seed": instance,
        "seeds": [0, 1, 2],
        "runs": [
            {"id": "sgd-b1", "optimizer": "sgd", "batch_size": 1,
             "T": 1500, "eval_every": 100},
            {"id": "sso-gd-m5-b1", "optimizer": "sso", "batch_size": 1,
             "T": 150, "eval_every": 10,
             "schedule": {"kind": "constant", "eta0": 0.5},
             "inner": {"solver": "gd", "m": 5}},
            {"id": "sso-exact", "optimizer": "sso", "batch_size": None,
             "T": 20, "eval_every": 1,
             "schedule": {"kind": "constant", "eta0": 0.5},
             "inner": {"solver": "exact"}},
        ],
    }
    return config, {"synthetic.json": digest}, (spec["n"], spec["d"])


def _build_softmax_kl_mirror(instance: int, out: Path):
    n, d, k = 30, 5, 3
    X, y = multiclass_gaussian(n, d, k, instance)
    digest = _write(out / "data.libsvm", libsvm_text(X, [str(int(c)) for c in y]))
    config = {
        "name": "softmax-kl-mirror",
        "dataset": {"path": str(out / "data.libsvm"), "task": "multiclass", "d": d},
        "loss": "multiclass-kl",
        "model": {"kind": "softmax-linear"},
        "expert_smoothing": 0.1,
        "global_seed": instance,
        "seeds": [0, 1],
        "runs": [
            {"id": "sgd-b15", "optimizer": "sgd", "batch_size": 15,
             "T": 250, "eval_every": 25},
            {"id": "mirror-b15", "optimizer": "sso", "batch_size": 15,
             "T": 25, "eval_every": 1, "variant": "entropy-mirror",
             "schedule": {"kind": "constant", "eta0": 0.1},
             "inner": {"solver": "armijo", "m": 8}},
        ],
    }
    return config, {"data.libsvm": digest}, (n, d)


def _build_libsvm_grid(instance: int, out: Path):
    dataset, hashes, shape = _sparse_logistic(instance, 112, 21, 8124, out)
    short = {"batch_size": 125, "T": 40, "eval_every": 10}
    armijo1 = {"solver": "armijo", "m": 1}
    runs = [
        {"id": "sgd", "optimizer": "sgd", **short},
        {"id": "sls", "optimizer": "sls", **short},
        {"id": "adam", "optimizer": "adam", **short},
        {"id": "adagrad", "optimizer": "adagrad", **short},
        {"id": "svrg", "optimizer": "svrg", **short},
        {"id": "sso", "optimizer": "sso", **short,
         "schedule": {"kind": "constant", "eta0": 2.0}, "inner": armijo1},
        {"id": "sso-tls", "optimizer": "sso", **short,
         "schedule": {"kind": "target-line-search"}, "inner": armijo1},
    ]
    config = {
        "name": "libsvm-grid",
        "dataset": dataset,
        "loss": "logistic",
        "model": "linear",
        "global_seed": instance,
        "seeds": [0, 1, 2],
        "runs": runs,
    }
    return config, hashes, shape


_COMMON = (
    "harness.load_dataset", "harness.execute_single", "harness.write_summary",
    "optimizers.run", "optimizers.batch_param_grad", "optimizers.full_loss",
    "optimizers.full_grad_norm", "surrogates.build", "surrogates.grad",
    "models.forward", "models.param_grad", "losses.values", "losses.grads",
)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    build: Callable[[int, Path], tuple]
    headline: str  # SSO run whose time to the loss threshold is reported
    threshold_row: int  # row from which its loss threshold is taken (reference_entry)
    boundaries: tuple  # traced boundaries that must record at least one call
    # Input instances one run cycles through, whatever its speed, so that a
    # faster change is measured on the same inputs. Sized so that the parent
    # commit visits each about once in BENCHMARK.json's run_seconds: more
    # instances average out more of their differences in time to loss.
    instances: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-logistic-armijo", _build_sparse_logistic_armijo,
            "sso-m20-b125", 6,
            _COMMON + ("data.parse_libsvm", "surrogates.value", "inner_solvers.armijo"),
            8,
        ),
        Workload(
            "dense-ls-b1", _build_dense_ls_b1,
            "sso-exact", 10,
            _COMMON + ("data.generate_synthetic", "surrogates.smoothness_bound",
                       "surrogates.quadratic_parts", "models.spectral_norm",
                       "inner_solvers.gd_fixed", "inner_solvers.exact"),
            8,
        ),
        Workload(
            "softmax-kl-mirror", _build_softmax_kl_mirror,
            "mirror-b15", 3,
            _COMMON + ("data.parse_libsvm", "surrogates.value", "inner_solvers.armijo"),
            10,
        ),
        Workload(
            "libsvm-grid", _build_libsvm_grid,
            "sso-tls", 2,
            _COMMON + ("data.parse_libsvm", "surrogates.value", "inner_solvers.armijo",
                       "schedules.target_line_search"),
            4,
        ),
    )
}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def resolved_T(run: dict, n: int) -> int:
    b = run.get("batch_size") or n
    if "epochs" in run:
        return int(run["epochs"]) * max(1, math.ceil(n / b))
    return int(run["T"])


def pair_names(config: dict) -> list[tuple[dict, int, str]]:
    return [
        (run, k, f"{run['id']}_s{k}")
        for run in config["runs"]
        for k in config["seeds"]
    ]


def _expected_oracle_calls(run: dict, t: int, n: int) -> int:
    b = run.get("batch_size") or n
    if run["optimizer"] == "svrg":
        freq = run.get("svrg_snapshot_freq") or max(1, math.ceil(n / b))
        return n * math.ceil(t / freq) + 2 * b * t
    return b * t


def _inner_ok(run: dict, t: int, steps: int, prev: int, d: int) -> bool:
    if run["optimizer"] != "sso":
        return steps == 0
    inner = run.get("inner", {})
    solver, m = inner.get("solver", "gd"), inner.get("m", 1)
    if solver == "gd":
        return steps == m * t
    if solver == "exact":
        return steps == d * t
    return prev <= steps <= m * t


def without_wall(text: str) -> str:
    """CSV text with the wall_ms column removed."""
    col = CSV_HEADER.index("wall_ms")
    return "\n".join(
        ",".join(p for j, p in enumerate(line.split(",")) if j != col)
        for line in text.splitlines()
    ) + "\n"


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_pair(run: dict, k: int, text: str, n: int, d: int, ref: dict | None) -> list[str]:
    """Problems with one (run, seed) CSV; empty when it passes."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != CSV_HEADER:
        return ["unexpected CSV header"]
    rows = parse_csv(text)
    T = resolved_T(run, n)
    every = run.get("eval_every", 1)
    expect_t = [0] + [t for t in range(1, T + 1) if t % every == 0 or t == T]
    if [int(r["outer_t"]) for r in rows] != expect_t:
        return [f"outer_t rows {len(rows)} differ from the expected {len(expect_t)}"]
    problems = []
    tau = float(run.get("tau", 1.0))
    prev = 0
    for r in rows:
        t = int(r["outer_t"])
        calls, steps = int(r["oracle_calls"]), int(r["inner_steps"])
        vals = [float(r[c]) for c in ("sim_cost", "eta", "loss", "grad_norm")]
        if r["run_id"] != run["id"] or int(r["seed"]) != k:
            problems.append(f"t={t}: run_id/seed columns wrong")
        if calls != _expected_oracle_calls(run, t, n):
            problems.append(f"t={t}: oracle_calls {calls}")
        if not _inner_ok(run, t, steps, prev, d):
            problems.append(f"t={t}: inner_steps {steps}")
        if vals[0] != calls * tau + steps:
            problems.append(f"t={t}: sim_cost {vals[0]}")
        if not all(math.isfinite(v) for v in vals) or vals[3] < 0:
            problems.append(f"t={t}: non-finite or negative value")
        if (t == 0) != (vals[1] == 0.0) or vals[1] < 0:
            problems.append(f"t={t}: eta {vals[1]}")
        prev = steps
    if ref is not None:
        if int(rows[-1]["inner_steps"]) != ref["inner_steps"]:
            problems.append(f"inner_steps {rows[-1]['inner_steps']} != reference {ref['inner_steps']}")
        for col in ("loss", "grad_norm"):
            got, want = float(rows[-1][col]), ref[f"final_{col}"]
            if abs(got - want) > REFERENCE_RTOL * max(abs(want), 1e-12):
                problems.append(f"final {col} {got!r} != reference {want!r}")
    return problems


def reference_entry(text: str, threshold_row: int | None = None) -> dict:
    """What reference.json stores for one (run, seed) pair.

    For the headline run it adds the loss threshold: midway between the
    best loss before `threshold_row` and the first loss from that row on
    that improves on it. The reference run first reaches the threshold
    between two evaluation rows, so small numerical differences cannot
    move the crossing to another row, even where the loss is not monotone.
    """
    rows = parse_csv(text)
    entry = {
        "sha256": hashlib.sha256(without_wall(text).encode()).hexdigest(),
        "inner_steps": int(rows[-1]["inner_steps"]),
        "final_loss": float(rows[-1]["loss"]),
        "final_grad_norm": float(rows[-1]["grad_norm"]),
    }
    if threshold_row is not None:
        losses = [float(r["loss"]) for r in rows]
        best = min(losses[:threshold_row])
        after = next(v for v in losses[threshold_row:] if v < best)
        entry["loss_threshold"] = (best + after) / 2
    return entry


def time_to_loss_ms(text: str, threshold: float) -> float | None:
    """wall_ms at which the loss first reaches the threshold, interpolated
    linearly between the two evaluation rows that bracket the crossing."""
    rows = parse_csv(text)
    prev = None
    for r in rows:
        loss, wall = float(r["loss"]), float(r["wall_ms"])
        if loss <= threshold:
            if prev is None:
                return wall
            p_loss, p_wall = prev
            share = (p_loss - threshold) / (p_loss - loss)
            return p_wall + share * (wall - p_wall)
        prev = (loss, wall)
    return None
