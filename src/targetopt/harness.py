"""Experiment orchestration: config parsing, run grids, metrics files.

An experiment config is a JSON document naming a dataset (file path or
synthetic spec), a loss, a model, and a list of runs. The problem (the
dataset, with the labels the loss sees, the loss and the model) is
built once per experiment, after the config checks and before any pair
runs, and shared by every (run, seed) pair. Each pair writes one CSV
plus a JSON sidecar with the fully resolved configuration. A summary CSV
aggregates the per-seed loss curves (mean and 25/75 quantiles).
Simulated cost, not wall clock, is the reproducible cost metric.
"""

from __future__ import annotations

import concurrent.futures
import copy
import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import losses as losses_mod
from . import models as models_mod
from .optimizers import DIAGNOSTICS, InnerOptions, RunConfig, RunTrace, ScheduleOptions
from .optimizers import run as run_optimizer

CSV_COLUMNS = [
    "run_id",
    "seed",
    "outer_t",
    "oracle_calls",
    "inner_steps",
    "sim_cost",
    "wall_ms",
    "eta",
    "loss",
    "grad_norm",
]
OPTIONAL_COLUMNS = list(DIAGNOSTICS)


def run_id_of(run_spec: dict) -> str:
    return run_spec.get("id", run_spec.get("optimizer", "run"))


def derive_seed(global_seed: int, run_id: str, seed_index: int) -> int:
    """Stable per-run RNG seed; no run shares another's stream."""
    digest = hashlib.sha256(f"{global_seed}:{run_id}:{seed_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


DATASET_KEYS = {"path", "task", "d", "remap_binary", "normalize", "synthetic"}
LOSS_KEYS = {"kind", "smoothness"}
MODEL_KEYS = {"kind", "hidden", "n_classes", "seed"}


def _keys(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def _reject_unknown(group: str, spec: dict, known: set) -> None:
    unknown = sorted(set(spec) - known)
    if unknown:
        raise ValueError(f"unknown {group} key(s) {unknown}")


def load_dataset(spec: dict) -> data_mod.Dataset:
    """The dataset a spec names: a LibSVM file ("path", environment
    variables expanded) or a synthetic spec, max-abs scaled on request."""
    _reject_unknown("dataset", spec, DATASET_KEYS)
    if "path" in spec:
        path = Path(os.path.expandvars(spec["path"]))
        if "$" in str(path):
            raise ValueError(f"unresolved environment variable in path {path}")
        if not path.is_file():
            raise FileNotFoundError(f"dataset file {path.resolve()} does not exist")
        with open(path, "rb") as fh:
            ds = data_mod.parse_libsvm(
                fh,
                task=spec.get("task", "regression"),
                d=spec.get("d"),
                allow_binary_remap=spec.get("remap_binary", False),
            )
    elif "synthetic" in spec:
        _reject_unknown("synthetic", spec["synthetic"], _keys(data_mod.SyntheticSpec))
        ds = data_mod.generate_synthetic(data_mod.SyntheticSpec(**spec["synthetic"]))
    else:
        raise ValueError("dataset spec needs 'path' or 'synthetic'")
    if spec.get("normalize", False):
        ds = data_mod.max_abs_scale(ds)
    return ds


def build_loss(spec) -> object:
    if isinstance(spec, str):
        spec = {"kind": spec}
    _reject_unknown("loss", spec, LOSS_KEYS)
    return losses_mod.make_loss(spec["kind"], spec.get("smoothness"))


def build_model(spec, dataset) -> object:
    if isinstance(spec, str):
        spec = {"kind": spec}
    _reject_unknown("model", spec, MODEL_KEYS)
    return models_mod.make_model(
        spec.get("kind", "linear"),
        hidden=spec.get("hidden", 16),
        n_classes=spec.get("n_classes", dataset.n_classes),
        seed=spec.get("seed", 0),
    )


def load_problem(exp: dict):
    """(dataset, loss, model) of an experiment, shared by all its pairs.

    Under multiclass-kl the dataset's `y` becomes the smoothed expert
    rows, so `y` is the label array the loss sees everywhere."""
    loss = build_loss(exp["loss"])
    dataset = load_dataset(exp["dataset"])
    model = build_model(exp.get("model", "linear"), dataset)
    if loss.kind == "multiclass-kl":
        if dataset.task != "multiclass":
            raise ValueError(f"loss 'multiclass-kl' needs a multiclass task, not {dataset.task!r}")
        rows = losses_mod.smoothed_expert_rows(
            dataset.y.astype(int), dataset.n_classes, exp.get("expert_smoothing", 0.05)
        )
        dataset = dataclasses.replace(dataset, y=rows)
    return dataset, loss, model


def check_run_spec(run_spec: dict, seed: int = 0) -> RunConfig:
    """Reject unknown keys (RunConfig's fields, "id" and "epochs" are
    known; in "schedule" / "inner", their option classes' fields), "T"
    given together with "epochs", and unknown names. Returns the entry's
    RunConfig with "epochs" not yet resolved."""
    run_id = run_id_of(run_spec)
    for group, entry, keys in (
        ("run", run_spec, _keys(RunConfig) - {"run_id", "seed"} | {"id", "epochs"}),
        ("schedule", run_spec.get("schedule") or {}, _keys(ScheduleOptions)),
        ("inner", run_spec.get("inner") or {}, _keys(InnerOptions)),
    ):
        unknown = sorted(set(entry) - keys)
        if unknown:
            raise ValueError(f"run {run_id!r}: unknown {group} key(s) {unknown}")
    if "T" in run_spec and "epochs" in run_spec:
        raise ValueError(f"run {run_id!r}: give 'T' or 'epochs', not both")
    spec = dict(run_spec, run_id=run_id)
    spec.pop("id", None)
    spec.pop("epochs", None)
    spec["schedule"] = ScheduleOptions(**(spec.get("schedule") or {}))
    spec["inner"] = InnerOptions(**(spec.get("inner") or {}))
    if "diagnostics" in spec:
        spec["diagnostics"] = tuple(spec["diagnostics"])
    cfg = RunConfig(**spec, seed=seed)
    try:
        cfg.check_names()
    except ValueError as e:
        raise ValueError(f"run {run_id!r}: {e}") from None
    return cfg


def make_run_config(run_spec: dict, n: int, seed: int) -> RunConfig:
    """Translate a JSON run entry into a RunConfig of the same shape.

    "id" becomes `run_id`; an "epochs" key resolves to
    T = epochs * ceil(n / batch)."""
    cfg = check_run_spec(run_spec, seed)
    if "epochs" in run_spec:
        b = cfg.resolved_batch(n)
        cfg.T = int(run_spec["epochs"]) * max(1, int(np.ceil(n / b)))
    return cfg


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def trace_to_csv(trace: RunTrace, with_diag: bool) -> str:
    cols = CSV_COLUMNS + (OPTIONAL_COLUMNS if with_diag else [])
    lines = [",".join(cols)]
    for r in trace.rows:
        vals = [
            trace.run_id,
            str(trace.seed),
            str(r.outer_t),
            str(r.oracle_calls),
            str(r.inner_steps),
            _fmt_float(r.sim_cost),
            _fmt_float(r.wall_ms),
            _fmt_float(r.eta),
            _fmt_float(r.loss),
            _fmt_float(r.grad_norm),
        ]
        if with_diag:
            vals.append("" if r.eps is None else _fmt_float(r.eps))
            vals.append("" if r.zeta2 is None else _fmt_float(r.zeta2))
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def read_csv(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            rows.append(dict(zip(header, parts)))
    return rows


def execute_single(exp: dict, problem, run_spec: dict, seed_index: int, out_dir: str) -> dict:
    """Run one (run, seed) pair on the experiment's problem
    `(dataset, loss, model)` and write its files."""
    dataset, loss, model = problem
    run_id = run_id_of(run_spec)
    seed = derive_seed(exp.get("global_seed", 0), run_id, seed_index)
    cfg = make_run_config(run_spec, dataset.n, seed)
    trace = run_optimizer(cfg, dataset, model, loss)
    trace.seed = seed_index  # report the configured index, not the derived stream
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{run_id}_s{seed_index}"
    with_diag = bool(cfg.diagnostics)
    (out / f"{stem}.csv").write_text(trace_to_csv(trace, with_diag))
    sidecar = {
        "run_id": run_id,
        "seed_index": seed_index,
        "derived_seed": seed,
        "experiment": exp,
        "resolved_run": trace.config,
        "inner_stalls": trace.inner_stalls,
    }
    (out / f"{stem}.json").write_text(json.dumps(sidecar, indent=2, default=str))
    return {
        "run_id": run_id,
        "seed": seed_index,
        "csv": str(out / f"{stem}.csv"),
        "inner_stalls": trace.inner_stalls,
    }


def _pool_entry(payload):
    exp, problem, run_spec, seed_index, out_dir = payload
    try:
        return execute_single(exp, problem, run_spec, seed_index, out_dir), None
    except Exception as e:  # noqa: BLE001 - per-run failures are reported
        return {"run_id": run_id_of(run_spec), "seed": seed_index}, repr(e)


def write_summary(out_dir) -> str:
    """Aggregate per-run CSVs: mean and 25/75 loss quantiles over seeds."""
    out = Path(out_dir)
    groups: dict = {}
    for path in sorted(out.glob("*.csv")):
        if path.name == "summary.csv":
            continue
        for row in read_csv(path):
            key = (row["run_id"], int(row["outer_t"]))
            groups.setdefault(key, []).append(float(row["loss"]))
    lines = ["run_id,outer_t,loss_mean,loss_q25,loss_q75"]
    for (run_id, t), vals in sorted(groups.items()):
        arr = np.array(vals)
        lines.append(
            f"{run_id},{t},{_fmt_float(arr.mean())},"
            f"{_fmt_float(np.percentile(arr, 25))},{_fmt_float(np.percentile(arr, 75))}"
        )
    text = "\n".join(lines) + "\n"
    (out / "summary.csv").write_text(text)
    return str(out / "summary.csv")


def run_experiment(config, out_dir=None, jobs: int = 1, global_seed=None) -> int:
    """Check the config, build its problem once, validate every run on
    it, then execute every (run x seed) pair; returns a process exit
    status. A config, problem or run error raises before any pair runs
    or any file is written."""
    if not isinstance(config, dict):
        with open(config) as fh:
            config = json.load(fh)
    config = copy.deepcopy(config)
    if global_seed is not None:
        config["global_seed"] = global_seed
    out_dir = os.environ.get("TARGETOPT_OUT", out_dir or config.get("out_dir", "runs"))
    seeds = config.get("seeds", [0])
    if not config.get("runs"):
        raise ValueError("config has no runs")
    if not seeds or len(set(seeds)) < len(seeds):
        raise ValueError(f"'seeds' must be a non-empty list of distinct seeds, not {seeds!r}")

    for run_spec in config["runs"]:
        check_run_spec(run_spec)
    ids = [run_id_of(run_spec) for run_spec in config["runs"]]
    duplicates = sorted({i for i in ids if ids.count(i) > 1})
    if duplicates:
        raise ValueError(f"duplicate run id(s) {duplicates}: each run needs its own id")
    problem = load_problem(config)
    n = problem[0].n
    for run_spec in config["runs"]:
        try:
            make_run_config(run_spec, n, 0).validate(n)
        except ValueError as e:
            raise ValueError(f"run {run_id_of(run_spec)!r}: {e}") from None

    payloads = [
        (config, problem, run_spec, seed_index, out_dir)
        for run_spec in config["runs"]
        for seed_index in seeds
    ]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_pool_entry, payloads))
    else:
        outcomes = [_pool_entry(payload) for payload in payloads]
    # When every pair failed there is nothing to summarize and no
    # directory is made for it; the FAILED lines below say why.
    if any(err is None for _, err in outcomes):
        write_summary(out_dir)
    for result, err in outcomes:
        if err:
            print(f"FAILED {result['run_id']} seed {result['seed']}: {err}")
        elif result["inner_stalls"]:
            print(
                f"STALLED {result['run_id']} seed {result['seed']}: "
                f"{result['inner_stalls']} searches hit the backtrack floor"
            )
    return 1 if any(err for _, err in outcomes) else 0


def cost_report(csv_paths, tau: float, thresholds) -> list[dict]:
    """Simulated cost to reach each loss threshold, per run CSV.

    Cost is recomputed from the oracle_calls and inner_steps columns with
    the given tau; unreached thresholds get cost None.
    """
    report = []
    for path in csv_paths:
        rows = read_csv(path)
        if not rows:
            continue
        run_id, seed = rows[0]["run_id"], rows[0]["seed"]
        for thr in thresholds:
            cost = None
            for row in rows:
                if float(row["loss"]) <= thr:
                    cost = float(row["oracle_calls"]) * tau + float(row["inner_steps"])
                    break
            report.append(
                {"run_id": run_id, "seed": seed, "threshold": thr, "cost": cost}
            )
    return report


def format_cost_table(report) -> str:
    lines = [f"{'run_id':<24}{'seed':>6}{'threshold':>14}{'sim_cost':>16}"]
    for row in report:
        cost = "unreached" if row["cost"] is None else _fmt_float(row["cost"])
        lines.append(
            f"{row['run_id']:<24}{row['seed']:>6}{row['threshold']:>14.3g}{cost:>16}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

def _sso_run(run_id, m, batch, epochs, **kw):
    out = {
        "id": run_id,
        "optimizer": "sso",
        "batch_size": batch,
        "epochs": epochs,
        "inner": {"solver": "armijo", "m": m},
    }
    out.update(kw)
    return out


def presets() -> dict:
    """Named experiment configs; `dataset.path` entries expand env vars."""
    mushrooms_runs = []
    for batch in (25, 125, 625, None):
        tag = "full" if batch is None else str(batch)
        mushrooms_runs.append(
            {"id": f"sgd-b{tag}", "optimizer": "sgd", "batch_size": batch,
             "epochs": 50, "eval_every": 10}
        )
        for m in (1, 5, 10, 20, 100):
            mushrooms_runs.append(
                _sso_run(f"sso-m{m}-b{tag}", m, batch, 50, eval_every=10,
                         schedule={"kind": "constant", "eta0": 2.0})
            )
    return {
        "mushrooms-logistic": {
            "name": "mushrooms-logistic",
            "dataset": {
                "path": "data/mushrooms",
                "task": "binary",
                "remap_binary": True,
            },
            "loss": "logistic",
            "model": "linear",
            "seeds": [0, 1, 2],
            "runs": mushrooms_runs,
        },
        "ill-conditioned-ls": {
            "name": "ill-conditioned-ls",
            "dataset": {
                "synthetic": {
                    "kind": "interpolating",
                    "n": 100,
                    "d": 20,
                    "cond": 1e3,
                    "seed": 7,
                }
            },
            "loss": "squared",
            "model": "linear",
            "seeds": [0],
            "runs": [
                {"id": "sgd", "optimizer": "sgd", "batch_size": 1, "T": 40000, "tau": 1000, "eval_every": 200},
                {"id": "sso-exact", "optimizer": "sso", "batch_size": None,
                 "T": 50, "tau": 1000, "eval_every": 1,
                 "schedule": {"kind": "constant", "eta0": 0.5},
                 "inner": {"solver": "exact"}},
            ],
        },
        "interpolation": {
            "name": "interpolation",
            "dataset": {
                "synthetic": {
                    "kind": "interpolating",
                    "n": 200,
                    "d": 50,
                    "cond": 1.0,
                    "seed": 3,
                }
            },
            "loss": "squared",
            "model": "linear",
            "seeds": [0],
            "runs": [
                {
                    "id": "sso-m20",
                    "optimizer": "sso",
                    "batch_size": None,
                    "T": 500,
                    "schedule": {"kind": "constant", "eta0": 0.5},
                    "inner": {"solver": "gd", "m": 20},
                }
            ],
        },
    }


# ----------------------------------------------------------------------
# Verification suite (fast self-checks; the full suite lives in tests/)
# ----------------------------------------------------------------------

def verify_suite(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Quick property checks over the library; returns (name, ok, detail)."""
    from . import diagnostics as diag
    from .optimizers import theoretical_parametric_step
    from .surrogates import build_deterministic

    results = []
    rng = np.random.default_rng(seed)

    ds = data_mod.generate_synthetic(
        data_mod.SyntheticSpec("least-squares", n=40, d=8, cond=10.0, noise=0.3, seed=seed)
    )
    loss = losses_mod.make_loss("squared")
    model = models_mod.LinearModel()

    # Full-batch surrogate upper-bounds the loss for eta = 1/L.
    theta_t = rng.standard_normal(ds.d)
    surr = build_deterministic(loss, model, ds, theta_t, 1.0 / loss.L)
    worst = 0.0
    for _ in range(200):
        th = rng.standard_normal(ds.d) * 3
        z = model.forward(th, ds.X)
        worst = min(worst, surr.value(th) - losses_mod.loss_value(loss, z, ds.y))
    results.append(("surrogate-upper-bound", worst >= -1e-10, f"min slack {worst:.2e}"))

    # One exact full-batch solve at eta=1 lands on the least-squares fit.
    cfg = RunConfig(optimizer="sso", T=1, batch_size=None, schedule=ScheduleOptions(eta0=1.0),
                    inner=InnerOptions(solver="exact"), seed=seed)
    tr = run_optimizer(cfg, ds, model, loss)
    theta_star, z_star = diag.least_squares_optimum(ds)
    gap = tr.final_loss() - losses_mod.loss_value(loss, z_star, ds.y)
    results.append(("one-step-exact-solve", gap <= 1e-10, f"loss gap {gap:.2e}"))

    # m=1 surrogate descent equals a parametric SGD step.
    common = dict(T=50, batch_size=4, seed=seed, eval_every=50)
    step = theoretical_parametric_step(ds, loss, 4)
    sso = RunConfig(optimizer="sso", schedule=ScheduleOptions(eta0=0.5),
                    inner=InnerOptions(solver="gd", m=1, alpha=step), **common)
    a = run_optimizer(sso, ds, model, loss)
    sgd = RunConfig(optimizer="sgd", schedule=ScheduleOptions(eta0=step), **common)
    b = run_optimizer(sgd, ds, model, loss)
    dev = abs(a.final_loss() - b.final_loss())
    results.append(("m1-equals-sgd", dev <= 1e-10, f"loss dev {dev:.2e}"))

    # Counterexample lower bound.
    alphas = diag.counterexample_alphas("constant", 100)
    mc, closed, se = diag.counterexample_check(1.0, alphas, 100, 1.0, 2000, seed=seed)
    ok = closed >= min(1.0, 0.375) - 1e-9 and abs(mc - closed) <= 4 * se + 1e-12
    results.append(("counterexample-bias", ok, f"closed {closed:.4f} mc {mc:.4f}"))

    # Interpolation: noise diagnostics vanish.
    ds_i = data_mod.generate_synthetic(
        data_mod.SyntheticSpec("interpolating", n=30, d=6, cond=1.0, seed=seed)
    )
    _, z_star = diag.least_squares_optimum(ds_i)
    s2 = diag.noise_sigma2(ds_i, loss, z_star)
    s2z = diag.sigma2_z(ds_i, loss)
    ok = abs(s2) <= 1e-8 and abs(s2z) <= 1e-8
    results.append(("interpolation-zero-noise", ok, f"sigma2 {s2:.2e} sigma2_z {s2z:.2e}"))
    return results
