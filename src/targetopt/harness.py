"""Experiment orchestration: config reading, run grids, metrics files.

An experiment config is a JSON document naming a dataset (file path or
synthetic spec), a loss, a model, and a list of runs, read into the
dataclasses below by `schema.read`, which checks every key and type
against their annotations. The problem (the
dataset, with the labels the loss sees, the model and the loss) is
built once per experiment, after the config checks and before any pair
runs, and shared by every (run, seed) pair. So is each run's
`RunConfig`, checked and with its defaults fixed by `RunConfig.resolve`;
a pair only derives its seed. Each pair writes one CSV (`run_id`,
`seed`, then `TraceRow`'s fields) plus a JSON sidecar with the fully
resolved configuration and the experiment's provenance. A summary CSV
aggregates the per-seed loss curves (mean and 25/75 quantiles).
Simulated cost, not wall clock, is the reproducible cost metric.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from inspect import signature
from pathlib import Path

import numpy as np

from . import __version__
from . import data as data_mod
from . import losses as losses_mod
from . import models as models_mod
from . import schema
from .optimizers import (
    DIAGNOSTICS, RUNNERS, InnerOptions, RunConfig, RunTrace, ScheduleOptions, TraceRow,
)
from .optimizers import run as run_optimizer

def derive_seed(global_seed: int, run_id: str, seed_index: int) -> int:
    """Stable per-run RNG seed; no run shares another's stream."""
    digest = hashlib.sha256(f"{global_seed}:{run_id}:{seed_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class DatasetSpec:
    """The "dataset" object: a LibSVM file (`path`, environment variables
    expanded; `task`, `d`, `remap_binary`) or a `synthetic` spec."""

    path: str | None = None
    task: data_mod.Task = "regression"
    d: int | None = None
    remap_binary: bool = False
    normalize: bool = False  # max-abs column scaling
    synthetic: data_mod.SyntheticSpec | None = None

    def __post_init__(self):
        if (self.path is None) == (self.synthetic is None):
            raise ValueError("dataset needs exactly one of 'path' and 'synthetic'")
        if self.synthetic is not None:
            schema.reject_unread(self, "a synthetic dataset", ("task", "d", "remap_binary"))
            self.synthetic.validate("dataset.synthetic")


@dataclass
class LossSpec:
    kind: losses_mod.LossKind
    smoothness: float | None = None  # overrides the per-coordinate constant

    def __post_init__(self):
        if self.smoothness is not None and self.smoothness <= 0:
            raise ValueError(f"loss.smoothness must be positive, not {self.smoothness!r}")


@dataclass
class ModelSpec:
    """`hidden` sets the MLP's width, `n_classes` the softmax-linear model's
    classes (None: the dataset's); a kind reads only the settings its
    class's constructor takes. Initial parameters come from each run's seed."""

    kind: models_mod.ModelKind = "linear"
    hidden: int = 16
    n_classes: int | None = None

    def __post_init__(self):
        schema.check(self)  # a kind that has no class, also in a spec built in code
        reads = signature(models_mod.MODELS[self.kind]).parameters
        schema.reject_unread(self, f"model {self.kind!r}", {"hidden", "n_classes"} - set(reads))


@dataclass
class Experiment:
    """An experiment config; a loss or model given as its kind alone reads
    as {"kind": ...}. "dataset" is read by `load_dataset` and each "runs"
    entry by `read_run`."""

    dataset: dict
    loss: LossSpec | losses_mod.LossKind
    runs: list[dict]
    name: str = ""
    model: ModelSpec | models_mod.ModelKind = "linear"
    expert_smoothing: float = 0.05  # of multiclass-kl's expert rows
    global_seed: int = 0
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "runs"

    def __post_init__(self):
        if not self.runs:
            raise ValueError("config has no runs")
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"'seeds' must be a non-empty list of distinct seeds, not {self.seeds!r}")
        self.loss = LossSpec(self.loss) if isinstance(self.loss, str) else self.loss
        self.model = ModelSpec(self.model) if isinstance(self.model, str) else self.model
        if self.loss.kind != "multiclass-kl":
            schema.reject_unread(self, f"loss {self.loss.kind!r}", ("expert_smoothing",))
        if not 0 < self.expert_smoothing < 1:
            raise ValueError(f"expert_smoothing must lie in (0, 1), not {self.expert_smoothing!r}")


@dataclass
class RunSpec(RunConfig):
    """A "runs" entry: RunConfig's settings, with "id" for `run_id` (default:
    the optimizer), "epochs" in place of "T" (T = epochs * ceil(n / batch)),
    no seed (each pair derives its own) and no `record_theta` (no pair
    writes the parameters)."""

    run_id: str = field(default="", init=False)
    seed: int = field(default=0, init=False)
    record_theta: bool = field(default=False, init=False)
    T: int | None = None  # None: from "epochs", or RunConfig's default
    id: str | None = None
    epochs: int | None = None

    def __post_init__(self):
        if self.T is not None and self.epochs is not None:
            raise ValueError("give 'T' or 'epochs', not both")
        self.check_names()
        self.run_id = self.id or self.optimizer


def load_dataset(spec: dict) -> data_mod.Dataset:
    """The dataset that a JSON "dataset" object names; a file's resolved
    path and the sha256 of its bytes go in its `meta`."""
    spec = schema.read(DatasetSpec, spec, "dataset")
    if spec.synthetic is not None:
        ds = data_mod.generate_synthetic(spec.synthetic)
    else:
        path = Path(os.path.expandvars(spec.path))
        if "$" in str(path):
            raise ValueError(f"unresolved environment variable in path {path}")
        if not path.is_file():
            raise FileNotFoundError(f"dataset file {path.resolve()} does not exist")
        raw = path.read_bytes()
        ds = data_mod.parse_libsvm(raw, task=spec.task, d=spec.d,
                                   allow_binary_remap=spec.remap_binary)
        ds = dataclasses.replace(ds, meta={"path": str(path.resolve()),
                                           "sha256": hashlib.sha256(raw).hexdigest()})
    if spec.normalize:
        ds = data_mod.max_abs_scale(ds)
    return ds


def load_problem(exp: Experiment):
    """(dataset, model, loss) of an experiment, shared by all its pairs.

    Under multiclass-kl the dataset's `y` becomes the smoothed expert
    rows, so `y` is the label array the loss sees everywhere."""
    loss = losses_mod.make_loss(exp.loss.kind, exp.loss.smoothness)
    dataset = load_dataset(exp.dataset)
    m = exp.model
    n_classes = dataset.n_classes if m.n_classes is None else m.n_classes
    model = models_mod.make_model(m.kind, hidden=m.hidden, n_classes=n_classes)
    if loss.kind == "multiclass-kl":
        if dataset.task != "multiclass":
            raise ValueError(f"loss 'multiclass-kl' needs a multiclass task, not {dataset.task!r}")
        rows = losses_mod.smoothed_expert_rows(dataset.y.astype(int), dataset.n_classes,
                                               exp.expert_smoothing)
        dataset = dataclasses.replace(dataset, y=rows)
    return dataset, model, loss


def read_run(entry: dict, path: str) -> RunSpec:
    """The "runs" entry at `path`, read and checked; an error names the run."""
    try:
        return schema.read(RunSpec, entry, path)
    except ValueError as e:
        name = entry.get("id", entry.get("optimizer", RunConfig.optimizer))
        raise ValueError(f"run {name!r}: {e}") from None


def make_run_config(spec: RunSpec, problem) -> RunConfig:
    """The RunConfig of a read run entry on the problem `(dataset, model,
    loss)`, checked and with its defaults fixed by `RunConfig.resolve`; its
    seed is 0. Every pair of the entry runs with the one default step
    computed here."""
    n = problem[0].n
    cfg = RunConfig(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(RunConfig)
                       if f.name != "T"})
    b = n if cfg.batch_size is None else cfg.batch_size
    if spec.T is not None:
        cfg.T = spec.T
    elif spec.epochs is not None and 1 <= b <= n:  # else `validate` reports the batch size
        cfg.T = spec.epochs * -(-n // b)
    try:
        return cfg.resolve(*problem)
    except ValueError as e:
        raise ValueError(f"run {cfg.run_id!r}: {e}") from None


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def trace_to_csv(trace: RunTrace, with_diag: bool) -> str:
    """`run_id`, `seed`, then TraceRow's fields in order (the DIAGNOSTICS
    ones only `with_diag`): ints as written, floats to 17 significant
    digits, None as an empty cell."""
    fields = [f for f in dataclasses.fields(TraceRow) if with_diag or f.name not in DIAGNOSTICS]
    fmts = [(f.name, str if f.type == "int" else _fmt_float) for f in fields]
    lines = [",".join(["run_id", "seed", *(f.name for f in fields)])]
    for r in trace.rows:
        vals = [trace.run_id, str(trace.seed)]
        for name, fmt in fmts:
            v = getattr(r, name)
            vals.append("" if v is None else fmt(v))
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


def provenance(dataset) -> dict:
    """What produced an experiment's runs: the targetopt, numpy, scipy and
    Python versions, and for a file dataset its resolved path and sha256
    (a synthetic dataset's spec is in the experiment record). The top-level
    scipy package gives its version without loading scipy.sparse."""
    import scipy

    record = {"targetopt": __version__, "numpy": np.__version__, "scipy": scipy.__version__,
              "python": "%d.%d.%d" % sys.version_info[:3]}
    if "sha256" in dataset.meta:
        record["dataset"] = {key: dataset.meta[key] for key in ("path", "sha256")}
    return record


def execute_single(exp: Experiment, problem, cfg: RunConfig, seed_index: int, out_dir: str,
                   shared: dict) -> dict:
    """Run one (run, seed) pair of the resolved `cfg` on the experiment's
    problem `(dataset, model, loss)` and write its files; `shared` holds
    the sidecar entries that every pair of the experiment writes."""
    run_id = cfg.run_id
    seed = derive_seed(exp.global_seed, run_id, seed_index)
    cfg = dataclasses.replace(cfg, seed=seed)
    trace = RUNNERS[cfg.optimizer](cfg, *problem)
    trace.seed = seed_index  # report the configured index, not the derived stream
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{run_id}_s{seed_index}"
    (out / f"{stem}.csv").write_text(trace_to_csv(trace, bool(cfg.diagnostics)))
    sidecar = {"run_id": run_id, "seed_index": seed_index, "derived_seed": seed, **shared,
               "resolved_run": trace.config, "inner_stalls": trace.inner_stalls}
    (out / f"{stem}.json").write_text(json.dumps(sidecar, indent=2, default=str))
    return {"run_id": run_id, "seed": seed_index, "csv": str(out / f"{stem}.csv"),
            "inner_stalls": trace.inner_stalls}


def _pool_entry(payload):
    exp, problem, cfg, seed_index, out_dir, shared = payload
    try:
        return execute_single(exp, problem, cfg, seed_index, out_dir, shared), None
    except Exception as e:  # noqa: BLE001 - per-run failures are reported
        return {"run_id": cfg.run_id, "seed": seed_index}, repr(e)


def write_summary(out_dir, csv_paths) -> str:
    """Aggregate the given per-run CSVs into `out_dir/summary.csv`: mean
    and 25/75 loss quantiles over seeds, taken once per run id along the
    rows of its (rows x seeds) loss table. Every CSV of a run id records
    the same outer iterations (its config's T and eval_every)."""
    out = Path(out_dir)
    curves: dict = {}  # run id -> (outer_t column, one loss column per CSV)
    for path in sorted(csv_paths):
        rows = read_csv(path)
        ts = [int(row["outer_t"]) for row in rows]
        _, columns = curves.setdefault(rows[0]["run_id"], (ts, []))
        columns.append([float(row["loss"]) for row in rows])
    lines = ["run_id,outer_t,loss_mean,loss_q25,loss_q75"]
    for run_id, (ts, columns) in sorted(curves.items()):
        table = np.array(columns).T.copy()  # C order: each row's seeds are contiguous
        # One quantile per call: a call for both partitions each row around
        # all four neighbours and can order a 0.0 and a -0.0 differently.
        stats = zip(ts, table.mean(axis=1), *(np.percentile(table, q, axis=1) for q in (25, 75)))
        lines += [f"{run_id},{t},{_fmt_float(mean)},{_fmt_float(q25)},{_fmt_float(q75)}"
                  for t, mean, q25, q75 in stats]
    text = "\n".join(lines) + "\n"
    (out / "summary.csv").write_text(text)
    return str(out / "summary.csv")


def load_config(path) -> dict:
    """Read an experiment config from a JSON file; malformed JSON, or JSON
    that is not an object, is a ValueError that names the file."""
    with open(path) as fh:
        try:
            config = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config {path} is not JSON: {e}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must be a JSON object, not {type(config).__name__}")
    return config


def run_experiment(config, out_dir=None, jobs: int = 1, global_seed=None) -> int:
    """Read the config, build its problem once, translate every run entry
    once into its RunConfig resolved on that problem, build the sidecar's
    experiment record and provenance once, then execute every (run x seed)
    pair; returns a process exit status. The output directory is `out_dir`,
    else the config's. A config, problem or run error raises before any
    pair runs or any file is written."""
    if jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, not {jobs!r}")
    if not isinstance(config, dict):
        config = load_config(config)
    if global_seed is not None:
        config = dict(config, global_seed=global_seed)
    exp = schema.read(Experiment, config)
    out_dir = out_dir or exp.out_dir
    specs = [read_run(entry, f"runs[{i}]") for i, entry in enumerate(exp.runs)]
    ids = [spec.run_id for spec in specs]
    duplicates = sorted({i for i in ids if ids.count(i) > 1})
    if duplicates:
        raise ValueError(f"duplicate run id(s) {duplicates}: each run needs its own id")
    problem = load_problem(exp)
    cfgs = [make_run_config(spec, problem) for spec in specs]

    shared = {"experiment": dataclasses.asdict(exp), "provenance": provenance(problem[0])}
    payloads = [(exp, problem, cfg, seed_index, out_dir, shared)
                for cfg in cfgs for seed_index in exp.seeds]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_pool_entry, payloads))
    else:
        outcomes = [_pool_entry(payload) for payload in payloads]
    # When every pair failed there is nothing to summarize and no
    # directory is made for it; the FAILED lines below say why.
    csvs = [result["csv"] for result, err in outcomes if err is None]
    if csvs:
        write_summary(out_dir, csvs)
    for result, err in outcomes:
        if err:
            print(f"FAILED {result['run_id']} seed {result['seed']}: {err}")
        elif result["inner_stalls"]:
            print(f"STALLED {result['run_id']} seed {result['seed']}: "
                  f"{result['inner_stalls']} searches hit the backtrack floor")
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
        missing = sorted({"run_id", "seed", "loss", "oracle_calls", "inner_steps"} - rows[0].keys())
        if missing:
            raise ValueError(f"{path} is no run CSV: it has no column(s) {missing}")
        run_id, seed = rows[0]["run_id"], rows[0]["seed"]
        for thr in thresholds:
            cost = None
            for row in rows:
                if float(row["loss"]) <= thr:
                    cost = float(row["oracle_calls"]) * tau + float(row["inner_steps"])
                    break
            report.append({"run_id": run_id, "seed": seed, "threshold": thr, "cost": cost})
    return report


def format_cost_table(report) -> str:
    lines = [f"{'run_id':<24}{'seed':>6}{'threshold':>14}{'sim_cost':>16}"]
    for row in report:
        cost = "unreached" if row["cost"] is None else _fmt_float(row["cost"])
        lines.append(f"{row['run_id']:<24}{row['seed']:>6}{row['threshold']:>14.3g}{cost:>16}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

def presets() -> dict:
    """Named experiment configs; `dataset.path` entries expand env vars."""
    mushrooms_runs = []
    for batch in (25, 125, 625, None):
        tag = "full" if batch is None else str(batch)
        mushrooms_runs.append({"id": f"sgd-b{tag}", "optimizer": "sgd", "batch_size": batch,
                               "epochs": 50, "eval_every": 10})
        mushrooms_runs += [
            {"id": f"sso-m{m}-b{tag}", "optimizer": "sso", "batch_size": batch, "epochs": 50,
             "eval_every": 10, "schedule": {"kind": "constant", "eta0": 2.0},
             "inner": {"solver": "armijo", "m": m}}
            for m in (1, 5, 10, 20, 100)
        ]
    return {
        "mushrooms-logistic": {
            "name": "mushrooms-logistic", "loss": "logistic", "seeds": [0, 1, 2],
            "dataset": {"path": "data/mushrooms", "task": "binary", "remap_binary": True},
            "runs": mushrooms_runs,
        },
        "ill-conditioned-ls": {
            "name": "ill-conditioned-ls", "loss": "squared",
            "dataset": {"synthetic": {"kind": "interpolating", "n": 100, "d": 20, "cond": 1e3,
                                      "seed": 7}},
            "runs": [
                {"id": "sgd", "optimizer": "sgd", "batch_size": 1, "T": 40000, "tau": 1000,
                 "eval_every": 200},
                {"id": "sso-exact", "optimizer": "sso", "batch_size": None,
                 "T": 50, "tau": 1000, "eval_every": 1,
                 "schedule": {"kind": "constant", "eta0": 0.5},
                 "inner": {"solver": "exact"}},
            ],
        },
        "interpolation": {
            "name": "interpolation", "loss": "squared",
            "dataset": {"synthetic": {"kind": "interpolating", "n": 200, "d": 50, "cond": 1.0,
                                      "seed": 3}},
            "runs": [{"id": "sso-m20", "optimizer": "sso", "batch_size": None, "T": 500,
                      "schedule": {"kind": "constant", "eta0": 0.5},
                      "inner": {"solver": "gd", "m": 20}}],
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

    spec = data_mod.SyntheticSpec("least-squares", n=40, d=8, cond=10.0, noise=0.3, seed=seed)
    ds = data_mod.generate_synthetic(spec)
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
    ds_i = data_mod.generate_synthetic(data_mod.SyntheticSpec("interpolating", n=30, d=6, seed=seed))
    _, z_star = diag.least_squares_optimum(ds_i)
    s2 = diag.noise_sigma2(ds_i, loss, z_star)
    s2z = diag.sigma2_z(ds_i, loss)
    ok = abs(s2) <= 1e-8 and abs(s2z) <= 1e-8
    results.append(("interpolation-zero-noise", ok, f"sigma2 {s2:.2e} sigma2_z {s2z:.2e}"))
    return results
