"""One fresh process per measurement.

    python3 perfbench/worker.py setup <dataset-spec.json>
    python3 perfbench/worker.py run <job.json>

`setup` times importing `targetopt` and one `harness.load_dataset` call.
`run` executes one repetition of a workload, a single
`run_experiment(config, jobs=1)` call, optionally under the tracer. Both
time the calibration kernel in the same process (calibrate.py) and print
one JSON object. `targetopt` is imported from the checkout's `src`
directory and nowhere else; exit status 3 means it could not be.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

IMPORT_FAILED = 3

INNER_SOLVERS = ("inner_solvers.armijo", "inner_solvers.gd_fixed", "inner_solvers.exact")


def import_targetopt():
    sys.path.insert(0, str(SRC))
    try:
        import targetopt
    except ImportError as e:
        print(f"cannot import targetopt from {SRC}: {e}", file=sys.stderr)
        sys.exit(IMPORT_FAILED)
    if Path(targetopt.__file__).resolve().parent != SRC / "targetopt":
        print(f"targetopt imported from {targetopt.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(IMPORT_FAILED)
    return targetopt


def versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__}


def setup_probe(spec_path: str) -> dict:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    import_targetopt()
    from targetopt import harness

    harness.load_dataset(spec)
    setup_s = time.perf_counter() - t0
    from calibrate import Kernel

    return {"setup_s": setup_s, "kernel_s": Kernel().seconds()}


# ----------------------------------------------------------------------
# Traced boundaries
# ----------------------------------------------------------------------

def _rows_and_bytes(args, kwargs, result):
    X = args[2]
    idx = args[3] if len(args) > 3 else kwargs.get("idx")
    rows = X.shape[0] if idx is None else len(idx)
    if hasattr(X, "indptr"):
        stored = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    else:
        stored = X.nbytes
    return rows, rows * stored / max(X.shape[0], 1)


def _input_bytes(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    if isinstance(text, (str, bytes)):
        return len(text)
    return os.fstat(text.fileno()).st_size


def _armijo_result(args, kwargs, result):
    return result.inner_steps, int(result.stalled)


def boundaries(targetopt):
    from targetopt import (
        data, harness, inner_solvers, losses, models, optimizers, schedules, surrogates,
    )
    from tracer import Boundary

    model_classes = (models.LinearModel, models.SoftmaxLinearModel, models.MLPModel)
    loss_classes = (losses.SquaredLoss, losses.LogisticLoss, losses.MulticlassKLLoss)
    S = surrogates.Surrogate
    return [
        Boundary("data.parse_libsvm", (data.parse_libsvm,), count=_input_bytes),
        Boundary("data.generate_synthetic", (data.generate_synthetic,)),
        Boundary("harness.load_dataset", (harness.load_dataset,)),
        Boundary("harness.execute_single", (harness.execute_single,)),
        Boundary("harness.write_summary", (harness.write_summary,)),
        Boundary("optimizers.run", tuple(optimizers.RUNNERS.values()),
                 tag=lambda a: a[0].run_id or a[0].optimizer),
        Boundary("optimizers.batch_param_grad", (optimizers.batch_param_grad,)),
        Boundary("optimizers.full_loss", (optimizers.full_loss,)),
        Boundary("optimizers.full_grad_norm", (optimizers.full_grad_norm,)),
        Boundary("surrogates.build", (surrogates.build_stochastic,)),
        Boundary("surrogates.value", methods=((S, "value"),)),
        Boundary("surrogates.grad", methods=((S, "grad"),)),
        Boundary("surrogates.smoothness_bound", methods=((S, "smoothness_bound"),)),
        Boundary("surrogates.quadratic_parts", methods=((S, "quadratic_parts"),)),
        Boundary("models.forward", methods=tuple((c, "forward") for c in model_classes),
                 count=_rows_and_bytes),
        Boundary("models.param_grad", methods=tuple((c, "param_grad") for c in model_classes),
                 count=_rows_and_bytes),
        Boundary("models.spectral_norm", (models.spectral_norm,)),
        Boundary("losses.values", methods=tuple((c, "values") for c in loss_classes)),
        Boundary("losses.grads", methods=tuple((c, "grads") for c in loss_classes)),
        Boundary("losses.curvs", methods=tuple((c, "curvs") for c in loss_classes)),
        Boundary("inner_solvers.armijo", (inner_solvers.armijo_backtracking,),
                 count=_armijo_result, inner=True),
        Boundary("inner_solvers.gd_fixed", (inner_solvers.gd_fixed,), inner=True),
        Boundary("inner_solvers.exact", (inner_solvers.exact_linear_solve,), inner=True),
        Boundary("schedules.target_line_search", (schedules.target_line_search,)),
    ]


def package_modules(targetopt):
    from targetopt import (
        cli, data, diagnostics, harness, inner_solvers, losses, models, optimizers,
        schedules, surrogates,
    )

    return [targetopt, cli, data, diagnostics, harness, inner_solvers, losses, models,
            optimizers, schedules, surrogates]


# ----------------------------------------------------------------------
# Per-layer metrics of one traced repetition
# ----------------------------------------------------------------------

def _final_rows(out_dir: Path, config: dict) -> dict:
    from workloads import pair_names, parse_csv

    out = {}
    for run, k, stem in pair_names(config):
        path = out_dir / f"{stem}.csv"
        if path.exists():
            out[stem] = (run, parse_csv(path.read_text())[-1])
    return out


def layer_metrics(spans, config: dict, out_dir: Path) -> dict:
    import numpy as np
    from run import PER_LAYER
    from tracer import children_of, self_times

    # Boundaries reported with calls / self time / per-call percentiles,
    # and those with self time only.
    four_stats = [n.removesuffix(".p50_us") for n, _, _ in PER_LAYER if n.endswith(".p50_us")]
    self_only = [n.removesuffix(".self_s") for n, _, _ in PER_LAYER
                 if n.endswith(".self_s") and n.removesuffix(".self_s") not in four_stats]

    selfs = self_times(spans)
    kids = children_of(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    m: dict[str, float] = {}
    for name in four_stats:
        idx = by_name.get(name, [])
        durations = np.array([spans[i].duration for i in idx]) * 1e6
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.self_s"] = float(sum(selfs[i] for i in idx))
        m[f"{name}.p50_us"] = float(np.percentile(durations, 50)) if idx else 0.0
        m[f"{name}.p99_us"] = float(np.percentile(durations, 99)) if idx else 0.0
    for name in self_only:
        m[f"{name}.self_s"] = float(sum(selfs[i] for i in by_name.get(name, [])))
    m["harness.load_dataset.calls"] = len(by_name.get("harness.load_dataset", []))

    parse = by_name.get("data.parse_libsvm", [])
    parse_bytes = sum(spans[i].counts for i in parse)
    parse_s = sum(spans[i].duration for i in parse)
    m["data.parse_libsvm.mb_per_s"] = parse_bytes / parse_s / 1e6 if parse_s else 0.0
    m["harness.bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())

    finals = _final_rows(out_dir, config)
    sso_ids = {run["id"] for run in config["runs"] if run["optimizer"] == "sso"}
    sso_steps = sum(int(row["inner_steps"]) for run, row in finals.values() if run["id"] in sso_ids)

    # Wall per SSO inner step over wall per SGD step, at the SGD run's batch size.
    sgd = next(run for run in config["runs"] if run["optimizer"] == "sgd")
    peers = {r["id"] for r in config["runs"]
             if r["optimizer"] == "sso" and r.get("batch_size") == sgd.get("batch_size")}
    inner_s = sum(spans[i].duration for name in INNER_SOLVERS for i in by_name.get(name, [])
                  if spans[i].tag in peers)
    peer_steps = sum(int(row["inner_steps"]) for run, row in finals.values() if run["id"] in peers)
    sgd_s = sum(spans[i].duration for i in by_name.get("optimizers.run", [])
                if spans[i].tag == sgd["id"])
    sgd_s -= sum(spans[i].duration for name in ("optimizers.full_loss", "optimizers.full_grad_norm")
                 for i in by_name.get(name, []) if spans[i].tag == sgd["id"])
    sgd_steps = sum(int(row["outer_t"]) for run, row in finals.values() if run["id"] == sgd["id"])
    if peer_steps and sgd_steps and sgd_s > 0:
        m["optimizers.inner_step_frac"] = (inner_s / peer_steps) / (sgd_s / sgd_steps)
    else:
        m["optimizers.inner_step_frac"] = 0.0

    value_calls = len(by_name.get("surrogates.value", []))
    m["surrogates.value_calls_per_inner_step"] = value_calls / sso_steps if sso_steps else 0.0

    inner_rows = 0
    bytes_computed = 0.0
    for name in ("models.forward", "models.param_grad"):
        rows = 0
        for i in by_name.get(name, []):
            r, b = spans[i].counts
            rows += r
            bytes_computed += b
            if spans[i].inner:
                inner_rows += r
        m[f"{name}.rows"] = rows
    m["models.rows_per_inner_step"] = inner_rows / sso_steps if sso_steps else 0.0
    m["models.bytes_computed"] = bytes_computed

    # An Armijo trial is a value call that is not the first one after a
    # gradient (that one evaluates the current point).
    trials = accepted = stalled = 0
    for i in by_name.get("inner_solvers.armijo", []):
        prev = None
        for c in kids.get(i, []):
            name = spans[c].name
            if name == "surrogates.value" and prev != "surrogates.grad":
                trials += 1
            prev = name
        steps, stall = spans[i].counts
        accepted += steps
        stalled += stall
    m["inner_solvers.armijo.trials"] = trials
    m["inner_solvers.armijo.accepted"] = accepted
    m["inner_solvers.armijo.accept_ratio"] = accepted / trials if trials else 0.0
    m["inner_solvers.armijo.stalled"] = stalled
    # The first loss evaluation of a target line search is its base value.
    m["schedules.target_line_search.trials"] = sum(
        max(0, sum(spans[c].name == "losses.values" for c in kids.get(i, [])) - 1)
        for i in by_name.get("schedules.target_line_search", [])
    )
    return m


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------

def run_job(job_path: str) -> dict:
    job = json.loads(Path(job_path).read_text())
    targetopt = import_targetopt()
    from targetopt import harness

    out_dir = Path(job["out_dir"])
    result: dict = {"versions": versions(), "trace_problems": []}
    tracer = installation = None
    if job["trace"]:
        from tracer import Installation, Tracer

        tracer = Tracer()
        installation = Installation(tracer, boundaries(targetopt), package_modules(targetopt))
        if not installation.installed():
            result["trace_problems"].append("a wrapper did not take effect")
    from calibrate import Kernel

    kernel = Kernel()
    before = kernel.seconds()
    stdout = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            status = harness.run_experiment(job["config"], out_dir=str(out_dir), jobs=1)
        error = None
    except Exception:  # noqa: BLE001 - reported as a failed repetition
        status, error = None, traceback.format_exc()
    wall = time.perf_counter() - t0
    after = kernel.seconds()
    if installation is not None:
        installation.remove()
    result.update(
        wall_s=wall,
        kernel_s=(before + after) / 2,
        status=status,
        error=error,
        failed_lines=[ln for ln in stdout.getvalue().splitlines() if ln.startswith("FAILED")],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        seen = {s.name for s in tracer.spans}
        result["trace_problems"] += [f"{b} recorded no call" for b in job["boundaries"] if b not in seen]
        result["layers"] = layer_metrics(tracer.spans, job["config"], out_dir)
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "run"):
        print(__doc__, file=sys.stderr)
        return 2
    result = setup_probe(argv[1]) if argv[0] == "setup" else run_job(argv[1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
