"""targetopt benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Repeats the workload, one `run_experiment(config, jobs=1)` call per fresh
worker process, for the given number of seconds. A run cycles through a
fixed block of input instances, (seed + j) % POOL for j below the
workload's `instances`, and visits each at least once however long that
takes, so that runs of a faster and a slower commit cover the same inputs.
Each end-to-end metric is the median over the block's instances of the
per-instance median over visits. Timings and rates are scaled by the
calibration kernel timed in the process that measured them (calibrate.py);
the unscaled wall-time figures (raw.*) and the kernel time are reported
beside them. Every (run, seed) CSV is checked against the expected shape
and counts and against the reference outputs in reference.json. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs each
instance untraced and then traced, and reports the per-layer metrics of
the traced repetitions plus the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed (counted in (run, seed) pairs) and metrics.

The metrics and workloads are the ones BENCHMARK.json lists; workloads.py
builds the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S
from workloads import (
    POOL, WORKLOADS, check_pair, pair_names, parse_csv, reference_entry, time_to_loss_ms,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in _SPEC["end_to_end"]}
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"]]
# Per-repetition sample lists behind the end-to-end metrics other than
# setup_s. Rates and times are scaled by the calibration, peak memory is not.
RATES = ("oracle_calls_per_s", "sso_inner_steps_per_s", "sgd_steps_per_s")
TIMES = ("time_to_loss_s",)
REP_METRICS = (*RATES, *TIMES, "peak_rss_mb")


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("TARGETOPT_OUT", None)
    return env


def call_worker(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker {args[0]} printed no result: {proc.stdout[-2000:]}") from None


def git_describe() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                              env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


# ----------------------------------------------------------------------
# One repetition: run, check, extract samples
# ----------------------------------------------------------------------

def _failed_pairs(result: dict, names: list[str]) -> set[str]:
    if result["error"] is not None:
        return set(names)
    failed = set()
    for line in result["failed_lines"]:
        match = re.match(r"FAILED (\S+) seed (\d+):", line)
        if match:
            failed.add(f"{match.group(1)}_s{match.group(2)}")
    if result["status"] != 0 and not failed:
        return set(names)
    return failed


def run_rep(workload, instance: int, work: Path, index: int, traced: bool, reference) -> dict:
    """One repetition on one input instance, checked against its reference
    outputs (None: check shape and counts only)."""
    inputs, out_dir = work / f"inputs{index}", work / f"rep{index}"
    inputs.mkdir(parents=True)
    config, hashes, (n, d) = workload.build(instance, inputs)
    job = work / f"job{index}.json"
    job.write_text(json.dumps({"config": config, "out_dir": str(out_dir), "trace": traced,
                               "boundaries": list(workload.boundaries)}))
    result = call_worker(["run", str(job)])
    pairs = pair_names(config)
    failed = _failed_pairs(result, [stem for _, _, stem in pairs])
    problems = [f"{stem}: run failed" for stem in sorted(failed)]
    if result["error"]:
        problems.append(result["error"].strip().splitlines()[-1])
    if reference is not None and reference["inputs"] != hashes:
        problems.append(f"instance {instance}: inputs differ from the reference inputs")
    finals = {}
    ttl, sgd_rates = [], []
    oracle_calls = sso_steps = 0
    sso_wall_ms = 0.0
    for run, k, stem in pairs:
        path = out_dir / f"{stem}.csv"
        if stem in failed:
            continue
        if not path.exists():
            failed.add(stem)
            problems.append(f"{stem}: CSV missing")
            continue
        text = path.read_text()
        ref = reference["pairs"].get(stem) if reference else None
        found = check_pair(run, k, text, n, d, ref)
        headline = run["id"] == workload.headline
        ms = None
        if headline and ref is not None:
            ms = time_to_loss_ms(text, ref["loss_threshold"])
            if ms is None:
                found.append(f"loss never reached {ref['loss_threshold']!r}")
        if found:
            failed.add(stem)
            problems += [f"{stem}: {p}" for p in found]
            continue
        if ms is not None:
            ttl.append(ms / 1e3)
        last = parse_csv(text)[-1]
        finals[stem] = reference_entry(text, workload.threshold_row if headline else None)
        oracle_calls += int(last["oracle_calls"])
        if run["optimizer"] == "sso":
            sso_steps += int(last["inner_steps"])
            sso_wall_ms += float(last["wall_ms"])
        if run["optimizer"] == "sgd":
            sgd_rates.append(int(last["outer_t"]) / (float(last["wall_ms"]) / 1e3))
    shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(inputs, ignore_errors=True)
    problems += result["trace_problems"]
    return {
        "traced": traced,
        "wall_s": result["wall_s"],
        "kernel_s": result["kernel_s"],
        "versions": result["versions"],
        "instance": instance,
        "inputs_sha256": hashes,
        "attempted": len(pairs),
        "failed": len(failed),
        "problems": problems,
        "finals": finals,
        "identical": sum(
            entry["sha256"] == reference["pairs"].get(stem, {}).get("sha256")
            for stem, entry in finals.items()
        ) if reference else 0,
        "oracle_calls_per_s": [oracle_calls / result["wall_s"]],
        "sso_inner_steps_per_s": [sso_steps / (sso_wall_ms / 1e3)] if sso_wall_ms else [],
        "sgd_steps_per_s": sgd_rates,
        "time_to_loss_s": ttl,
        "peak_rss_mb": [result["peak_rss_mb"]],
        "layers": result.get("layers"),
    }


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------

def tail(values: list[float], better: str):
    """Highest percentile with at least ten samples beyond it, on the worse side."""
    n = len(values)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = p if better == "lower" else 100 - p
            return f"p{q:g}", float(np.percentile(values, q))
    return None


def describe(name: str, value: float, values: list[float], unit: str, better: str) -> str:
    how = "median" if name == "setup_s" else "median of per-instance medians"
    line = f"  {name:<24} {value:.6g} {unit} ({how})"
    t = tail(values, better)
    line += f", {t[0]} {t[1]:.6g} {unit}" if t else ", no tail percentile (needs n >= 20)"
    return line + f", n={len(values)}"


def scaled(rep: dict, name: str) -> list[float]:
    """A repetition's samples at the calibration kernel's reference speed."""
    slow = rep["kernel_s"] / REFERENCE_S  # > 1 when the machine ran slower
    if name in RATES:
        return [v * slow for v in rep[name]]
    if name in TIMES:
        return [v / slow for v in rep[name]]
    return rep[name]


def per_instance_median(reps: list[dict], name: str, scale: bool) -> float | None:
    """Median over instances of the per-instance median of a sample list."""
    by_instance: dict[int, list[float]] = {}
    for r in reps:
        by_instance.setdefault(r["instance"], []).extend(scaled(r, name) if scale else r[name])
    medians = [statistics.median(v) for v in by_instance.values() if v]
    return statistics.median(medians) if medians else None


def measure(workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    references = load_reference().get(workload.name, {})
    block = [(seed + j) % POOL for j in range(workload.instances)]
    problems = []
    setup = []
    work.mkdir(parents=True)
    if not trace:
        config, _, _ = workload.build(block[0], work)
        spec = work / "dataset.json"
        spec.write_text(json.dumps(config["dataset"]))
        setup = [call_worker(["setup", str(spec)]) for _ in range(SETUP_PROBES)]

    # --trace 0: one repetition per visit. --trace 1: an untraced and then
    # a traced repetition per visit, so the overhead compares equal inputs.
    per_visit = 2 if trace else 1
    minimum = 2 if trace else len(block)
    reps = []
    deadline = time.perf_counter() + seconds
    while len(reps) < minimum or len(reps) % per_visit or time.perf_counter() < deadline:
        instance = block[len(reps) // per_visit % len(block)]
        traced = trace and len(reps) % 2 == 1
        reference = references.get(str(instance))
        if reference is None:
            problems.append(f"no reference outputs for instance {instance}")
        reps.append(run_rep(workload, instance, work, len(reps), traced, reference))

    for rep in reps:
        problems += rep["problems"]

    untraced = [r for r in reps if not r["traced"]]
    kernel_ms = statistics.median(r["kernel_s"] for r in untraced) * 1e3
    raw = {f"raw.{name}": per_instance_median(untraced, name, False) for name in (*RATES, *TIMES)}
    if trace:
        traced_reps = [r for r in reps if r["traced"]]
        values = {name: statistics.median(r["layers"][name] for r in traced_reps)
                  for name in traced_reps[0]["layers"]}
        plain = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced_reps)
        values["repo.src_lines"] = src_lines()
        values["trace.overhead_s"] = traced_wall - plain
        values["trace.overhead_frac"] = (traced_wall - plain) / plain
        values["calibration.kernel_ms"] = kernel_ms
        values.update(raw)
        units = {name: unit for name, unit, _ in PER_LAYER}
        samples = {}
    else:
        samples = {name: [v for r in untraced for v in scaled(r, name)] for name in REP_METRICS}
        samples["setup_s"] = [p["setup_s"] * REFERENCE_S / p["kernel_s"] for p in setup]
        values = {name: per_instance_median(untraced, name, True) for name in REP_METRICS}
        values["setup_s"] = statistics.median(samples["setup_s"])
        raw["raw.setup_s"] = statistics.median(p["setup_s"] for p in setup)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    missing = [name for name in units if values.get(name) is None]
    if missing:
        problems.append("no samples for " + ", ".join(missing))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if values.get(name) is not None}

    environment = {
        **reps[0]["versions"],
        "nproc": os.cpu_count(),
        "threads_pinned": {var: "1" for var in THREAD_VARS},
        "git_describe": git_describe(),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "instances": block,
        "inputs_sha256": {r["instance"]: r["inputs_sha256"] for r in reps},
        "environment": environment,
        "repetitions": len(reps),
        "traced_repetitions": sum(r["traced"] for r in reps),
        "kernel_ms": kernel_ms,
        "setup_kernel_ms": [p["kernel_s"] * 1e3 for p in setup],
        "raw": raw,
        "per_rep": [
            {key: r[key] for key in ("instance", "traced", "wall_s", "kernel_s", *REP_METRICS)}
            for r in reps
        ],
        "identical_to_reference": sum(r["identical"] for r in reps),
        "problems": problems,
        "samples": samples,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }


def report(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  trace {int(res['trace'])}")
    for instance, hashes in res["inputs_sha256"].items():
        for name, digest in hashes.items():
            print(f"  input instance {instance} {name} sha256 {digest}")
    env = res["environment"]
    print(f"  python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}"
          f"  nproc {env['nproc']}  BLAS/OpenMP threads 1  git {env['git_describe']}")
    print(f"  calibration kernel median {res['kernel_ms']:.4g} ms; end-to-end times and"
          f" rates are scaled to its {REFERENCE_S * 1e3:g} ms reference (calibrate.py)")
    print(f"  repetitions {res['repetitions']} (traced {res['traced_repetitions']})"
          f" over instances {res['instances']}, {res['attempted']} (run, seed) pairs")
    print(f"  CSVs byte-identical to the reference apart from wall_ms:"
          f" {res['identical_to_reference']} of {res['attempted']} pairs")
    for name, values in res["samples"].items():
        if values:
            unit, better = END_TO_END[name]
            print(describe(name, res["metrics"][name]["value"], values, unit, better))
    if not res["trace"]:
        for name, value in res["raw"].items():
            if value is not None:
                unit = END_TO_END[name.removeprefix("raw.")][0]
                print(f"  {name:<28} {value:.6g} {unit} (unscaled wall time)")
    else:
        for name, entry in res["metrics"].items():
            print(f"  {name:<44} {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_frac {res['failed'] / res['attempted']:.6g}"
          f" ({res['failed']} of {res['attempted']} pairs)")
    for problem in res["problems"][:20]:
        print(f"  PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "targetopt" / "__init__.py").is_file():
        print(f"error: no targetopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        res = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-s{args.seed}-t{args.trace}"
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(res, indent=1))
    report(res)
    expected = [name for name, _, _ in PER_LAYER] if args.trace else list(END_TO_END)
    correct = not res["problems"] and res["failed"] == 0 and list(res["metrics"]) == expected
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
