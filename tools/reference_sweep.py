"""Check every reference instance of the benchmark workloads.

    python3 tools/reference_sweep.py [--hashes FILE] [workload ...]

Runs each of the POOL input instances of each named workload (default:
all) once, in this process, through `targetopt.harness.run_experiment`,
and checks every (run, seed) CSV with the benchmark's own `check_pair`
against `perfbench/reference.json`, plus the headline run's loss
threshold. It prints the failing pairs with their problems, the number
of pairs byte-identical to the reference apart from `wall_ms`, and the
worst relative deviation of the final loss and gradient norm, for the
workload and for each run id in it, so a numerical change names the
runs it moved. Exit status 1 if any pair fails. The benchmark's files
are only read.

With `--hashes FILE` it also writes one SHA-256 digest per pair (its CSV
without `wall_ms`, plus its `inner_stalls`) and per `summary.csv`, one
`<digest>  <workload>/<instance>/<file>` line each. A second pass runs
every instance again with every run set to `"sampling": "shuffle"` and
adds its digests under `shuffle/`. Two commits that write identical
files produce the same traces on every instance of both sampling modes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from targetopt import harness  # noqa: E402
from workloads import (  # noqa: E402
    POOL, WORKLOADS, check_pair, pair_names, parse_csv, time_to_loss_ms, without_wall,
)


COLUMNS = ("loss", "grad_norm")


def run_instance(workload, instance: int, tmp: str, sampling: str | None = None):
    """Build one input instance in `tmp` and run its experiment there;
    (config, input hashes, (n, d), output directory)."""
    inputs, out = Path(tmp, "inputs"), Path(tmp, "out")
    inputs.mkdir()
    config, hashes, shape = workload.build(instance, inputs)
    if sampling is not None:
        config["runs"] = [{**run, "sampling": sampling} for run in config["runs"]]
    with contextlib.redirect_stdout(io.StringIO()):
        harness.run_experiment(config, out_dir=str(out), jobs=1)
    return config, hashes, shape, out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(config: dict, out: Path, prefix: str) -> list[str]:
    """`<digest>  <prefix>/<file>` for each pair (its CSV without wall_ms
    and its inner_stalls) and for summary.csv; "missing" for an absent file."""
    lines = []
    for _, _, stem in pair_names(config):
        csv, sidecar = out / f"{stem}.csv", out / f"{stem}.json"
        if csv.exists() and sidecar.exists():
            stalls = json.loads(sidecar.read_text())["inner_stalls"]
            digest = sha256(f"{without_wall(csv.read_text())}inner_stalls,{stalls}\n")
        else:
            digest = "missing"
        lines.append(f"{digest}  {prefix}/{stem}")
    summary = out / "summary.csv"
    digest = sha256(summary.read_text()) if summary.exists() else "missing"
    return lines + [f"{digest}  {prefix}/summary.csv"]


def sweep(name: str, reference: dict, hash_lines: list | None = None):
    """(problems, failing pairs, identical pairs, pairs, worst relative
    deviation by run id and column); appends each instance's digests to
    `hash_lines` when it is given."""
    workload = WORKLOADS[name]
    failures, failing, identical, pairs = [], 0, 0, 0
    worst: dict = {}
    for instance in range(POOL):
        ref = reference[str(instance)]
        with tempfile.TemporaryDirectory() as tmp:
            config, hashes, (n, d), out = run_instance(workload, instance, tmp)
            if hashes != ref["inputs"]:
                failures.append(f"{name}/{instance}: inputs differ from the reference inputs")
            if hash_lines is not None:
                hash_lines += digests(config, out, f"{name}/{instance}")
            for run, k, stem in pair_names(config):
                pairs += 1
                want = ref["pairs"][stem]
                path = out / f"{stem}.csv"
                if not path.exists():
                    failures.append(f"{name}/{instance} {stem}: CSV missing")
                    failing += 1
                    continue
                text = path.read_text()
                problems = check_pair(run, k, text, n, d, want)
                if run["id"] == workload.headline and time_to_loss_ms(
                    text, want["loss_threshold"]
                ) is None:
                    problems.append(f"loss never reached {want['loss_threshold']!r}")
                failures += [f"{name}/{instance} {stem}: {p}" for p in problems]
                failing += bool(problems)
                identical += sha256(without_wall(text)) == want["sha256"]
                last = parse_csv(text)[-1]
                run_worst = worst.setdefault(run["id"], dict.fromkeys(COLUMNS, 0.0))
                for col in COLUMNS:
                    ref_val = want[f"final_{col}"]
                    dev = abs(float(last[col]) - ref_val) / max(abs(ref_val), 1e-12)
                    run_worst[col] = max(run_worst[col], dev)
    return failures, failing, identical, pairs, worst


def shuffle_digests(name: str) -> list[str]:
    """The digests of every instance of a workload with every run set to
    epoch-shuffle sampling, which has no reference outputs to check."""
    lines = []
    for instance in range(POOL):
        with tempfile.TemporaryDirectory() as tmp:
            config, _, _, out = run_instance(WORKLOADS[name], instance, tmp, "shuffle")
            lines += digests(config, out, f"shuffle/{name}/{instance}")
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Check every reference instance.")
    parser.add_argument("workloads", nargs="*", help="workloads to sweep (default: all)")
    parser.add_argument("--hashes", metavar="FILE",
                        help="also write each pair's and summary's digest here, "
                             "and those of an all-shuffle pass")
    args = parser.parse_args(argv)
    names = args.workloads or sorted(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(WORKLOADS)}")
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    hash_lines = [] if args.hashes else None
    failed = False
    for name in names:
        failures, failing, identical, pairs, worst = sweep(name, reference[name], hash_lines)
        for line in failures:
            print(f"FAIL {line}")
        overall = {col: max((w[col] for w in worst.values()), default=0.0) for col in COLUMNS}
        print(
            f"{name}: {pairs - failing} of {pairs} pairs pass, "
            f"{identical} byte-identical apart from wall_ms; worst relative deviation "
            f"final loss {overall['loss']:.3g}, final grad norm {overall['grad_norm']:.3g}"
        )
        for run_id, w in worst.items():
            print(f"  {run_id}: final loss {w['loss']:.3g}, final grad norm {w['grad_norm']:.3g}")
        sys.stdout.flush()
        failed |= bool(failures)
    if args.hashes:
        for name in names:
            hash_lines += shuffle_digests(name)
        Path(args.hashes).write_text("\n".join(hash_lines) + "\n")
        print(f"wrote {len(hash_lines)} digests to {args.hashes}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
