"""Check every reference instance of the benchmark workloads.

    python3 tools/reference_sweep.py [workload ...]

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
"""

from __future__ import annotations

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


def sweep(name: str, reference: dict) -> tuple[list[str], int, int, int, dict]:
    """(problems, failing pairs, identical pairs, pairs, worst relative
    deviation by run id and column)."""
    workload = WORKLOADS[name]
    failures, failing, identical, pairs = [], 0, 0, 0
    worst: dict = {}
    for instance in range(POOL):
        ref = reference[str(instance)]
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp, "inputs"), Path(tmp, "out")
            inputs.mkdir()
            config, hashes, (n, d) = workload.build(instance, inputs)
            if hashes != ref["inputs"]:
                failures.append(f"{name}/{instance}: inputs differ from the reference inputs")
            with contextlib.redirect_stdout(io.StringIO()):
                harness.run_experiment(config, out_dir=str(out), jobs=1)
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
                identical += hashlib.sha256(without_wall(text).encode()).hexdigest() == want["sha256"]
                last = parse_csv(text)[-1]
                run_worst = worst.setdefault(run["id"], dict.fromkeys(COLUMNS, 0.0))
                for col in COLUMNS:
                    ref_val = want[f"final_{col}"]
                    dev = abs(float(last[col]) - ref_val) / max(abs(ref_val), 1e-12)
                    run_worst[col] = max(run_worst[col], dev)
    return failures, failing, identical, pairs, worst


def main(names: list[str]) -> int:
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    failed = False
    for name in names or sorted(WORKLOADS):
        failures, failing, identical, pairs, worst = sweep(name, reference[name])
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
