"""Regenerate reference.json, the outputs every benchmark run is checked against.

    python3 perfbench/make_reference.py [workload ...]

Runs one untraced repetition per workload and input instance and stores
the input hashes and, per (run, seed) pair, the SHA-256 of the CSV without
its wall_ms column, the final inner_steps, loss and gradient norm. Only
the named workloads (default: all) are replaced. Regenerate only for a
deliberate change of generated inputs or of numerical results, and say so
where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import REFERENCE, WORK, load_reference, run_rep
from workloads import POOL, WORKLOADS


def main(names: list[str]) -> int:
    reference = load_reference()
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entries = {}
        for instance in range(POOL):
            work = WORK / f"reference-{name}-{instance}"
            shutil.rmtree(work, ignore_errors=True)
            try:
                rep = run_rep(workload, instance, work, 0, False, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if rep["problems"]:
                print(f"{name} instance {instance}: {rep['problems']}", file=sys.stderr)
                return 1
            entries[str(instance)] = {"inputs": rep["inputs_sha256"], "pairs": rep["finals"]}
            print(f"{name} instance {instance}: {len(rep['finals'])} pairs", flush=True)
        reference[name] = entries
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
