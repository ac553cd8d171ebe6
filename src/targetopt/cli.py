"""Command-line interface.

Verbs:
  run     execute an experiment config (or named preset) and write metrics
  verify  run the fast property/diagnostic suite
  report  simulated-cost table for finished runs
  gen     write a synthetic dataset in LibSVM format
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import get_args

from . import data as data_mod
from . import harness


def _add_run(sub):
    p = sub.add_parser("run", help="execute an experiment config")
    p.add_argument("--config", help="path to a JSON experiment config")
    p.add_argument("--preset", help="named preset (see --list-presets)")
    p.add_argument("--list-presets", action="store_true")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p.add_argument("--seed", type=int, default=None, help="global seed override")
    p.add_argument("--data", default=None, help="override dataset file path")
    p.add_argument("--dim", type=int, default=None,
                   help="override the inferred feature dimension")
    p.add_argument("--normalize", action="store_true",
                   help="max-abs column scaling (changes smoothness constants)")


def _add_report(sub):
    p = sub.add_parser("report", help="cost-to-threshold table")
    p.add_argument("csvs", nargs="+", help="run CSV files")
    p.add_argument("--tau", type=float, default=1.0, help="cost per oracle call")
    p.add_argument("--thresholds", default="1e-1,1e-2,1e-3", help="comma-separated loss thresholds")


def _add_gen(sub):
    p = sub.add_parser("gen", help="generate a synthetic LibSVM file")
    p.add_argument("--kind", default="least-squares", choices=get_args(data_mod.SyntheticKind))
    p.add_argument("--n", type=int, help="rows (default 100; counterexample-quadratics fixes 2)")
    p.add_argument("--d", type=int, help="columns (default 10; counterexample-quadratics fixes 1)")
    p.add_argument("--cond", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="targetopt")
    sub = parser.add_subparsers(dest="verb", required=True)
    _add_run(sub)
    sub.add_parser("verify", help="run the fast verification suite")
    _add_report(sub)
    _add_gen(sub)
    args = parser.parse_args(argv)

    if args.verb == "verify":
        results = harness.verify_suite()
        ok = True
        for name, passed, detail in results:
            print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
            ok &= passed
        return 0 if ok else 1

    if args.verb == "run" and args.list_presets:
        for name in sorted(harness.presets()):
            print(name)
        return 0
    # Pairs report their own failures; what escapes `run` is a config
    # error, what escapes `report` a bad threshold or CSV, and what
    # escapes `gen` a bad spec or an unwritable --out.
    try:
        if args.verb == "gen":
            size = {k: v for k, v in (("n", args.n), ("d", args.d)) if v is not None}
            if args.kind != "counterexample-quadratics":  # its instance fixes n and d
                size = {"n": 100, "d": 10, **size}
            spec = data_mod.SyntheticSpec(
                kind=args.kind, cond=args.cond, noise=args.noise, seed=args.seed, **size
            )
            ds = data_mod.generate_synthetic(spec)
            Path(args.out).write_text(data_mod.to_libsvm(ds))
            print(f"wrote {ds.n}x{ds.d} {args.kind} dataset to {args.out}")
            return 0
        if args.verb == "report":
            thresholds = [float(x) for x in args.thresholds.split(",") if x]
            print(harness.format_cost_table(harness.cost_report(args.csvs, args.tau, thresholds)))
            return 0
        if args.preset:
            presets = harness.presets()
            if args.preset not in presets:
                raise ValueError(f"unknown preset {args.preset!r}; see --list-presets")
            config = presets[args.preset]
        elif args.config:
            config = harness.load_config(args.config)
        else:
            raise ValueError("run needs --config or --preset")
        if args.data:
            config.setdefault("dataset", {})["path"] = args.data
            config["dataset"].pop("synthetic", None)
        if args.dim is not None:
            config.setdefault("dataset", {})["d"] = args.dim
        if args.normalize:
            config.setdefault("dataset", {})["normalize"] = True
        return harness.run_experiment(
            config, out_dir=args.out, jobs=args.jobs, global_seed=args.seed
        )
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
