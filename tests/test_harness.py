import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from typing import get_args

import numpy as np
import pytest

from targetopt import cli
from targetopt.data import SyntheticKind, SyntheticSpec, generate_synthetic, parse_libsvm, to_libsvm
from targetopt.harness import (
    cost_report,
    derive_seed,
    format_cost_table,
    make_run_config,
    presets,
    read_csv,
    read_run,
    run_experiment,
    verify_suite,
)
from targetopt.losses import make_loss
from targetopt.models import make_model


def small_config(out_dir, T=6):
    return {
        "name": "smoke",
        "dataset": {
            "synthetic": {"kind": "least-squares", "n": 16, "d": 3, "cond": 4.0,
                          "noise": 0.3, "seed": 5}
        },
        "loss": "squared",
        "model": "linear",
        "seeds": [0, 1, 2],
        "out_dir": str(out_dir),
        "runs": [
            {"id": "sgd", "optimizer": "sgd", "T": T, "batch_size": 4, "eval_every": 2},
            {"id": "sso-m3", "optimizer": "sso", "T": T, "batch_size": 4,
             "eval_every": 2, "inner": {"solver": "gd", "m": 3},
             "schedule": {"kind": "constant", "eta0": 0.5}},
        ],
    }


def stand_in_problem(n, loss="squared", model="linear"):
    """A small (dataset, model, loss) of n rows for `make_run_config`, which
    checks the run on it and fixes its defaults."""
    dataset = generate_synthetic(SyntheticSpec("least-squares", n=n, d=3, seed=0))
    return dataset, make_model(model), make_loss(loss)


def zero_rows_config(tmp_path):
    """A labels-only LibSVM file read with "d": 3, so every row of X is
    zero, under one SGD run at its default step."""
    data_file = tmp_path / "zero.libsvm"
    data_file.write_text("1\n-1\n0.5\n")
    return {
        "dataset": {"path": str(data_file), "d": 3},
        "loss": "squared",
        "out_dir": str(tmp_path / "out"),
        "runs": [{"id": "sgd", "optimizer": "sgd", "T": 4}],
    }


def multiclass_config(tmp_path):
    """A three-class LibSVM file in `tmp_path` under a multiclass-kl loss and
    a softmax-linear model, with one SSO run of the entropy-mirror variant."""
    text = "\n".join(
        f"{label} 1:{v1:.3f} 2:{v2:.3f}"
        for label, v1, v2 in zip(
            [3, 5, 7, 3, 5, 7, 3, 5],
            np.linspace(-1, 1, 8),
            np.linspace(1, -1, 8),
        )
    )
    data_file = tmp_path / "mc.libsvm"
    data_file.write_text(text + "\n")
    return {
        "name": "mc",
        "dataset": {"path": str(data_file), "task": "multiclass"},
        "loss": "multiclass-kl",
        "model": {"kind": "softmax-linear"},
        "seeds": [0],
        "out_dir": str(tmp_path / "out"),
        "runs": [
            {"id": "mirror", "optimizer": "sso", "T": 20, "batch_size": None,
             "variant": "entropy-mirror", "eval_every": 20,
             "schedule": {"kind": "constant", "eta0": 0.3},
             "inner": {"solver": "armijo", "m": 5}},
        ],
    }


def strip_wall(text: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    wall = header.index("wall_ms")
    out = []
    for line in lines:
        parts = line.split(",")
        del parts[wall]
        out.append(",".join(parts))
    return "\n".join(out)


class TestRunExperiment:
    def test_file_counts(self, tmp_path):
        status = run_experiment(small_config(tmp_path / "out"))
        assert status == 0
        csvs = sorted((tmp_path / "out").glob("*.csv"))
        names = [p.name for p in csvs]
        assert "summary.csv" in names
        assert len([n for n in names if n != "summary.csv"]) == 6  # 2 runs x 3 seeds
        assert len(list((tmp_path / "out").glob("*.json"))) == 6

    def test_rerun_byte_identical_modulo_wall_clock(self, tmp_path):
        cfg = small_config(tmp_path / "a")
        run_experiment(cfg)
        cfg2 = small_config(tmp_path / "b")
        run_experiment(cfg2)
        for name in ["sgd_s0.csv", "sso-m3_s2.csv", "summary.csv"]:
            a = (tmp_path / "a" / name).read_text()
            b = (tmp_path / "b" / name).read_text()
            if name == "summary.csv":
                assert a == b
            else:
                assert strip_wall(a) == strip_wall(b)

    def test_summary_matches_raw(self, tmp_path):
        out = tmp_path / "out"
        run_experiment(small_config(out))
        raw: dict = {}
        for path in out.glob("*.csv"):
            if path.name == "summary.csv":
                continue
            for row in read_csv(path):
                raw.setdefault((row["run_id"], row["outer_t"]), []).append(float(row["loss"]))
        for row in read_csv(out / "summary.csv"):
            vals = np.array(raw[(row["run_id"], row["outer_t"])])
            assert float(row["loss_mean"]) == pytest.approx(vals.mean(), abs=1e-12)
            assert float(row["loss_q25"]) == pytest.approx(np.percentile(vals, 25), abs=1e-12)
            assert float(row["loss_q75"]) == pytest.approx(np.percentile(vals, 75), abs=1e-12)

    def test_out_dir_is_not_read_from_the_environment(self, tmp_path, monkeypatch):
        env = tmp_path / "env-out"
        monkeypatch.setenv("TARGETOPT_OUT", str(env))
        run_experiment(small_config(tmp_path / "config-out"), out_dir=str(tmp_path / "out"))
        assert (tmp_path / "out" / "summary.csv").exists()
        run_experiment(small_config(tmp_path / "config-out"))
        assert (tmp_path / "config-out" / "summary.csv").exists()
        assert not env.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_reports_nonzero(self, tmp_path, capsys):
        # A step of 1e300 passes every check and diverges on the first step.
        cfg = small_config(tmp_path / "out")
        cfg["runs"].append({"id": "bad", "optimizer": "sgd", "T": 6, "schedule": {"eta0": 1e300}})
        cfg["runs"].append({"optimizer": "adam", "T": 6,  # named after its optimizer
                            "schedule": {"eta0": 1e300}})
        status = run_experiment(cfg)
        assert status == 1
        out = capsys.readouterr().out
        assert "FAILED bad" in out
        assert "FAILED adam seed 0" in out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_all_pairs_failed_reports_without_summary(self, tmp_path, capsys):
        # A diverging step passes the config checks, so every pair starts and fails.
        cfg = small_config(tmp_path / "out")
        for run_spec in cfg["runs"]:
            run_spec["schedule"] = {"kind": "constant", "eta0": 1e300}
        status = run_experiment(cfg)
        assert status == 1
        out = capsys.readouterr().out
        assert out.count("FAILED") == len(cfg["runs"]) * len(cfg["seeds"])
        assert not (tmp_path / "out").exists()

    def test_summary_lists_only_this_experiments_runs(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(out, T=2)
        cfg["runs"] = [{"id": "old", "optimizer": "sgd", "T": 2}]
        assert run_experiment(cfg) == 0
        cfg["runs"] = [{"id": "new", "optimizer": "sgd", "T": 2}]
        assert run_experiment(cfg) == 0
        assert {row["run_id"] for row in read_csv(out / "summary.csv")} == {"new"}

    def test_stray_csv_in_the_output_directory_is_not_summarized(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.csv").write_text("a,b\n1,2\n")
        assert run_experiment(small_config(out, T=2)) == 0
        assert {row["run_id"] for row in read_csv(out / "summary.csv")} == {"sgd", "sso-m3"}

    def test_missing_data_fails_once_before_any_pair(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("DATA_DIR", "data")
        cfg = small_config(tmp_path / "out")
        cfg["dataset"] = {"path": "$DATA_DIR/missing.libsvm", "task": "binary"}
        resolved = str((tmp_path / "data" / "missing.libsvm").resolve())
        with pytest.raises(FileNotFoundError, match=re.escape(resolved)):
            run_experiment(cfg)
        assert "FAILED" not in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_problem_is_loaded_once_per_experiment(self, tmp_path, monkeypatch):
        from targetopt import harness

        calls = []
        load = harness.load_dataset

        def counting_load(spec):
            calls.append(spec)
            return load(spec)

        monkeypatch.setattr(harness, "load_dataset", counting_load)
        cfg = small_config(tmp_path / "out")  # 2 runs x 3 seeds
        assert run_experiment(cfg) == 0
        assert len(calls) == 1

    def test_run_entry_is_translated_once_per_experiment(self, tmp_path, monkeypatch):
        from targetopt import harness

        calls = []
        make = harness.make_run_config

        def counting_make(run_spec, problem):
            calls.append(run_spec.run_id)
            return make(run_spec, problem)

        monkeypatch.setattr(harness, "make_run_config", counting_make)
        cfg = small_config(tmp_path / "out")  # 2 runs x 3 seeds
        assert run_experiment(cfg) == 0
        assert calls == ["sgd", "sso-m3"]

    def test_default_step_is_computed_once_per_run_entry(self, tmp_path, monkeypatch):
        from targetopt import optimizers

        calls = []
        step = optimizers.theoretical_parametric_step

        def counting_step(*args, **kwargs):
            calls.append(args)
            return step(*args, **kwargs)

        monkeypatch.setattr(optimizers, "theoretical_parametric_step", counting_step)
        cfg = small_config(tmp_path / "out")  # 3 seeds
        cfg["runs"] = [{"id": "sgd", "optimizer": "sgd", "T": 4, "batch_size": 4},
                       {"id": "svrg", "optimizer": "svrg", "T": 4, "batch_size": 4}]
        assert run_experiment(cfg) == 0
        assert len(calls) == 2

    def test_sidecar_records_the_resolved_eta0(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["runs"] = [
            {"id": "sgd", "optimizer": "sgd", "T": 4, "batch_size": 4},
            {"id": "svrg", "optimizer": "svrg", "T": 4, "batch_size": 4},
            {"id": "sso", "optimizer": "sso", "T": 4, "batch_size": 4,
             "inner": {"solver": "gd", "m": 3}},
        ]
        assert run_experiment(cfg) == 0
        for run in ("sgd", "svrg", "sso"):
            for seed in cfg["seeds"]:
                sidecar = json.loads((tmp_path / "out" / f"{run}_s{seed}.json").read_text())
                eta0 = sidecar["resolved_run"]["schedule"]["eta0"]
                assert isinstance(eta0, float)
                rows = read_csv(tmp_path / "out" / f"{run}_s{seed}.csv")
                assert float(next(r for r in rows if r["outer_t"] == "1")["eta"]) == eta0

    def test_sidecar_records_the_resolved_batch_and_snapshot_freq(self, tmp_path):
        cfg = small_config(tmp_path / "out")  # n = 16
        cfg["runs"] = [
            {"id": "full", "optimizer": "sgd", "T": 2, "batch_size": None},
            {"id": "svrg", "optimizer": "svrg", "T": 2, "batch_size": 5},
        ]
        assert run_experiment(cfg) == 0
        for seed in cfg["seeds"]:
            full = json.loads((tmp_path / "out" / f"full_s{seed}.json").read_text())
            assert full["resolved_run"]["batch_size"] == 16
            svrg = json.loads((tmp_path / "out" / f"svrg_s{seed}.json").read_text())
            assert svrg["resolved_run"]["svrg_snapshot_freq"] == 4  # ceil(16 / 5)

    def test_sidecar_records_provenance(self, tmp_path):
        import scipy

        import targetopt

        versions = {"targetopt": targetopt.__version__, "numpy": np.__version__,
                    "scipy": scipy.__version__, "python": "%d.%d.%d" % sys.version_info[:3]}
        cfg = small_config(tmp_path / "synthetic")
        assert run_experiment(cfg) == 0
        sidecar = json.loads((tmp_path / "synthetic" / "sgd_s0.json").read_text())
        assert sidecar["provenance"] == versions  # the spec is in "experiment"

        cfg = multiclass_config(tmp_path)
        assert run_experiment(cfg) == 0
        sidecar = json.loads((tmp_path / "out" / "mirror_s0.json").read_text())
        data_file = tmp_path / "mc.libsvm"
        assert sidecar["provenance"] == {
            **versions, "dataset": {"path": str(data_file.resolve()),
                                    "sha256": hashlib.sha256(data_file.read_bytes()).hexdigest()}}

    def test_adagrad_norm_steps_are_per_pair(self, tmp_path):
        # Every pair of a run shares its RunConfig's groups, so the
        # adagrad-norm sum must not live on them: seed 1's steps are the
        # same whether or not seed 0 ran before it.
        etas = []
        for seeds in ([0, 1], [1]):
            out = tmp_path / f"out{len(seeds)}"
            cfg = small_config(out)
            cfg["seeds"] = seeds
            cfg["runs"][1]["schedule"] = {"kind": "adagrad-norm"}
            assert run_experiment(cfg) == 0
            etas.append([row["eta"] for row in read_csv(out / "sso-m3_s1.csv")])
        assert etas[0] == etas[1]

    def test_csv_header_is_trace_row_fields(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(out, T=2)
        cfg["seeds"] = [0]
        cfg["runs"][1]["diagnostics"] = ["eps"]
        assert run_experiment(cfg) == 0
        header = "run_id,seed,outer_t,oracle_calls,inner_steps,sim_cost,wall_ms,eta,loss,grad_norm"
        assert (out / "sgd_s0.csv").read_text().splitlines()[0] == header
        assert (out / "sso-m3_s0.csv").read_text().splitlines()[0] == header + ",eps,zeta2"

    @pytest.mark.parametrize("key, value, message", [
        ("dataset", {"path": "broken.libsvm", "task": "binary"}, "line 1: bad label token 'not'"),
        ("loss", "hinge", "loss must be an object or one of 'squared', 'logistic', "
                          "'multiclass-kl', not 'hinge'"),
        ("model", "tree", "model must be an object or one of 'linear', 'softmax-linear', 'mlp', "
                          "not 'tree'"),
        ("dataset", {"synthetic": {"kind": "least-squares", "nn": 5}},
         "unknown key(s) ['nn'] in dataset.synthetic"),
        ("loss", "multiclass-kl", "loss 'multiclass-kl' needs a multiclass task, not 'regression'"),
        ("dataset", {"synthetic": {"kind": "least-squares"}, "normalise": True},
         "unknown key(s) ['normalise'] in dataset"),
        ("loss", {"kind": "squared", "smothness": 2.0}, "unknown key(s) ['smothness'] in loss"),
        ("model", {"kind": "mlp", "hiden": 5}, "unknown key(s) ['hiden'] in model"),
        ("loss", 3, "loss must be an object or one of 'squared', 'logistic', 'multiclass-kl', "
                    "not 3"),
        ("model", [], "model must be an object or one of 'linear', 'softmax-linear', 'mlp', "
                      "not []"),
        ("dataset", "data.libsvm", "dataset must be an object, not 'data.libsvm'"),
        ("dataset", {"synthetic": 3}, "dataset.synthetic must be an object or null, not 3"),
        # A problem setting that the dataset, loss or model never reads.
        ("dataset", {"synthetic": {"kind": "least-squares"}, "task": "binary"},
         "a synthetic dataset does not read 'task'; leave it out"),
        ("dataset", {"synthetic": {"kind": "least-squares"}, "d": 5},
         "a synthetic dataset does not read 'd'; leave it out"),
        ("dataset", {"synthetic": {"kind": "least-squares"}, "remap_binary": True},
         "a synthetic dataset does not read 'remap_binary'; leave it out"),
        ("dataset", {"synthetic": {"kind": "least-squares"}, "path": "broken.libsvm"},
         "dataset needs exactly one of 'path' and 'synthetic'"),
        ("expert_smoothing", 0.1, "loss 'squared' does not read 'expert_smoothing'; leave it out"),
        ("model", {"kind": "linear", "hidden": 5}, "model 'linear' does not read 'hidden'"),
        ("model", {"kind": "softmax-linear", "seed": 2}, "unknown key(s) ['seed'] in model"),
        ("model", {"kind": "mlp", "n_classes": 3}, "model 'mlp' does not read 'n_classes'"),
    ], ids=["malformed-data", "unknown-loss", "unknown-model", "synthetic-key", "kl-on-regression",
            "dataset-key", "loss-key", "model-key", "loss-number", "model-list", "dataset-name",
            "synthetic-number", "synthetic-ignores-task", "synthetic-ignores-d",
            "synthetic-ignores-remap", "path-and-synthetic", "squared-ignores-smoothing",
            "linear-ignores-hidden", "softmax-ignores-seed", "mlp-ignores-n-classes"])
    def test_bad_problem_fails_once_before_any_pair(self, tmp_path, capsys, monkeypatch,
                                                    key, value, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.libsvm").write_text("not libsvm\n")
        cfg = small_config(tmp_path / "out")
        cfg[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg)
        assert "FAILED" not in capsys.readouterr().out
        assert not (tmp_path / "out").exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        run_experiment(small_config(tmp_path / "serial"), jobs=1)
        run_experiment(small_config(tmp_path / "par"), jobs=2)
        for name in ["sgd_s1.csv", "sso-m3_s0.csv"]:
            a = strip_wall((tmp_path / "serial" / name).read_text())
            b = strip_wall((tmp_path / "par" / name).read_text())
            assert a == b

    @pytest.mark.parametrize("key, value, message", [
        ("seeds", [0, 1, 0], "'seeds' must be a non-empty list of distinct seeds, not [0, 1, 0]"),
        ("seeds", [], "'seeds' must be a non-empty list of distinct seeds, not []"),
        ("runs", [], "config has no runs"),
        ("seeds", 3, "seeds must be a list, not 3"),
        ("seeds", [0, 1.5], "seeds[1] must be an integer, not 1.5"),
        ("runs", [1], "runs[0] must be an object, not 1"),
        ("runs", ["x"], "runs[0] must be an object, not 'x'"),
        ("runs", {"a": 1}, "runs must be a list, not {'a': 1}"),
    ], ids=["duplicate-seed", "no-seeds", "no-runs", "seeds-number", "seed-fraction",
            "run-number", "run-name", "runs-object"])
    def test_bad_experiment_rejected_before_any_file(self, tmp_path, key, value, message):
        cfg = small_config(tmp_path / "out")
        cfg[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_config_that_is_no_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match=f"^config {re.escape(str(path))} must be a JSON "
                                             "object, not list$"):
            run_experiment(str(path))

    def test_duplicate_run_id_rejected_before_any_file(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["runs"].append({"id": "sgd", "optimizer": "adam", "T": 6})
        with pytest.raises(ValueError, match="'sgd'"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_stalled_inner_solves_are_reported(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = small_config(out)
        cfg["seeds"] = [0]
        cfg["runs"] = [
            {"id": "stall", "optimizer": "sso", "T": 6, "batch_size": 4,
             "schedule": {"kind": "constant", "eta0": 0.5},
             "inner": {"solver": "armijo", "m": 3, "alpha": 1e-14}},
        ]
        assert run_experiment(cfg) == 0
        assert "STALLED stall seed 0: 6 searches hit the backtrack floor" in capsys.readouterr().out
        assert json.loads((out / "stall_s0.json").read_text())["inner_stalls"] == 6
        assert read_csv(out / "stall_s0.csv")[-1]["inner_steps"] == "0"

    def test_seed_derivation_distinct(self):
        seeds = {derive_seed(0, rid, s) for rid in ("a", "b") for s in range(3)}
        assert len(seeds) == 6

    def test_diagnostic_columns(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(out, T=4)
        cfg["seeds"] = [0]
        cfg["runs"] = [
            {"id": "diag", "optimizer": "sso", "T": 4, "batch_size": 2,
             "eval_every": 1, "diagnostics": ["eps", "zeta2"],
             "schedule": {"kind": "constant", "eta0": 0.5},
             "inner": {"solver": "gd", "m": 2}}
        ]
        assert run_experiment(cfg) == 0
        rows = read_csv(out / "diag_s0.csv")
        assert "eps" in rows[0] and "zeta2" in rows[0]
        # Row 0 predates any step; later rows carry the measured values.
        assert rows[0]["eps"] == ""
        assert all(float(r["eps"]) >= 0 for r in rows[1:])
        assert all(float(r["zeta2"]) >= -1e-10 for r in rows[1:])


class TestCostReport:
    def make_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(out, T=40)
        cfg["runs"] = [
            {"id": "sgd", "optimizer": "sgd", "T": 40, "batch_size": 4, "eval_every": 1},
        ]
        cfg["seeds"] = [0]
        run_experiment(cfg)
        return out / "sgd_s0.csv"

    def test_threshold_above_initial_costs_zero(self, tmp_path):
        csv = self.make_csv(tmp_path)
        rows = cost_report([csv], tau=5.0, thresholds=[1e9])
        assert rows[0]["cost"] == 0.0

    def test_unreached_threshold(self, tmp_path):
        csv = self.make_csv(tmp_path)
        rows = cost_report([csv], tau=5.0, thresholds=[1e-30])
        assert rows[0]["cost"] is None
        assert "unreached" in format_cost_table(rows)

    def test_tau_zero_ranks_by_inner_steps(self, tmp_path):
        out = tmp_path / "out"
        cfg = small_config(out, T=10)
        cfg["seeds"] = [0]
        run_experiment(cfg)
        rows = cost_report(sorted(out.glob("s*_s0.csv")), tau=0.0, thresholds=[1e9])
        by_id = {r["run_id"]: r["cost"] for r in rows}
        assert by_id["sgd"] == 0.0  # parametric updates carry no inner cost
        assert by_id["sso-m3"] == 0.0  # threshold met at t=0


class TestConfigParsing:
    def test_nested_groups(self):
        spec = {
            "id": "x",
            "optimizer": "sso",
            "T": 5,
            "schedule": {"kind": "exponential", "eta0": 0.2, "beta": 1.0},
            "inner": {"solver": "armijo", "m": 7, "alpha": 2.0},
        }
        cfg = make_run_config(read_run(spec, "runs[0]"), stand_in_problem(10))
        assert cfg.schedule.kind == "exponential" and cfg.schedule.eta0 == 0.2
        assert cfg.inner.solver == "armijo" and cfg.inner.m == 7 and cfg.inner.alpha == 2.0
        assert cfg.seed == 0  # each pair derives its own

    @pytest.mark.parametrize("group,entry", [("inner", {"solver": "gd", "mm": 5}),
                                             ("schedule", {"kind": "constant", "bogus": 1})])
    def test_unknown_nested_key_rejected(self, group, entry):
        spec = {"id": "x", "optimizer": "sso", "T": 5, group: entry}
        bad = "mm" if group == "inner" else "bogus"
        with pytest.raises(ValueError, match=fr"'x': unknown key.*{bad}.* in runs\[0\]\.{group}$"):
            read_run(spec, "runs[0]")

    def test_unknown_nested_key_rejected_before_any_file(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["runs"][1]["inner"]["mm"] = 5
        with pytest.raises(ValueError, match="mm"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry,message", [
        ({"T": 6, "batchsize": 4}, r"'b': unknown key.*batchsize.* in runs\[1\]$"),
        ({"T": 3, "epochs": 2}, "'b':.*'T'.*'epochs'"),
        ({"T": 6, "optimizer": "bogus"}, r"'b': runs\[1\]\.optimizer must be one of .*, not 'bogus'"),
        ({"T": 6, "variant": "bogus"}, r"'b': runs\[1\]\.variant must be one of .*, not 'bogus'"),
        ({"T": 6, "inner": {"solver": "bogus"}},
         r"'b': runs\[1\]\.inner\.solver must be one of .*, not 'bogus'"),
        ({"T": 6, "inner": {"m_rule": "bogus"}},
         r"'b': runs\[1\]\.inner\.m_rule must be one of .*, not 'bogus'"),
        ({"T": 6, "schedule": {"kind": "bogus"}},
         r"'b': runs\[1\]\.schedule\.kind must be one of .*, not 'bogus'"),
        ({"T": 6, "sampling": "sometimes"},
         r"'b': runs\[1\]\.sampling must be one of .*, not 'sometimes'"),
        ({"T": 6, "step_size": 0.5}, r"'b': unknown key.*step_size.* in runs\[1\]$"),
        ({"T": 6, "adam_lr": 0.5}, r"'b': unknown key.*adam_lr.* in runs\[1\]$"),
        ({"T": 6, "adagrad_lr": 0.5}, r"'b': unknown key.*adagrad_lr.* in runs\[1\]$"),
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "armijo", "alpha0": 2.0}},
         r"'b': unknown key.*alpha0.* in runs\[1\]\.inner$"),
        ({"T": 6, "schedule": {"kind": "target-line-search"}},
         "'b': optimizer 'sgd' cannot follow schedule kind 'target-line-search'"),
        ({"T": 6, "optimizer": "adam", "schedule": {"kind": "sqrt-decay", "eta0": 0.5}},
         "'b': optimizer 'adam' cannot follow schedule kind 'sqrt-decay'"),
        ({"T": 6, "optimizer": "sso",
          "inner": {"solver": "exact", "alpha": 5.0, "m": 9}},
         "'b': inner solver 'exact' does not read 'inner.m'"),
        ({"T": 6, "variant": "newton", "inner": {"solver": "armijo", "m": 20},
          "svrg_snapshot_freq": 3},
         "'b': optimizer 'sgd' does not read 'variant'"),
        ({"T": 6, "inner": {"solver": "gd"}, "diagnostics": ["eps"]},
         "'b': optimizer 'sgd' does not read 'diagnostics'"),
        ({"T": 6, "optimizer": "adam", "inner": {"m": 5}},
         "'b': optimizer 'adam' does not read 'inner'"),
        ({"T": 6, "svrg_snapshot_freq": 3}, "'b': optimizer 'sgd' does not read 'svrg_snapshot_freq'"),
        ({"T": 6, "schedule": {"kind": "sqrt-decay", "beta": 2.0}},
         "'b': schedule kind 'sqrt-decay' does not read 'schedule.beta'"),
        # Value checks that need the dataset's n run on the loaded problem.
        ({"T": 0}, "'b': T must be an integer >= 1, not 0"),
        ({"T": 2.5}, r"'b': runs\[1\]\.T must be an integer or null, not 2\.5"),
        ({"epochs": 0}, "'b': T must be an integer >= 1, not 0"),
        ({"epochs": 2.5, "batch_size": 4},
         r"'b': runs\[1\]\.epochs must be an integer or null, not 2\.5"),
        ({"T": 6, "batch_size": 2.5},
         r"'b': runs\[1\]\.batch_size must be an integer or null, not 2\.5"),
        ({"epochs": 2, "batch_size": 0}, r"'b': batch size 0 outside \[1, 16\]"),
        ({"epochs": 2, "batch_size": "x"},
         r"'b': runs\[1\]\.batch_size must be an integer or null, not 'x'"),
        ({"T": 6, "batch_size": 17}, r"'b': batch size 17 outside \[1, 16\]"),
        ({"T": 6, "tau": -1}, "'b': tau must be >= 0"),
        ({"T": 6, "eval_every": 0}, "'b': eval_every must be >= 1"),
        ({"T": 6, "optimizer": "sso", "inner": {"m": 0}}, "'b': inner m must be an integer >= 1"),
        ({"T": 6, "optimizer": "sso", "inner": {"m": 2.5}},
         r"'b': runs\[1\]\.inner\.m must be an integer, not 2\.5"),
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "gd", "alpha": 0}},
         "'b': inner alpha must be positive"),
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "armijo", "alpha": -1.0}},
         "'b': inner alpha must be positive"),
        ({"T": 6, "optimizer": "svrg", "svrg_snapshot_freq": 0},
         "'b': svrg_snapshot_freq must be an integer >= 1, not 0"),
        ({"T": 6, "optimizer": "svrg", "svrg_snapshot_freq": -2},
         "'b': svrg_snapshot_freq must be an integer >= 1, not -2"),
        ({"T": 6, "optimizer": "sso", "diagnostics": ["eps", "nope"]},
         r"'b': runs\[1\]\.diagnostics\[1\] must be one of 'eps', 'zeta2', not 'nope'"),
        ({"T": 6, "optimizer": "sso", "inner": 5}, r"'b': runs\[1\]\.inner must be an object, not 5"),
        ({"T": 6, "schedule": "constant"},
         r"'b': runs\[1\]\.schedule must be an object, not 'constant'"),
        ({"T": 1, "schedule": {"kind": "exponential"}},
         "'b': exponential schedule needs horizon T >= 2"),
        ({"T": 6, "schedule": {"kind": "exponential", "beta": 6.0}},
         "'b': exponential schedule needs 0 < beta < T"),
        ({"T": 6, "schedule": {"kind": "exponential", "beta": -1.0}},
         "'b': exponential schedule needs 0 < beta < T"),
    ], ids=["unknown-key", "T-with-epochs", "optimizer", "variant", "inner-solver", "m-rule",
            "schedule-kind", "sampling", "step_size", "adam_lr", "adagrad_lr", "inner-alpha0",
            "sgd-target-line-search", "adam-sqrt-decay", "exact-ignores-inner",
            "sgd-ignores-variant", "sgd-ignores-diagnostics", "adam-ignores-inner",
            "sgd-ignores-snapshot-freq", "sqrt-decay-ignores-beta",
            "T-zero", "T-fraction", "epochs-zero", "epochs-fraction", "batch-fraction",
            "epochs-batch-zero", "epochs-batch-text", "batch-above-n", "negative-tau", "eval-every-zero",
            "inner-m-zero", "inner-m-fraction", "gd-alpha-zero", "armijo-alpha-negative",
            "snapshot-freq-zero", "snapshot-freq-negative", "unknown-diagnostic",
            "inner-number", "schedule-name", "exp-T1", "exp-beta-above-T", "exp-beta-negative"])
    def test_bad_run_entry_rejected_before_any_file(self, tmp_path, entry, message):
        cfg = small_config(tmp_path / "out")
        cfg["runs"].insert(1, {"id": "b", "optimizer": "sgd", **entry})
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_epochs_resolution(self):
        spec = read_run({"id": "e", "optimizer": "sgd", "epochs": 4, "batch_size": 3}, "runs[0]")
        cfg = make_run_config(spec, stand_in_problem(10))
        assert cfg.T == 4 * 4  # ceil(10/3) = 4 steps per epoch

    def test_presets_resolve(self):
        ps = presets()
        assert "mushrooms-logistic" in ps
        for name, cfg in ps.items():
            assert cfg["runs"], name
            # Every run entry must translate into a valid RunConfig that fits the problem.
            problem = stand_in_problem(1000, cfg["loss"], cfg.get("model", "linear"))
            for i, run_spec in enumerate(cfg["runs"]):
                make_run_config(read_run(run_spec, f"runs[{i}]"), problem)

    def test_mushrooms_preset_grid(self):
        runs = presets()["mushrooms-logistic"]["runs"]
        ids = {r["id"] for r in runs}
        for tag in ("25", "125", "625", "full"):
            assert f"sgd-b{tag}" in ids
            for m in (1, 5, 10, 20, 100):
                assert f"sso-m{m}-b{tag}" in ids

    def test_loss_spec_with_override(self, tmp_path):
        cfg = small_config(tmp_path / "out", T=3)
        cfg["loss"] = {"kind": "logistic", "smoothness": 2.0}
        cfg["dataset"]["synthetic"]["kind"] = "logistic"
        cfg["seeds"] = [0]
        cfg["runs"] = [{"id": "sso", "optimizer": "sso", "T": 3, "batch_size": 4,
                        "eval_every": 3, "inner": {"solver": "gd", "m": 2}}]
        assert run_experiment(cfg) == 0

    def test_mlp_model_through_config(self, tmp_path):
        cfg = small_config(tmp_path / "out", T=4)
        cfg["model"] = {"kind": "mlp", "hidden": 5}
        cfg["seeds"] = [0]
        cfg["runs"] = [{"id": "sso-mlp", "optimizer": "sso", "T": 4, "batch_size": None,
                        "eval_every": 1, "schedule": {"kind": "constant", "eta0": 1.0},
                        "inner": {"solver": "armijo", "m": 3}}]
        assert run_experiment(cfg) == 0
        rows = read_csv(tmp_path / "out" / "sso-mlp_s0.csv")
        losses = [float(r["loss"]) for r in rows]
        assert losses[-1] <= losses[0] + 1e-12

    def test_multiclass_kl_through_config(self, tmp_path):
        # Three-class LibSVM text driven end to end with the mirror variant.
        cfg = multiclass_config(tmp_path)
        assert run_experiment(cfg) == 0
        rows = read_csv(tmp_path / "out" / "mirror_s0.csv")
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])


# Runs in a fresh interpreter: the test process itself may have imported
# scipy.special (the kernel tests use it as their oracle).
NO_SPECIAL_SCRIPT = """
import json, sys
import targetopt, targetopt.cli
from targetopt import harness
for config in json.loads(sys.argv[1]):
    assert harness.run_experiment(config) == 0
assert "scipy.special" not in sys.modules, "scipy.special was imported"
"""


def test_no_run_imports_scipy_special(tmp_path):
    # The logistic runs reach expit through grads (SGD, every freeze) and
    # curvs (newton), the mirror run xlogy through both KL values.
    logistic = small_config(tmp_path / "logistic", T=4)
    logistic["loss"] = "logistic"
    logistic["dataset"]["synthetic"]["kind"] = "logistic"
    logistic["seeds"] = [0]
    logistic["runs"].append({"id": "sso-newton", "optimizer": "sso", "T": 4, "batch_size": 4,
                             "variant": "newton", "inner": {"solver": "armijo", "m": 2}})
    kl = multiclass_config(tmp_path)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", NO_SPECIAL_SCRIPT, json.dumps([logistic, kl])],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "logistic" / "sso-newton_s0.csv").exists()
    assert (tmp_path / "out" / "mirror_s0.csv").exists()


NO_SPARSE_SCRIPT = """
import json, sys
import targetopt, targetopt.cli
from targetopt import harness
from targetopt.data import SyntheticSpec, generate_synthetic, to_libsvm
for config in json.loads(sys.argv[1]):
    assert harness.run_experiment(config) == 0
a, b = (generate_synthetic(SyntheticSpec("least-squares", n=6, d=3, seed=s)) for s in (1, 2))
assert a.equal_to(a) and not a.equal_to(b)
assert to_libsvm(a).count("\\n") == 6
assert "scipy.sparse" not in sys.modules, "scipy.sparse was imported"
"""


def test_dense_runs_never_import_scipy_sparse(tmp_path):
    # A synthetic least-squares experiment, the same with max-abs scaling,
    # and a softmax-kl experiment on a LibSVM file that stores every entry,
    # hold no CSR matrix; nor does writing dense data as LibSVM text, as
    # `targetopt gen` does.
    ls = small_config(tmp_path / "ls", T=4)
    scaled = small_config(tmp_path / "scaled", T=4)
    scaled["dataset"]["normalize"] = True
    kl = multiclass_config(tmp_path)
    assert isinstance(parse_libsvm((tmp_path / "mc.libsvm").read_text()).X, np.ndarray)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", NO_SPARSE_SCRIPT, json.dumps([ls, scaled, kl])],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ls" / "sso-m3_s2.csv").exists()
    assert (tmp_path / "scaled" / "sso-m3_s2.csv").exists()
    assert (tmp_path / "out" / "mirror_s0.csv").exists()


CSR_SCRIPT = """
import json, sys
import numpy as np
from targetopt import harness, models
from targetopt.data import parse_libsvm
path, configs = sys.argv[1], json.loads(sys.argv[2])
X = parse_libsvm(open(path).read()).X
assert type(X) is models.CSR and X.nnz < X.shape[0] * X.shape[1]
for config in configs:
    assert harness.run_experiment(config) == 0
assert "scipy.sparse" not in sys.modules, "scipy.sparse was imported"
import scipy.sparse as sp
S = sp.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)
v = np.arange(X.shape[1], dtype=float)
assert np.array_equal(S @ v, models.row_product(X, v))
assert np.array_equal(S.toarray(), X.toarray())
assert sp._sparsetools.csr_matvec is models._sparsetools.csr_matvec
"""


def test_csr_runs_never_import_scipy_sparse(tmp_path):
    # A file that leaves entries out holds a models.CSR. SGD at its default
    # step reads row_norms2, an Armijo SSO run gathers and multiplies rows,
    # and an exact run forms its normal equations; once with max-abs
    # scaling. scipy.sparse still imports and works afterwards.
    data = tmp_path / "csr.libsvm"
    data.write_text("1 1:0.5 3:1\n-1 2:1\n0.5\n2 1:-1 2:0.25 3:2\n-0.5 3:-1\n1.5 1:2\n")
    runs = [{"id": "sgd", "optimizer": "sgd", "T": 6, "batch_size": 2},
            {"id": "armijo", "optimizer": "sso", "T": 6, "batch_size": 2,
             "inner": {"solver": "armijo", "m": 3}},
            {"id": "exact", "optimizer": "sso", "T": 6, "batch_size": 3,
             "inner": {"solver": "exact"}}]
    configs = [{"dataset": {"path": str(data), "normalize": scaled}, "loss": "squared",
                "runs": runs, "out_dir": str(tmp_path / f"out-{scaled}")} for scaled in (False, True)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", CSR_SCRIPT, str(data), json.dumps(configs)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    for scaled in (False, True):
        for run_id in ("sgd", "armijo", "exact"):
            assert (tmp_path / f"out-{scaled}" / f"{run_id}_s0.csv").exists()


class TestVerifySuite:
    def test_all_checks_pass(self):
        results = verify_suite()
        assert results and all(ok for _, ok, _ in results)


class TestCLI:
    def test_gen_round_trips(self, tmp_path, capsys):
        out = tmp_path / "ds.libsvm"
        status = cli.main(
            ["gen", "--kind", "least-squares", "--n", "12", "--d", "3",
             "--noise", "0.2", "--seed", "4", "--out", str(out)]
        )
        assert status == 0
        ds = parse_libsvm(out.read_text(), task="regression")
        assert ds.n == 12 and ds.d == 3

    def test_gen_writes_the_counterexample_without_size_flags(self, tmp_path, capsys):
        # The verb's --n 100 --d 10 defaults are for the kinds that read a
        # size; the counterexample instance fixes n = 2, d = 1.
        out = tmp_path / "cx.libsvm"
        assert cli.main(["gen", "--kind", "counterexample-quadratics", "--out", str(out)]) == 0
        assert out.read_text() == to_libsvm(generate_synthetic(SyntheticSpec("counterexample-quadratics")))
        for flags in (["--n", "3"], ["--d", "2"]):
            bad = tmp_path / "bad.libsvm"
            capsys.readouterr()
            assert cli.main(["gen", "--kind", "counterexample-quadratics", *flags, "--out", str(bad)]) == 2
            assert "counterexample-quadratics fixes n=2, d=1" in capsys.readouterr().err
            assert not bad.exists()
        assert cli.main(["gen", "--kind", "counterexample-quadratics", "--n", "2", "--d", "1",
                         "--out", str(out)]) == 0

    @pytest.mark.parametrize("synthetic, message", [
        ({"kind": "least-squares", "n": 0}, "dataset.synthetic.n must be positive, not 0"),
        ({"kind": "least-squares", "d": -2}, "dataset.synthetic.d must be positive, not -2"),
        ({"kind": "least-squares", "cond": 0.5}, "dataset.synthetic.cond must be >= 1, not 0.5"),
        ({"kind": "logistic", "noise": -1.0}, "dataset.synthetic.noise must be >= 0, not -1.0"),
        ({"kind": "counterexample-quadratics", "n": 3},
         "dataset.synthetic: counterexample-quadratics fixes n=2, d=1, not n=3, d=1"),
        ({"kind": "counterexample-quadratics", "cond": 50},
         "dataset.synthetic: synthetic kind 'counterexample-quadratics' does not read 'cond'; "
         "leave it out"),
        ({"kind": "interpolating", "noise": 0.5},
         "dataset.synthetic: interpolating instances require noise = 0"),
        ({"kind": "least-squares", "n": 2.5}, "dataset.synthetic.n must be an integer, not 2.5"),
    ], ids=["n-zero", "d-negative", "cond-below-one", "noise-negative", "counterexample-size",
            "counterexample-cond", "interpolating-noise", "n-fraction"])
    def test_synthetic_errors_name_their_path(self, tmp_path, capsys, synthetic, message):
        cfg = small_config(tmp_path / "out")
        cfg["dataset"] = {"synthetic": synthetic}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path / "out", T=4)))
        assert cli.main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
        csvs = sorted(str(p) for p in (tmp_path / "out").glob("sgd_s*.csv"))
        assert cli.main(["report", *csvs, "--tau", "2.0", "--thresholds", "1e9"]) == 0
        assert "sgd" in capsys.readouterr().out

    def test_verify_verb(self, capsys):
        assert cli.main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_list_presets(self, capsys):
        assert cli.main(["run", "--list-presets"]) == 0
        assert "mushrooms-logistic" in capsys.readouterr().out

    def test_run_needs_config(self, capsys):
        assert cli.main(["run"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--preset", "nope"], "error: unknown preset 'nope'; see --list-presets\n"),
        (["--config", "missing.json"],
         "error: [Errno 2] No such file or directory: 'missing.json'\n"),
        (["--config", "broken.json"], "error: config broken.json is not JSON: "),
        (["--config", "list.json"], "error: config list.json must be a JSON object, not list\n"),
        (["--config", "list.json", "--data", "x.libsvm"],
         "error: config list.json must be a JSON object, not list\n"),
        (["--preset", "interpolation", "--dim", "3"],
         "error: a synthetic dataset does not read 'd'; leave it out\n"),
        (["--preset", "interpolation", "--jobs", "0"],
         "error: jobs must be an integer >= 1, not 0\n"),
        (["--preset", "interpolation", "--jobs", "-4"],
         "error: jobs must be an integer >= 1, not -4\n"),
    ], ids=["unknown-preset", "missing-config", "malformed-config", "list-config",
            "list-config-with-data", "synthetic-preset-with-dim", "no-jobs", "negative-jobs"])
    def test_bad_config_source_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                 argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text("{not json")
        (tmp_path / "list.json").write_text("[]")
        assert cli.main(["run", *argv, "--out", "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_missing_preset_data_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--preset", "mushrooms-logistic", "--out", str(out)]) == 2
        missing = (tmp_path / "data" / "mushrooms").resolve()
        assert capsys.readouterr().err == f"error: dataset file {missing} does not exist\n"
        assert not out.exists()

    def test_too_small_dim_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "ls.libsvm"
        assert cli.main(["gen", "--n", "12", "--d", "3", "--seed", "4", "--out", str(data)]) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path / "out")))
        capsys.readouterr()
        argv = ["run", "--config", str(cfg_path), "--data", str(data), "--dim", "2"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: d override 2 smaller than max feature index 3\n"
        assert "FAILED" not in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("bad, message", [
        ({"id": "sgd", "optimizer": "adam", "T": 6}, "duplicate run id(s) ['sgd']"),
        pytest.param({"id": "x", "optimizer": "sgdd", "T": 6},
                     "runs[2].optimizer must be one of 'sso', 'sgd', 'sls', 'adam', 'adagrad', "
                     "'svrg', not 'sgdd'", id="unknown-optimizer"),
        pytest.param(1, "runs[2] must be an object, not 1", id="run-number"),
    ])
    def test_config_error_is_one_error_line(self, tmp_path, capsys, bad, message):
        cfg = small_config(tmp_path / "out")
        cfg["runs"].append(bad)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    # Each value has the wrong JSON type, or a required key is missing; the
    # error names the value's path. A run change applies to runs[1], the SSO run.
    @pytest.mark.parametrize("where, key, value, path", [
        ("run", "tau", "x", "runs[1].tau must be a number, not 'x'"),
        ("run", "eval_every", "2", "runs[1].eval_every must be an integer, not '2'"),
        ("run", "inner", {"alpha": "1"}, "runs[1].inner.alpha must be a number or null, not '1'"),
        ("run", "schedule", {"kind": "exponential", "beta": "x"},
         "runs[1].schedule.beta must be a number, not 'x'"),
        ("run", "diagnostics", 5, "runs[1].diagnostics must be a list, not 5"),
        ("run", "diagnostics", "eps", "runs[1].diagnostics must be a list, not 'eps'"),
        ("synthetic", "n", "20", "dataset.synthetic.n must be an integer, not '20'"),
        ("synthetic", "seed", 1.5, "dataset.synthetic.seed must be an integer, not 1.5"),
        ("config", "model", {"kind": "mlp", "hidden": "5"},
         "model.hidden must be an integer, not '5'"),
        ("config", "loss", None, "missing key(s) ['loss'] in the config"),
        ("config", "dataset", None, "missing key(s) ['dataset'] in the config"),
        ("config", "loss", {"smoothness": 2.0}, "missing key(s) ['kind'] in loss"),
        ("run", "id", 3, "runs[1].id must be a string or null, not 3"),
        ("run", "T", True, "runs[1].T must be an integer or null, not True"),
        ("run", "epochs", True, "runs[1].epochs must be an integer or null, not True"),
        ("run", "inner", {"m": True}, "runs[1].inner.m must be an integer, not True"),
        ("run", "svrg_snapshot_freq", True,
         "runs[1].svrg_snapshot_freq must be an integer or null, not True"),
        ("dataset", "normalize", "no", "dataset.normalize must be true or false, not 'no'"),
        ("config", "global_seed", "x", "global_seed must be an integer, not 'x'"),
        ("config", "seed", 3, "unknown key(s) ['seed'] in the config"),
        # Settings out of range, or that cannot run on the problem; an "mc-"
        # change applies to `multiclass_config` and its mirror run.
        ("config", "loss", {"kind": "squared", "smoothness": 0},
         "loss.smoothness must be positive, not 0"),
        ("config", "loss", {"kind": "squared", "smoothness": -1},
         "loss.smoothness must be positive, not -1"),
        ("mc-config", "expert_smoothing", 0.0, "expert_smoothing must lie in (0, 1), not 0.0"),
        ("mc-config", "expert_smoothing", 2.0, "expert_smoothing must lie in (0, 1), not 2.0"),
        ("config", "model", "mlp",
         "run 'sso-m3': inner solver 'gd' without inner.alpha needs a linear model"),
        ("run", "variant", "entropy-mirror",
         "inner solver 'gd' without inner.alpha needs a linear model and variant 'smoothness' "
         "or 'newton', not model 'linear' with variant 'entropy-mirror'"),
        ("mc-run", "inner", {"solver": "exact"},
         "run 'mirror': inner solver 'exact' needs a linear model"),
        ("mc-run", "inner", {"solver": "gd", "m": 5},
         "run 'mirror': inner solver 'gd' without inner.alpha needs a linear model"),
        ("mc-config", "model", "linear",
         "run 'mirror': variant 'entropy-mirror' needs model 'softmax-linear', not 'linear'"),
        ("mc-run", "variant", "newton",
         "run 'mirror': variant 'newton' needs a loss with curvature, not 'multiclass-kl'"),
        ("mc-run", "diagnostics", ["eps"],
         "run 'mirror': diagnostics need a linear model, not 'softmax-linear'"),
        # A model and a loss that cannot go together; "mc-sgd-config" is
        # `multiclass_config` with one SGD run in place of its mirror run.
        ("mc-sgd-config", "model", "linear",
         "loss 'multiclass-kl' needs model 'softmax-linear', not 'linear'"),
        ("mc-config", "loss", "squared",
         "model 'softmax-linear' needs loss 'multiclass-kl', not 'squared'"),
        # Every row of X is zero, so neither default SGD step exists: not
        # from the max row norm (b = 2) nor from the spectral norm (b = n = 3).
        ("zero-run", "batch_size", 2, "run 'sgd': the default step 1/(2 L_theta) needs a "
         "nonzero max row norm of X, and it is 0; set schedule.eta0"),
        ("zero-run", "batch_size", 3, "run 'sgd': the default step 1/(2 L_theta) needs a "
         "nonzero spectral norm of X, and it is 0; set schedule.eta0"),
        # A key that would change nothing, or a kind with a typo.
        ("config", "model", {"kind": "mpl", "hidden": 8},
         "model.kind must be one of 'linear', 'softmax-linear', 'mlp', not 'mpl'"),
        ("config", "loss", {"kind": "logistc"},
         "loss.kind must be one of 'squared', 'logistic', 'multiclass-kl', not 'logistc'"),
        ("config", "model", {"kind": "mlp", "seed": 3}, "unknown key(s) ['seed'] in model"),
        ("run", "record_theta", True, "run 'sso-m3': unknown key(s) ['record_theta'] in runs[1]"),
        ("dataset", "synthetic", {"kind": "counterexample-quadratics", "cond": 50},
         "synthetic kind 'counterexample-quadratics' does not read 'cond'; leave it out"),
    ], ids=["tau-text", "eval-every-text", "inner-alpha-text", "exp-beta-text",
            "diagnostics-number", "diagnostics-name", "synthetic-n-text", "synthetic-seed-fraction",
            "mlp-hidden-text", "no-loss", "no-dataset", "loss-without-kind", "id-number",
            "T-true", "epochs-true", "inner-m-true", "snapshot-freq-true",
            "normalize-text", "global-seed-text", "unknown-top-level-key",
            "smoothness-zero", "smoothness-negative", "expert-smoothing-zero",
            "expert-smoothing-two", "mlp-gd-without-alpha", "linear-mirror-gd-without-alpha",
            "softmax-exact", "softmax-gd-without-alpha", "linear-mirror", "newton-kl",
            "softmax-diagnostics", "kl-linear", "softmax-squared", "zero-rows-batch",
            "zero-rows-full", "model-kind-typo", "loss-kind-typo", "mlp-seed", "record-theta",
            "counterexample-cond"])
    def test_config_probe_is_one_error_line(self, tmp_path, capsys, where, key, value, path):
        if where == "zero-run":
            cfg = zero_rows_config(tmp_path)
            group = cfg["runs"][0]
        elif where.startswith("mc-"):
            cfg = multiclass_config(tmp_path)
            if where == "mc-sgd-config":
                cfg["runs"] = [{"id": "sgd", "optimizer": "sgd", "T": 4}]
            group = {"mc-run": cfg["runs"][0], "mc-config": cfg, "mc-sgd-config": cfg}[where]
        else:
            cfg = small_config(tmp_path / "out")
            group = {"run": cfg["runs"][1], "synthetic": cfg["dataset"]["synthetic"],
                     "dataset": cfg["dataset"], "config": cfg}[where]
        if value is None:
            del group[key]
        else:
            group[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["sgd_s0.csv", "--thresholds", "abc"],
         "error: could not convert string to float: 'abc'\n"),
        (["missing.csv"], "error: [Errno 2] No such file or directory: 'missing.csv'\n"),
        (["notes.csv"], "error: notes.csv is no run CSV: it has no column(s) "),
    ], ids=["bad-threshold", "missing-csv", "not-a-run-csv"])
    def test_bad_report_input_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                argv, message):
        monkeypatch.chdir(tmp_path)
        cfg = small_config(tmp_path, T=2)
        cfg["seeds"] = [0]
        assert run_experiment(cfg) == 0
        (tmp_path / "notes.csv").write_text("a,b\n1,2\n")
        capsys.readouterr()
        assert cli.main(["report", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0"], "error: n must be positive, not 0\n"),
        (["--kind", "interpolating", "--noise", "0.5"],
         "error: interpolating instances require noise = 0\n"),
        (["--out", "missing/ds.libsvm"],
         "error: [Errno 2] No such file or directory: 'missing/ds.libsvm'\n"),
    ], ids=["n-zero", "interpolating-noise", "out-in-missing-directory"])
    def test_bad_gen_input_is_one_error_line(self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen", "--out", "ds.libsvm", *argv]) == 2
        assert capsys.readouterr().err == message
        assert not any(tmp_path.iterdir())

    def test_gen_kinds_are_the_synthetic_kinds(self):
        sub = argparse.ArgumentParser().add_subparsers()
        cli._add_gen(sub)
        kind = next(a for a in sub.choices["gen"]._actions if a.dest == "kind")
        assert tuple(kind.choices) == get_args(SyntheticKind)

    def test_zeta2_on_a_zero_row_is_one_error_line(self, tmp_path, capsys):
        # A label-only line is a zero row, whose singleton surrogate has no
        # curvature for zeta2; the run is refused before any pair runs.
        data = tmp_path / "zero-row.libsvm"
        data.write_text("1 1:0.5 2:1\n-1 1:1\n0.5\n2 2:-1\n")
        cfg = {"dataset": {"path": str(data)}, "loss": "squared", "out_dir": str(tmp_path / "out"),
               "runs": [{"id": "sso", "optimizer": "sso", "T": 3, "batch_size": 2,
                         "inner": {"solver": "exact"}, "diagnostics": ["zeta2"]}]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: run 'sso': diagnostic 'zeta2' needs nonzero rows, and "
                                "row 2 (from 0) of the data is all zero\n")
        assert "FAILED" not in captured.out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model", ["mpl", {"kind": "mpl"}], ids=["shorthand", "object"])
    def test_unknown_model_kind_is_named_before_the_data_loads(self, tmp_path, capsys, model):
        cfg = small_config(tmp_path / "out")
        cfg["dataset"] = {"path": str(tmp_path / "missing.libsvm")}
        cfg["model"] = model
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "one of 'linear', 'softmax-linear', 'mlp', not 'mpl'" in err
        assert "missing.libsvm" not in err and err.count("\n") == 1

    def test_seed_flag_overrides_the_global_seed(self, tmp_path):
        # `run --seed 5` runs as the config with "global_seed": 5 does, and
        # the sidecar records the seed it ran at.
        cfg = small_config(tmp_path / "config-seed")
        cfg["global_seed"] = 5
        assert run_experiment(cfg) == 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_config(tmp_path / "unused")))
        assert cli.main(["run", "--config", str(cfg_path), "--seed", "5",
                         "--out", str(tmp_path / "flag-seed")]) == 0
        assert not (tmp_path / "unused").exists()
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "seed0")]) == 0
        for name in ("sgd_s1.csv", "sso-m3_s2.csv", "summary.csv"):
            text = {out: (tmp_path / out / name).read_text()
                    for out in ("flag-seed", "config-seed", "seed0")}
            if name != "summary.csv":
                text = {out: strip_wall(t) for out, t in text.items()}
            assert text["flag-seed"] == text["config-seed"] != text["seed0"]
        sidecar = json.loads((tmp_path / "flag-seed" / "sgd_s0.json").read_text())
        assert sidecar["experiment"]["global_seed"] == 5

    def test_misspelt_problem_key_is_one_error_line(self, tmp_path, capsys):
        cfg = small_config(tmp_path / "out")
        cfg["loss"] = {"kind": "squared", "smothness": 2.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown key(s) ['smothness'] in loss\n"
        assert not (tmp_path / "out").exists()

    def test_preset_from_generated_file_matches_synthetic(self, tmp_path):
        # The generated file stores every entry, so it loads as the same
        # dense X as the synthetic spec and the runs cannot tell them apart.
        spec = presets()["ill-conditioned-ls"]["dataset"]["synthetic"]
        data = tmp_path / "ls.libsvm"
        gen = ["gen", "--kind", spec["kind"], "--n", str(spec["n"]), "--d", str(spec["d"]),
               "--cond", str(spec["cond"]), "--seed", str(spec["seed"]), "--out", str(data)]
        assert cli.main(gen) == 0
        run = ["run", "--preset", "ill-conditioned-ls", "--out"]
        assert cli.main([*run, str(tmp_path / "synthetic")]) == 0
        assert cli.main([*run, str(tmp_path / "file"), "--data", str(data)]) == 0
        names = sorted(p.name for p in (tmp_path / "synthetic").glob("*.csv"))
        assert names == sorted(p.name for p in (tmp_path / "file").glob("*.csv"))
        assert len(names) == 3  # two runs and the summary
        for name in names:
            a = (tmp_path / "synthetic" / name).read_text()
            b = (tmp_path / "file" / name).read_text()
            assert a == b if name == "summary.csv" else strip_wall(a) == strip_wall(b)
