import json
import os
import re

import numpy as np
import pytest

from targetopt import cli
from targetopt.data import parse_libsvm
from targetopt.harness import (
    cost_report,
    derive_seed,
    format_cost_table,
    make_run_config,
    presets,
    read_csv,
    run_experiment,
    verify_suite,
)


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

    def test_env_var_overrides_out_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env-out"
        monkeypatch.setenv("TARGETOPT_OUT", str(target))
        run_experiment(small_config(tmp_path / "ignored"))
        assert (target / "summary.csv").exists()

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

    @pytest.mark.parametrize("key, value, message", [
        ("dataset", {"path": "broken.libsvm", "task": "binary"}, "line 1: bad label token 'not'"),
        ("loss", "hinge", "unknown loss kind 'hinge'"),
        ("model", "tree", "unknown model kind 'tree'"),
        ("dataset", {"synthetic": {"kind": "least-squares", "nn": 5}},
         "unknown synthetic key(s) ['nn']"),
        ("loss", "multiclass-kl", "loss 'multiclass-kl' needs a multiclass task, not 'regression'"),
        ("dataset", {"synthetic": {"kind": "least-squares"}, "normalise": True},
         "unknown dataset key(s) ['normalise']"),
        ("loss", {"kind": "squared", "smothness": 2.0}, "unknown loss key(s) ['smothness']"),
        ("model", {"kind": "mlp", "hiden": 5}, "unknown model key(s) ['hiden']"),
    ], ids=["malformed-data", "unknown-loss", "unknown-model", "synthetic-key", "kl-on-regression",
            "dataset-key", "loss-key", "model-key"])
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
    ], ids=["duplicate-seed", "no-seeds", "no-runs"])
    def test_bad_experiment_rejected_before_any_file(self, tmp_path, key, value, message):
        cfg = small_config(tmp_path / "out")
        cfg[key] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

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
        cfg = make_run_config(spec, n=10, seed=3)
        assert cfg.schedule.kind == "exponential" and cfg.schedule.eta0 == 0.2
        assert cfg.inner.solver == "armijo" and cfg.inner.m == 7 and cfg.inner.alpha == 2.0
        assert cfg.seed == 3

    @pytest.mark.parametrize("group,entry", [("inner", {"solver": "gd", "mm": 5}),
                                             ("schedule", {"kind": "constant", "bogus": 1})])
    def test_unknown_nested_key_rejected(self, group, entry):
        spec = {"id": "x", "optimizer": "sso", "T": 5, group: entry}
        bad = "mm" if group == "inner" else "bogus"
        with pytest.raises(ValueError, match=f"'x': unknown {group} key.*{bad}"):
            make_run_config(spec, n=10, seed=0)

    def test_unknown_nested_key_rejected_before_any_file(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        cfg["runs"][1]["inner"]["mm"] = 5
        with pytest.raises(ValueError, match="mm"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry,message", [
        ({"T": 6, "batchsize": 4}, "'b': unknown run key.*batchsize"),
        ({"T": 3, "epochs": 2}, "'b':.*'T'.*'epochs'"),
        ({"T": 6, "optimizer": "bogus"}, "'b': unknown optimizer 'bogus'"),
        ({"T": 6, "variant": "bogus"}, "'b': unknown surrogate variant 'bogus'"),
        ({"T": 6, "inner": {"solver": "bogus"}}, "'b': unknown inner solver 'bogus'"),
        ({"T": 6, "inner": {"m_rule": "bogus"}}, "'b': unknown inner m_rule 'bogus'"),
        ({"T": 6, "schedule": {"kind": "bogus"}}, "'b': unknown schedule kind 'bogus'"),
        ({"T": 6, "sampling": "sometimes"}, "'b': unknown sampling mode 'sometimes'"),
        ({"T": 6, "step_size": 0.5}, "'b': unknown run key.*step_size"),
        ({"T": 6, "adam_lr": 0.5}, "'b': unknown run key.*adam_lr"),
        ({"T": 6, "adagrad_lr": 0.5}, "'b': unknown run key.*adagrad_lr"),
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "armijo", "alpha0": 2.0}},
         "'b': unknown inner key.*alpha0"),
        ({"T": 6, "schedule": {"kind": "target-line-search"}},
         "'b': optimizer 'sgd' cannot follow schedule kind 'target-line-search'"),
        ({"T": 6, "optimizer": "adam", "schedule": {"kind": "sqrt-decay", "eta0": 0.5}},
         "'b': optimizer 'adam' cannot follow schedule kind 'sqrt-decay'"),
        ({"T": 6, "optimizer": "sso",
          "inner": {"solver": "exact", "alpha": 5.0, "m": 9, "growth": 3.0}},
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
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "gd", "warm_start": True}},
         "'b': inner solver 'gd' does not read 'inner.warm_start'"),
        # Value checks that need the dataset's n run on the loaded problem.
        ({"T": 0}, "'b': T must be an integer >= 1, not 0"),
        ({"T": 2.5}, "'b': T must be an integer >= 1, not 2.5"),
        ({"epochs": 0}, "'b': T must be an integer >= 1, not 0"),
        ({"T": 6, "batch_size": 17}, r"'b': batch size 17 outside \[1, 16\]"),
        ({"T": 6, "tau": -1}, "'b': tau must be >= 0"),
        ({"T": 6, "eval_every": 0}, "'b': eval_every must be >= 1"),
        ({"T": 6, "optimizer": "sso", "inner": {"m": 0}}, "'b': inner m must be an integer >= 1"),
        ({"T": 6, "optimizer": "sso", "inner": {"m": 2.5}},
         "'b': inner m must be an integer >= 1, not 2.5"),
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "gd", "alpha": 0}},
         "'b': inner alpha must be positive"),
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "armijo", "alpha": -1.0}},
         "'b': inner alpha must be positive"),
        ({"T": 6, "optimizer": "sso", "inner": {"solver": "armijo", "growth": 0}},
         "'b': inner growth must be positive"),
        ({"T": 6, "optimizer": "svrg", "svrg_snapshot_freq": 0},
         "'b': svrg_snapshot_freq must be an integer >= 1, not 0"),
        ({"T": 6, "optimizer": "svrg", "svrg_snapshot_freq": -2},
         "'b': svrg_snapshot_freq must be an integer >= 1, not -2"),
        ({"T": 6, "optimizer": "sso", "diagnostics": ["eps", "nope"]},
         "'b': unknown diagnostic 'nope'"),
    ], ids=["unknown-key", "T-with-epochs", "optimizer", "variant", "inner-solver", "m-rule",
            "schedule-kind", "sampling", "step_size", "adam_lr", "adagrad_lr", "inner-alpha0",
            "sgd-target-line-search", "adam-sqrt-decay", "exact-ignores-inner",
            "sgd-ignores-variant", "sgd-ignores-diagnostics", "adam-ignores-inner",
            "sgd-ignores-snapshot-freq", "sqrt-decay-ignores-beta", "gd-ignores-warm-start",
            "T-zero", "T-fraction", "epochs-zero", "batch-above-n", "negative-tau", "eval-every-zero",
            "inner-m-zero", "inner-m-fraction", "gd-alpha-zero", "armijo-alpha-negative",
            "growth-zero", "snapshot-freq-zero", "snapshot-freq-negative", "unknown-diagnostic"])
    def test_bad_run_entry_rejected_before_any_file(self, tmp_path, entry, message):
        cfg = small_config(tmp_path / "out")
        cfg["runs"].insert(1, {"id": "b", "optimizer": "sgd", **entry})
        with pytest.raises(ValueError, match=message):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    def test_epochs_resolution(self):
        cfg = make_run_config(
            {"id": "e", "optimizer": "sgd", "epochs": 4, "batch_size": 3}, n=10, seed=0
        )
        assert cfg.T == 4 * 4  # ceil(10/3) = 4 steps per epoch

    def test_presets_resolve(self):
        ps = presets()
        assert "mushrooms-logistic" in ps
        for name, cfg in ps.items():
            assert cfg["runs"], name
            # Every run entry must translate into a valid RunConfig.
            for run_spec in cfg["runs"]:
                rc = make_run_config(run_spec, n=1000, seed=0)
                rc.validate(1000)

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
        cfg["model"] = {"kind": "mlp", "hidden": 5, "seed": 3}
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
        cfg = {
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
        assert run_experiment(cfg) == 0
        rows = read_csv(tmp_path / "out" / "mirror_s0.csv")
        assert float(rows[-1]["loss"]) < float(rows[0]["loss"])


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
    ], ids=["unknown-preset", "missing-config", "malformed-config"])
    def test_bad_config_source_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                 argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "broken.json").write_text("{not json")
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
        ({"id": "x", "optimizer": "sgdd", "T": 6}, "unknown optimizer 'sgdd'"),
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

    def test_misspelt_problem_key_is_one_error_line(self, tmp_path, capsys):
        cfg = small_config(tmp_path / "out")
        cfg["loss"] = {"kind": "squared", "smothness": 2.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: unknown loss key(s) ['smothness']\n"
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
