"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracer import Boundary, Installation, Span, Tracer, self_times  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 4.0, 0),  # overlaps a: covered time is the union [1, 4]
        Span("c", 6.0, 7.0, 0),
        Span("a.child", 1.5, 2.0, 1),
        Span("clipped", 9.5, 11.0, 0),  # only [9.5, 10] lies inside root
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 1 - 0.5, 1.5, 2.0, 1.0, 0.5, 1.5])


def test_tracer_nesting_from_open_close():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 9.0]))
    root = tracer.open("root", tag="run-a")
    child = tracer.open("child", inner=True)
    leaf = tracer.open("leaf")
    tracer.close(leaf, counts=3)
    tracer.close(child)
    tracer.close(root)
    spans = tracer.spans
    assert [s.parent for s in spans] == [-1, 0, 1]
    assert [s.tag for s in spans] == ["run-a"] * 3
    assert [s.inner for s in spans] == [False, True, True]
    assert spans[2].counts == 3
    assert self_times(spans) == pytest.approx([9 - 5, 5 - 3, 3])


def test_tracer_rejects_out_of_order_close():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0]))
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# ----------------------------------------------------------------------
# Wrapper install and removal
# ----------------------------------------------------------------------

def _fake_package():
    lib = types.ModuleType("lib")

    def solve(x):
        return x + 1

    def broken(x):
        raise ValueError("boom")

    class Model:
        def forward(self, x):
            return solve(x) * 2

    lib.solve, lib.broken, lib.Model = solve, broken, Model
    lib.REGISTRY = {"solve": solve}
    user = types.ModuleType("user")
    user.solve = solve  # imported by name
    return lib, user


def test_wrappers_patch_every_lookup_site_and_are_removed():
    lib, user = _fake_package()
    solve, forward = lib.solve, lib.Model.__dict__["forward"]
    tracer = Tracer()
    inst = Installation(
        tracer,
        [Boundary("lib.solve", (solve,), count=lambda a, k, r: r),
         Boundary("lib.forward", methods=((lib.Model, "forward"),))],
        [lib, user],
    )
    assert inst.installed()
    assert lib.solve is not solve and user.solve is lib.solve is lib.REGISTRY["solve"]
    assert user.solve(1) == 2 and lib.REGISTRY["solve"](2) == 3
    assert lib.Model().forward(3) == 8  # forward's own call to solve is not a lookup site
    inst.remove()
    assert lib.solve is solve and user.solve is solve and lib.REGISTRY["solve"] is solve
    assert lib.Model.__dict__["forward"] is forward
    assert [(s.name, s.counts) for s in tracer.spans] == [
        ("lib.solve", 2), ("lib.solve", 3), ("lib.forward", None)]


def test_wrapper_closes_span_when_call_raises():
    lib, user = _fake_package()
    tracer = Tracer()
    inst = Installation(tracer, [Boundary("lib.broken", (lib.broken,))], [lib])
    with pytest.raises(ValueError):
        lib.broken(1)
    inst.remove()
    assert len(tracer.spans) == 1 and tracer.spans[0].end >= tracer.spans[0].start
    assert tracer._stack == []


def test_function_without_lookup_site_is_refused():
    lib, user = _fake_package()
    solve = lib.solve

    def orphan():
        return None

    with pytest.raises(RuntimeError, match="no lookup site"):
        Installation(Tracer(), [Boundary("lib.solve", (lib.solve,)),
                                Boundary("orphan", (orphan,))], [lib])
    assert lib.solve is solve and lib.REGISTRY["solve"] is solve


def test_package_boundaries_take_effect_and_are_removed():
    import worker
    import targetopt
    from targetopt import optimizers, surrogates

    modules = worker.package_modules(targetopt)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    runners = dict(optimizers.RUNNERS)
    value = surrogates.Surrogate.__dict__["value"]
    tracer = Tracer()
    inst = Installation(tracer, worker.boundaries(targetopt), modules)
    assert inst.installed()
    assert optimizers.build_stochastic.__wrapped__ is before[("targetopt.surrogates", "build_stochastic")]
    assert all(optimizers.RUNNERS[k].__wrapped__ is runners[k] for k in runners)
    for name in ("armijo_backtracking", "gd_fixed", "exact_linear_solve", "target_line_search"):
        assert hasattr(getattr(optimizers, name), "__wrapped__"), name
    inst.remove()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert after == before
    assert optimizers.RUNNERS == runners
    assert surrogates.Surrogate.__dict__["value"] is value


# ----------------------------------------------------------------------
# Inputs and checks
# ----------------------------------------------------------------------

def _libsvm_sha(rows, y):
    text = workloads.libsvm_text(rows, ["+1" if v > 0 else "-1" for v in y])
    return hashlib.sha256(text.encode()).hexdigest()


def test_generators_are_byte_identical_for_a_fixed_seed(tmp_path):
    # (1000, 100, 20, 9) is the acceptance tests' stand-in and (30, 5, 3, 31)
    # the data of their multiclass mirror test.
    assert _libsvm_sha(*workloads.mushrooms_like(1000, 100, 20, 9)) == (
        "06e83d2502904de64ba422689151a79809b8abddccd67631d6b864f48f96182a")
    X, classes = workloads.multiclass_gaussian(30, 5, 3, 31)
    text = workloads.libsvm_text(X, [str(int(c)) for c in classes])
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "28f7b7f55eb67684b8ebe33085c4d29eafeb23308c773be88d5d3748f29cbe73")
    for name, w in workloads.WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        assert w.build(3, a)[1] == w.build(3, b)[1]


def test_generated_inputs_match_the_stored_reference(tmp_path):
    reference = json.loads((HERE / "reference.json").read_text())
    for name, w in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        assert w.build(0, tmp_path / name)[1] == reference[name]["0"]["inputs"], name


def test_time_to_loss_interpolates_between_rows():
    header = ",".join(workloads.CSV_HEADER)
    rows = [(0, 0.0, 1.0), (1, 10.0, 0.8), (2, 20.0, 0.4)]
    text = header + "\n" + "\n".join(
        f"r,0,{t},0,0,0,{w},0,{loss},0" for t, w, loss in rows) + "\n"
    assert workloads.time_to_loss_ms(text, 0.6) == pytest.approx(15.0)
    assert workloads.time_to_loss_ms(text, 1.0) == 0.0
    assert workloads.time_to_loss_ms(text, 0.1) is None
    assert "wall_ms" not in workloads.without_wall(text).splitlines()[0]


def test_benchmark_json_lists_the_reported_metrics(tmp_path):
    import run
    import worker

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    # Per-layer metrics of a traced repetition, plus those run.measure adds.
    config = workloads.WORKLOADS["dense-ls-b1"].build(0, tmp_path)[0]
    layers = worker.layer_metrics([], config, tmp_path)
    added = {"repo.src_lines", "trace.overhead_s", "trace.overhead_frac", "calibration.kernel_ms",
             "raw.oracle_calls_per_s", "raw.sso_inner_steps_per_s", "raw.sgd_steps_per_s",
             "raw.time_to_loss_s"}
    assert set(layers) | added == {name for name, _, _ in run.PER_LAYER}
    assert not set(layers) & added


def test_output_check_accepts_a_consistent_trace_and_flags_a_wrong_count():
    run = {"id": "sgd", "optimizer": "sgd", "batch_size": 4, "T": 3, "eval_every": 2}
    header = ",".join(workloads.CSV_HEADER)
    good = [(0, 0, "0", "0.5"), (2, 8, "0.1", "0.4"), (3, 12, "0.1", "0.3")]

    def csv(rows):
        return header + "\n" + "\n".join(
            f"sgd,1,{t},{calls},0,{calls},1.5,{eta},{loss},0.2" for t, calls, eta, loss in rows
        ) + "\n"

    ref = workloads.reference_entry(csv(good))
    assert workloads.check_pair(run, 1, csv(good), 20, 5, ref) == []
    bad = good[:2] + [(3, 13, "0.1", "0.3")]
    assert any("oracle_calls" in p for p in workloads.check_pair(run, 1, csv(bad), 20, 5, None))
    drifted = good[:2] + [(3, 12, "0.1", "0.30001")]
    assert any("reference" in p for p in workloads.check_pair(run, 1, csv(drifted), 20, 5, ref))
    assert workloads.check_pair(run, 1, csv(good[:2]), 20, 5, ref)  # a row is missing
