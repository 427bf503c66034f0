"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py -q"""

import dataclasses
import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.environ["PB_THREADS"] = "1"
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import polygam  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, TracerError, roots, self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def test_workload_lists_agree():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


def tiny(name, seed=3, rows=1500, iterations=4):
    """The named workload cut to a few rows and iterations."""
    w = workloads.WORKLOADS[name](seed)
    n = min(rows, w.X.shape[0])
    return dataclasses.replace(
        w, X=w.X[:n], y=w.y[:n], folds=workloads.folds(n, seed, min(len(w.folds), 5)),
        X_score=w.X_score[:n], iterations=iterations,
    )


def run_tiny(name, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = harness.run_workload(tiny(name), 3, 0.0, trace)
    detail, result = (json.loads(line) for line in out.getvalue().splitlines()[-2:])
    return code, detail, result


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric(name, trace):
    code, detail, result = run_tiny(name, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert np.isfinite(m["value"])
    assert len(detail["model_sha256"]) == 64
    for key in ("nproc", "python", "numpy", "blas", "thread_cap", "seed", "git_commit"):
        assert key in detail["env"]
    assert detail["env"]["thread_cap"]["PB_THREADS"] == "1"


def test_constrained_workload_runs_its_constraint_checks():
    _, detail, _ = run_tiny("choice_monotone", False)
    checks = detail["checks"]
    assert checks["fit.masked_blocks_zero"] == [1, 1]
    for i in range(4):
        assert checks[f"fit.monotone_cost_{i}"] == [1, 1]


def test_repeat_runs_give_identical_models():
    shas = {run_tiny("housing", False)[1]["model_sha256"] for _ in range(2)}
    assert len(shas) == 1


def test_pacer_scales_by_the_mean_reference_on_either_side():
    refs = [(1e-3, 0.4e-3), (3e-3, 0.2e-3), (0.5e-3, 0.1e-3)]
    pacer = harness.Pacer(clock=iter(refs).__next__)
    assert pacer.factor() == pytest.approx(
        (harness.REFERENCE_S / 2e-3, harness.REFERENCE_JSON_S / 0.3e-3))
    assert pacer.factor() == pytest.approx(
        (harness.REFERENCE_S / 1.75e-3, harness.REFERENCE_JSON_S / 0.15e-3))
    assert pacer.times == refs


def test_self_time_subtracts_union_of_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 4.0, 0],  # overlaps a: [1, 4] is covered once
        ["c", 6.0, 7.0, 0],
        ["d", 6.25, 6.5, 3],  # grandchild: counts against c, not outer
    ]
    assert self_times(spans) == [6.0, 2.0, 2.0, 0.75, 0.25]
    assert roots(spans) == [0, 0, 0, 0, 0]


def test_self_time_of_real_nested_calls():
    tracer = Tracer()
    inner = tracer.wrap(lambda n: sum(range(n)), "inner")
    outer = tracer.wrap(lambda: inner(20000) + inner(30000), "outer")
    outer()
    spans = tracer.spans
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    dur = [end - start for _, start, end, _ in spans]
    assert self_times(spans)[0] == pytest.approx(dur[0] - dur[1] - dur[2], abs=1e-12)
    assert self_times(spans)[0] >= 0.0


def test_wrappers_are_restored_even_after_an_error():
    targets = harness.trace_targets(polygam)
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    tracer = Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed(targets):
            assert all(vars(o)[a] is not f for (o, a, _), f in zip(targets, before))
            1 / 0
    assert all(vars(o)[a] is f for (o, a, _), f in zip(targets, before))


def test_missing_name_fails_before_rebinding_anything():
    targets = harness.trace_targets(polygam)
    before = [vars(owner)[attr] for owner, attr, _ in targets]
    bogus = targets + [(polygam.booster, "no_such_function", "booster.none")]
    with pytest.raises(TracerError, match="no_such_function"):
        with Tracer().installed(bogus):
            pass
    assert all(vars(o)[a] is f for (o, a, _), f in zip(targets, before))


def test_choice_generator_matches_acceptance_suite():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        from test_acceptance import choice_dataset
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    ds = choice_dataset(808)
    X, y, names = workloads.choice_arrays(808)
    assert np.array_equal(X, ds.X) and np.array_equal(y, ds.y) and names == ds.feature_names


def test_housing_default_seed_reproduces_committed_csv():
    X, y, names = workloads.housing_arrays(1913)
    csv = np.genfromtxt(os.path.join(ROOT, "tests", "data", "housing.csv"),
                        delimiter=",", skip_header=1)
    assert np.array_equal(X, csv[:, :-1]) and np.array_equal(y, csv[:, -1])
    assert len(names) == 13


def test_folds_are_70_10_20_with_disjoint_test_sets():
    folds = workloads.folds(506, 0, 5)
    tests = np.concatenate([te for _, _, te in folds])
    assert np.array_equal(np.sort(tests), np.arange(506))
    for tr, va, te in folds:
        assert np.intersect1d(tr, va).size == np.intersect1d(tr, te).size == 0
        assert tr.size + va.size + te.size == 506
        assert abs(tr.size - 354) <= 2 and abs(va.size - 51) <= 1 and abs(te.size - 101) <= 1
