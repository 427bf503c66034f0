"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL: <summary>` so the run can be
audited from the pytest output alone. Runtime budgets are asserted with
wall-clock measurements of the budgeted work.
"""

import json
import math
import time

import numpy as np
import pytest

from polygam.booster import TrainConfig, train, write_log
from polygam.data import SplitScheme, build_bin_layout, load_csv, split_indices
from polygam.losses import derivatives, link_apply, loss_eval
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    dumps_model,
    evaluate_derivative,
    knot_gaps,
    load_model,
    predict,
    save_model,
)
from polygam.uncertainty import attach_se_accumulators, shape_ci

from conftest import make_dataset
from oracles import brute_force_stump, tree_list_eval


def report(n, ok, summary):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, f"criterion {n}: {summary}"


def no_validation(**kw):
    kw.setdefault("early_stopping_patience", 0)
    kw.setdefault("validation_fraction", 0.0)
    return TrainConfig(**kw)


# ---------------------------------------------------------------------------
# 1. oracle equivalence of the first-iteration split search


def test_criterion_1_stump_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_gamma = 0.0
    mismatches = []
    for trial in range(50):
        n = int(rng.integers(10, 101))
        x = rng.normal(scale=rng.uniform(0.5, 3.0), size=n)
        y = rng.normal(size=n) + np.where(x > rng.normal(), rng.uniform(-2, 2), 0.0)
        ds = make_dataset(x, y)
        layout = build_bin_layout(ds)
        spec = ConstraintSpec.default(ds, smoothness=-1, max_degree=0)
        cfg = no_validation(
            learning_rate=1.0, l1=0.0, l2=0.0, min_data_in_leaf=1, max_iterations=1
        )
        res = train(ds, layout, spec, cfg)
        b = derivatives("regression", ds.y, np.full((n, 1), ds.y.mean()))
        oracle = brute_force_stump(
            x, b.g[:, 0], b.h[:, 0], layout[0].fine_edges, 0.0, 0.0, 1
        )
        if oracle is None:
            if res.log:
                mismatches.append((trial, "booster split where oracle found none"))
            continue
        if not res.log:
            mismatches.append((trial, "booster found no split"))
            continue
        rec = res.log[0]
        if rec.threshold != oracle[0]:
            mismatches.append((trial, f"threshold {rec.threshold} != {oracle[0]}"))
            continue
        dg = max(abs(rec.gamma_left - oracle[1]), abs(rec.gamma_right - oracle[2]))
        worst_gamma = max(worst_gamma, dg)
        if dg > 1e-10:
            mismatches.append((trial, f"gamma diff {dg}"))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 10.0
    report(
        1,
        ok,
        f"50 random stump searches: {len(mismatches)} mismatches, "
        f"max |gamma| diff {worst_gamma:.2e}, {elapsed:.1f}s (budget 10s)"
        + (f"; first: {mismatches[0]}" if mismatches else ""),
    )


# ---------------------------------------------------------------------------
# 2. analytic derivatives vs central finite differences


def test_criterion_2_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(202)
    delta = 1e-4
    worst = 0.0
    for trial in range(1000):
        task = ("regression", "binary", "multiclass")[trial % 3]
        n_outputs = 1 if task != "multiclass" else int(rng.integers(2, 5))
        if task == "regression":
            y = rng.normal(size=1)
        elif task == "binary":
            y = rng.integers(0, 2, size=1)
        else:
            y = rng.integers(0, n_outputs, size=1)
        F = rng.uniform(-4.0, 4.0, size=(1, n_outputs))
        b = derivatives(task, y, F)
        for j in range(n_outputs):
            hi = F.copy()
            lo = F.copy()
            hi[0, j] += delta
            lo[0, j] -= delta
            lp = loss_eval(task, y, hi)
            lm = loss_eval(task, y, lo)
            l0 = loss_eval(task, y, F)
            fd_g = (lp - lm) / (2 * delta)
            fd_h = (lp - 2 * l0 + lm) / (delta * delta)
            # gradcheck normalization: near-zero derivatives compare
            # absolutely, since the FD estimator itself carries an absolute
            # noise floor of eps*|loss|/delta^2
            rel_g = abs(fd_g - b.g[0, j]) / max(1.0, abs(b.g[0, j]))
            rel_h = abs(fd_h - b.h[0, j]) / max(1.0, abs(b.h[0, j]))
            worst = max(worst, rel_g, rel_h)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    report(
        2,
        ok,
        f"1000 triples over F in [-4, 4], worst error {worst:.2e} of "
        f"max(1, |analytic|) (tol 1e-5), {elapsed:.1f}s (budget 5s)",
    )


# ---------------------------------------------------------------------------
# 3. continuity ladder


def cubic_dataset(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 3))
    y = (
        0.8 * X[:, 0] ** 3
        - 1.2 * X[:, 1] ** 2
        + 2.0 * X[:, 2]
        + rng.normal(scale=0.3, size=n)
    )
    return make_dataset(X, y)


def test_criterion_3_continuity_ladder():
    t0 = time.time()
    ds = cubic_dataset(2000, 303)
    rows = []
    worst = {0: 0.0, 1: 0.0, 2: 0.0}
    for s in (0, 1, 2):
        spec = ConstraintSpec.default(ds, smoothness=s, max_degree=3)
        cfg = no_validation(max_iterations=400)
        res = train(ds, constraints=spec, config=cfg)
        for k in range(3):
            for order in range(s + 1):
                g = np.abs(knot_gaps(res.store, 0, k, order))
                gap = float(g.max()) if g.size else 0.0
                worst[order] = max(worst[order], gap)
                if gap > 1e-8:
                    rows.append((s, k, order, gap))
    elapsed = time.time() - t0
    ok = not rows and elapsed < 120.0
    report(
        3,
        ok,
        f"S in {{0,1,2}}: max knot gaps f={worst[0]:.1e} f'={worst[1]:.1e} "
        f"f''={worst[2]:.1e} (tol 1e-8), {elapsed:.1f}s (budget 120s)"
        + (f"; violations: {rows[:3]}" if rows else ""),
    )


# ---------------------------------------------------------------------------
# 4. monotonicity + curvature on a cost-like feature


def test_criterion_4_monotone_curvature_throughout_training():
    t0 = time.time()
    rng = np.random.default_rng(404)
    n = 1500
    x = rng.uniform(0.0, 3.0, n)
    y = 2.0 / (0.5 + x) + rng.normal(scale=0.1, size=n)
    ds = make_dataset(x, y)
    spec = ConstraintSpec.default(
        ds,
        overrides={
            "x0": FeatureConstraint(monotone=-1, curvature=1, smoothness=1, max_degree=3)
        },
    )
    cfg = no_validation(max_iterations=400)
    res = train(ds, constraints=spec, config=cfg)
    grid = np.linspace(x.min(), x.max(), 10_000)
    checkpoints = list(range(50, res.n_iterations + 1, 50))
    if res.n_iterations not in checkpoints:
        checkpoints.append(res.n_iterations)
    worst_m = math.inf
    worst_c = math.inf
    for it in checkpoints:
        state = res.replay_to(it)
        worst_m = min(worst_m, float((-evaluate_derivative(state, 0, 0, grid, 1)).min()))
        worst_c = min(worst_c, float(evaluate_derivative(state, 0, 0, grid, 2).min()))
    elapsed = time.time() - t0
    ok = worst_m >= -1e-9 and worst_c >= -1e-9 and elapsed < 120.0
    report(
        4,
        ok,
        f"{len(checkpoints)} checkpoints x 1e4-point grid: min -f' = {worst_m:.2e}, "
        f"min f'' = {worst_c:.2e} (tol -1e-9), {elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------------------
# 5. output-specific masking


def test_criterion_5_output_masking():
    t0 = time.time()
    rng = np.random.default_rng(505)
    n = 3000
    X = rng.uniform(-1, 1, size=(n, 3))
    logits = np.column_stack(
        [1.5 * X[:, 0], -2.0 * X[:, 1], 1.0 * X[:, 2] ** 2]
    )
    probs = link_apply("multiclass", logits)
    y = (rng.uniform(size=n)[:, None] < probs.cumsum(axis=1)).argmax(axis=1)
    ds = make_dataset(X, y, task="multiclass")
    spec = ConstraintSpec.default(ds, outputs_for={"x0": [0], "x1": [1], "x2": [2]})
    cfg = no_validation(max_iterations=300)
    res = train(ds, constraints=spec, config=cfg)

    dirty = []
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            sp = res.store.params[i][k]
            if sp.step_values.any() or sp.poly_coeffs.any():
                dirty.append((i, k))
    base = predict(res.store, X)
    bit_identical = True
    for k in range(3):
        X2 = X.copy()
        X2[:, k] = rng.uniform(-1, 1, n)
        bumped = predict(res.store, X2)
        for i in range(3):
            if i == k:
                continue
            if not np.array_equal(base[:, i], bumped[:, i]):
                bit_identical = False
    elapsed = time.time() - t0
    ok = not dirty and bit_identical and elapsed < 60.0
    report(
        5,
        ok,
        f"masked blocks nonzero: {dirty or 'none'}; unmasked outputs bit-identical "
        f"under masked-feature perturbation: {bit_identical}; "
        f"{elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 6. tree-sum equivalence against the shadow tree list


def test_criterion_6_tree_sum_equivalence(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(606)
    n = 2500
    X = rng.uniform(-2, 2, size=(n, 2))
    y = np.sin(2 * X[:, 0]) + 0.3 * X[:, 1] ** 3 + rng.normal(scale=0.2, size=n)
    ds = make_dataset(X, y)
    spec = ConstraintSpec.default(ds, smoothness=0, max_degree=3)
    cfg = no_validation(max_iterations=500)
    res = train(ds, constraints=spec, config=cfg)
    n_applied = len(res.log)

    # shadow evaluation reads the written NDJSON log, not booster structures
    log_path = tmp_path / "log.ndjson"
    write_log(res.log, log_path)
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    x_ref = [res.store.layout[k].x_min for k in range(2)]

    pts = rng.uniform(-2, 2, size=(1000, 2))
    F_store = predict(res.store, pts)
    F_trees = tree_list_eval(
        pts, ds.feature_names, res.store.intercepts, records, cfg.learning_rate, x_ref
    )
    rel = np.abs(F_store - F_trees) / np.maximum(np.abs(F_store), 1e-12)
    worst = float(rel.max())
    elapsed = time.time() - t0
    ok = res.n_iterations == 500 and worst <= 1e-9 and elapsed < 60.0
    report(
        6,
        ok,
        f"{res.n_iterations} iterations ({n_applied} updates), 1000 points: "
        f"max relative gap {worst:.2e} (tol 1e-9), {elapsed:.1f}s (budget 60s)",
    )


# ---------------------------------------------------------------------------
# 7. housing error bound at default hyperparameters


def test_criterion_7_housing_mse(housing_csv):
    t0 = time.time()
    ds = load_csv(housing_csv, target="medv", task="regression")
    mses = []
    for seed in range(10):
        tr, va, te = split_indices(ds.n_rows, (0.7, 0.1, 0.2), seed=seed)
        ds_tr, ds_va, ds_te = ds.subset(tr), ds.subset(va), ds.subset(te)
        layout = build_bin_layout(ds_tr, SplitScheme(256, 20))
        cfg = TrainConfig(
            learning_rate=0.1,
            l1=0.001,
            l2=0.01,
            min_data_in_leaf=10,
            max_iterations=25000,
            early_stopping_patience=100,
            validation_fraction=0.0,
            seed=seed,
        )
        res = train(ds_tr, layout=layout, config=cfg, valid=ds_va)
        mse = loss_eval("regression", ds_te.y, predict(res.store, ds_te.X))
        mses.append(mse)
    mean_mse = float(np.mean(mses))
    elapsed = time.time() - t0
    ok = mean_mse <= 21.9 and elapsed < 600.0
    report(
        7,
        ok,
        f"10 seeded 70/10/20 splits, default hyperparameters: mean test MSE {mean_mse:.3f} "
        f"(bound 21.9, per-seed sd {np.std(mses):.2f}), {elapsed:.0f}s (budget 600s)",
    )


# ---------------------------------------------------------------------------
# 8. constraint trade-off on a multinomial-choice dataset


def choice_dataset(seed):
    """Four alternatives; each utility decreases in its own cost feature."""
    rng = np.random.default_rng(seed)
    n = 20000
    cost = rng.uniform(0.0, 2.0, size=(n, 4))
    context = rng.uniform(-1.0, 1.0, size=n)
    beta = (-2.2, -1.6, -2.8, -1.2)
    bias = (0.4, 0.0, 0.8, -0.2)
    ctx = (0.5, -0.5, 0.3, 0.0)
    V = np.column_stack(
        [bias[i] + beta[i] * cost[:, i] + ctx[i] * context for i in range(4)]
    )
    probs = link_apply("multiclass", V)
    y = (rng.uniform(size=n)[:, None] < probs.cumsum(axis=1)).argmax(axis=1)
    X = np.column_stack([cost, context])
    names = ["cost_0", "cost_1", "cost_2", "cost_3", "context"]
    return make_dataset(X, y, task="multiclass", names=names)


def test_criterion_8_constraint_tradeoff():
    t0 = time.time()
    ds = choice_dataset(808)
    tr, va, te = split_indices(ds.n_rows, (0.7, 0.1, 0.2), seed=0, labels=ds.y)
    ds_tr, ds_va, ds_te = ds.subset(tr), ds.subset(va), ds.subset(te)
    layout = build_bin_layout(ds_tr)
    cap = 1200
    cfg = no_validation(max_iterations=cap, early_stopping_patience=100)

    free_spec = ConstraintSpec.default(ds_tr)
    res_free = train(ds_tr, layout, free_spec, cfg, valid=ds_va)
    cel_free = loss_eval("multiclass", ds_te.y, predict(res_free.store, ds_te.X))

    overrides = {
        f"cost_{i}": FeatureConstraint(monotone=-1, smoothness=1, max_degree=2)
        for i in range(4)
    }
    outputs_for = {f"cost_{i}": [i] for i in range(4)}
    con_spec = ConstraintSpec.default(
        ds_tr, smoothness=1, max_degree=2, overrides=overrides, outputs_for=outputs_for
    )
    res_con = train(ds_tr, layout, con_spec, cfg, valid=ds_va)
    cel_con = loss_eval("multiclass", ds_te.y, predict(res_con.store, ds_te.X))

    ratio = cel_con / cel_free
    elapsed = time.time() - t0
    ok = ratio <= 1.05 and elapsed < 600.0
    report(
        8,
        ok,
        f"test CEL unconstrained {cel_free:.4f} vs fully constrained {cel_con:.4f} "
        f"(ratio {ratio:.4f}, bound 1.05; iteration cap {cap} both), "
        f"{elapsed:.0f}s (budget 600s)",
    )


# ---------------------------------------------------------------------------
# 9. confidence-interval coverage on linear-Gaussian data


def test_criterion_9_ci_coverage():
    t0 = time.time()
    a, bslope, sigma = 1.0, 2.0, 1.0
    n = 5000
    covered = 0
    total = 0
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        x = rng.uniform(0.0, 1.0, n)
        y = a + bslope * x + rng.normal(scale=sigma, size=n)
        ds = make_dataset(x, y)
        spec = ConstraintSpec.default(ds, smoothness=0, max_degree=1)
        cfg = no_validation(max_iterations=400)
        res = train(ds, constraints=spec, config=cfg)
        attach_se_accumulators(res.store, ds.X)
        grid = np.linspace(x.min() + 1e-9, x.max() - 1e-9, 200)
        f, lo, hi = shape_ci(res.store, 0, 0, grid)
        intercept = res.store.intercepts[0]
        truth = a + bslope * grid  # compare on the prediction scale
        covered += int(np.sum((intercept + lo <= truth) & (truth <= intercept + hi)))
        total += grid.size
    coverage = covered / total
    elapsed = time.time() - t0
    ok = coverage >= 0.80 and elapsed < 300.0
    report(
        9,
        ok,
        f"pooled 95% band coverage of the true line over 10 runs x 200 grid "
        f"points: {coverage:.3f} (floor 0.80), {elapsed:.0f}s (budget 300s)",
    )


# ---------------------------------------------------------------------------
# 10. determinism and round-trip


def test_criterion_10_determinism_and_round_trip(tmp_path):
    t0 = time.time()
    rng = np.random.default_rng(1010)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = X[:, 0] ** 2 - X[:, 1] + rng.normal(scale=0.1, size=400)
    ds = make_dataset(X, y)
    cfg = TrainConfig(max_iterations=150, early_stopping_patience=20, seed=7)

    dumps = []
    logs = []
    for run in range(2):
        res = train(ds, config=cfg)
        dumps.append(dumps_model(res.store))
        logs.append("\n".join(r.to_json() for r in res.log))
    identical = dumps[0] == dumps[1] and logs[0] == logs[1]

    p1 = tmp_path / "m1.json"
    p2 = tmp_path / "m2.json"
    save_model(res.store, p1)
    loaded = load_model(p1)
    pts = rng.uniform(-1.5, 1.5, size=(100, 2))
    exact = np.array_equal(predict(res.store, pts), predict(loaded, pts))
    save_model(loaded, p2)
    files_equal = p1.read_bytes() == p2.read_bytes()
    elapsed = time.time() - t0
    ok = identical and exact and files_equal and elapsed < 60.0
    report(
        10,
        ok,
        f"repeat-train byte-identical: {identical}; save/load predictions exact: "
        f"{exact}; re-serialization byte-identical: {files_equal}; "
        f"{elapsed:.1f}s (budget 60s)",
    )
