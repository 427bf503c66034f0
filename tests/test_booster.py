"""Training loop: leaf values, gains, split scans, replay, stopping, masking."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygam.booster import (
    TrainConfig,
    _FeatureWork,
    candidate_gain,
    leaf_value,
    replay,
    train,
    write_log,
)
from polygam.data import SplitScheme, build_bin_layout
from polygam.errors import ConfigError, DataError, NumericError
from polygam.losses import derivatives, link_apply, loss_eval
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    dumps_model,
    evaluate_shape,
    fine_code,
    locate,
    predict,
)
from polygam.testkit import brute_force_stump, param_gradients

from conftest import layout_for, make_dataset, scan_matrix, scanned


# ---------------------------------------------------------------------------
# leaf values and gains


def test_leaf_value_unpenalized():
    assert leaf_value(-6.0, 4.0) == 1.5


def test_leaf_value_zero_gradient():
    assert leaf_value(0.0, 7.0) == 0.0


def test_leaf_value_with_penalties():
    assert leaf_value(-6.0, 4.0, l1=1.0, l2=1.0) == 1.0


def test_leaf_value_inside_l1_dead_zone():
    assert leaf_value(0.5, 3.0, l1=1.0) == 0.0
    assert leaf_value(-0.5, 3.0, l1=1.0) == 0.0


def test_leaf_value_hessian_floor():
    v = leaf_value(-1.0, 0.0)
    assert np.isfinite(v) and v > 0


def test_leaf_value_vectorized():
    sg = np.array([-6.0, 0.0, 6.0])
    sh = np.array([4.0, 4.0, 4.0])
    assert leaf_value(sg, sh).tolist() == [1.5, 0.0, -1.5]


def test_gain_single_side_quadratic_identity():
    g = leaf_value(-6.0, 4.0)
    gain = candidate_gain(g, -6.0, 4.0, 0.0, 0.0, 0.0)
    assert gain == 4.5
    assert gain == (-6.0) ** 2 / (2.0 * 4.0)


def test_gain_zero_for_zero_gamma():
    assert candidate_gain(0.0, -6.0, 4.0, 0.0, 0.0, 0.0) == 0.0


def test_split_beats_pooled_global_on_step_target():
    x = np.arange(10.0)
    y = np.where(x < 5, -1.0, 1.0)
    g = 2.0 * (0.0 - y)
    h = np.full(10, 2.0)
    left = x < 4.5
    sgl, shl = g[left].sum(), h[left].sum()
    sgr, shr = g[~left].sum(), h[~left].sum()
    split_gain = candidate_gain(
        leaf_value(sgl, shl), sgl, shl, leaf_value(sgr, shr), sgr, shr
    )
    pooled = leaf_value(g.sum(), h.sum())
    global_gain = candidate_gain(pooled, g.sum(), h.sum(), 0.0, 0.0, 0.0)
    assert split_gain > global_gain


def test_param_gradients_degree0_plain_sums():
    x = np.array([1.0, 2.0, 3.0])
    g = np.array([1.0, -2.0, 4.0])
    h = np.array([0.5, 0.5, 1.0])
    (sgl, sgr), (shl, shr) = param_gradients(g, h, x, 2.5, 0)
    assert (sgl, sgr) == (-1.0, 4.0)
    assert (shl, shr) == (1.0, 1.0)


def test_param_gradients_degree1_example():
    (sg, sh) = param_gradients(
        np.array([-2.0, -4.0]), np.array([2.0, 2.0]), np.array([1.0, 3.0]), 2.0, 1
    )
    assert sg == (2.0, -4.0)
    assert sh == (2.0, 2.0)


def test_param_gradients_zero_gradient():
    x = np.linspace(0, 1, 5)
    (sg, _), _ = param_gradients(np.zeros(5), np.ones(5), x, 0.5, 2)
    assert sg == 0.0


# ---------------------------------------------------------------------------
# vectorized split scans vs direct reference


@pytest.mark.parametrize("S", [-1, 0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_split_sums_match_direct_reference(seed, S):
    rng = np.random.default_rng(seed)
    n = 600
    x = np.sort(rng.normal(size=n)) if seed % 2 else rng.uniform(-3, 5, n)
    g = rng.normal(size=n)
    h = rng.uniform(0.1, 2.0, size=n)
    ds = make_dataset(x, np.zeros(n))
    layout = build_bin_layout(ds, SplitScheme(64, 12))
    fc = FeatureConstraint(smoothness=S, max_degree=3)
    wk = _FeatureWork(x, layout[0], fc)
    sgl, sgr, shl, shr = scanned(wk, g, h)[:, wk.n_fine :]
    edges = layout[0].coarse_edges
    # global terms: one row each, u = x_min, every training row on the left
    for d in range(S + 1):
        (r,) = np.flatnonzero(wk.row_degree == d)
        assert wk.row_u[r] == x.min()
        for got, w, p in ((sgl[r], g, d), (shl[r], h, 2 * d)):
            terms = w * (x - x.min()) ** p
            assert abs(got - terms.sum()) <= 1e-12 * np.abs(terms).sum()
        assert sgr[r] == 0.0 and shr[r] == 0.0
    for d in range(max(S + 1, 1), 4):
        rows = np.flatnonzero(wk.row_degree == d)
        assert wk.row_u[rows].tolist() == edges.tolist()
        for r, u in zip(rows, edges.tolist()):
            (rgl, rgr), (rhl, rhr) = param_gradients(g, h, x, u, d)
            for got, want in (
                (sgl[r], rgl),
                (sgr[r], rgr),
                (shl[r], rhl),
                (shr[r], rhr),
            ):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-10)


def test_split_sums_stable_when_one_side_is_tiny():
    # single sample beyond the last threshold: its side sums must come out
    # at full relative precision, not as a difference of two large totals
    rng = np.random.default_rng(9)
    x = np.concatenate([rng.uniform(0, 1, 500), [50.0]])
    g = np.concatenate([rng.normal(size=500), [1e-6]])
    h = np.ones(501)
    ds = make_dataset(x, np.zeros(501))
    layout = build_bin_layout(ds, SplitScheme(64, 12))
    fc = FeatureConstraint(smoothness=-1, max_degree=3)
    wk = _FeatureWork(x, layout[0], fc)
    _, sgr, _, shr = scanned(wk, g, h)[:, wk.n_fine :]
    u = layout[0].coarse_edges[-1]
    d = 3
    r = np.flatnonzero(wk.row_degree == d)[-1]
    assert wk.row_u[r] == u
    (_, rgr), (_, rhr) = param_gradients(g, h, x, u, d)
    assert sgr[r] == pytest.approx(rgr, rel=1e-12)
    assert shr[r] == pytest.approx(rhr, rel=1e-12)


def bincount_moments(piece, t, w, max_m, n_pieces):
    """Oracle: per-piece sums of w * t^m, one bincount over all rows per m."""
    tp, out = np.ones_like(t), []
    for _ in range(max_m + 1):
        out.append(np.bincount(piece, weights=w * tp, minlength=n_pieces))
        tp = tp * t
    return np.stack(out, axis=1)


@st.composite
def moment_cases(draw):
    D = draw(st.integers(1, 3))
    S = draw(st.integers(-1, D - 1))
    n = draw(st.integers(1, 400))
    ties = draw(st.booleans())  # 40 levels, so pieces hold tied values
    one_piece = draw(st.booleans())
    outside = draw(st.booleans())  # rows only beyond the layout's data: middle pieces empty
    nan_row = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    seed = draw(st.integers(0, 2**16))
    return FeatureConstraint(smoothness=S, max_degree=D), n, ties, one_piece, outside, nan_row, seed


@given(moment_cases())
def test_block_moments_match_bincount_oracle(case):
    fc, n, ties, one_piece, outside, nan_row, seed = case
    rng = np.random.default_rng(seed)
    draw = (lambda m: rng.integers(0, 40, m) * 0.25) if ties else (lambda m: rng.normal(size=m))
    ref = draw(300)
    layout = build_bin_layout(make_dataset(ref, np.zeros(ref.size)),
                              SplitScheme(64, 1 if one_piece else 8))
    fb = layout[0]
    x = draw(n)
    if outside:
        x = np.where(rng.random(n) < 0.5, ref.min() - 1.0 - rng.random(n),
                     ref.max() + 1.0 + rng.random(n))
    w = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, size=n)
    if nan_row is not None:
        w[nan_row] = np.nan
    wk = _FeatureWork(x, fb, fc)
    assert wk.max_split_deg == fc.max_degree
    piece, t = locate(fb, x, fine_code(fb, x))
    n_pieces = fb.n_coarse_bins
    assert (n_pieces == 1) == one_piece
    empty = np.bincount(piece, minlength=n_pieces) == 0
    if outside and n_pieces > 2:
        assert empty.any()
    clean = np.ones(n_pieces, dtype=bool)
    if nan_row is not None:
        clean[piece[nan_row]] = False
    # w as both g and h: g's moments run to D, h's to 2D
    wk.scan(scan_matrix(w, w), h_static=False)
    for max_m, got in ((fc.max_degree, wk.gmom[0]), (2 * fc.max_degree, wk.hmom[0])):
        want = bincount_moments(piece, t, w, max_m, n_pieces)
        bound = 1e-12 * bincount_moments(piece, np.abs(t), np.abs(w), max_m, n_pieces)
        assert np.isnan(got[~clean]).all()
        assert np.isfinite(got[clean]).all()
        assert (np.abs(got - want)[clean] <= bound[clean]).all()
        assert (got[empty] == 0.0).all()


@st.composite
def scan_cases(draw):
    J = draw(st.sampled_from([1, 4]))
    D = draw(st.integers(0, 3))
    S = draw(st.integers(-1, D - 1)) if D else -1
    outputs = draw(st.sampled_from([list(range(J)), [J - 1], [0, J - 1]] if J > 1
                                   else [[0]]))
    n = draw(st.integers(1, 300))
    outside = draw(st.booleans())  # rows only beyond the layout's data: empty bins and pieces
    nan_at = draw(st.one_of(st.none(), st.tuples(st.integers(0, n - 1), st.integers(0, 2 * J - 1))))
    seed = draw(st.integers(0, 2**16))
    return J, FeatureConstraint(smoothness=S, max_degree=D), outputs, n, outside, nan_at, seed


@given(scan_cases())
def test_scan_matches_per_output_oracles(case):
    """One scan of a feature against per-output oracles: bincount moments and
    bincount fine sums of each allowed output's g and h, within
    1e-12 * sum|w * t^m|. A NaN weight stays in its own piece and fine bin
    of its own output; an output's sums do not depend on which other
    outputs the feature serves; a kept h side equals a fresh computation."""
    J, fc, outputs, n, outside, nan_at, seed = case
    rng = np.random.default_rng(seed)
    ref = rng.normal(size=300)
    fb = build_bin_layout(make_dataset(ref, np.zeros(300)), SplitScheme(64, 8))[0]
    x = rng.normal(size=n)
    if outside:
        x = np.where(rng.random(n) < 0.5, ref.min() - 1.0 - rng.random(n),
                     ref.max() + 1.0 + rng.random(n))
    g = rng.normal(size=(n, J)) * 10.0 ** rng.uniform(-3, 3, size=(n, J))
    h = rng.uniform(0.1, 2.0, size=(n, J))
    if nan_at is not None:
        (g if nan_at[1] < J else h)[nan_at[0], nan_at[1] % J] = np.nan
    outputs = np.array(outputs)
    wk = _FeatureWork(x, fb, fc, outputs)
    GH = scan_matrix(g, h)
    fcode = fine_code(fb, x)
    piece, t = locate(fb, x, fcode)
    nf, P, D = fb.n_fine_bins, fb.n_coarse_bins, fc.max_degree
    if outside:
        assert (np.bincount(fcode, minlength=nf) == 0).any()
    wk.scan(GH, h_static=False)
    for out in outputs:
        for side, w in enumerate((g[:, out], h[:, out])):
            bad = ~np.isfinite(w)
            want = np.bincount(fcode, weights=w, minlength=nf)
            bound = 1e-12 * np.bincount(fcode, weights=np.abs(w), minlength=nf)
            got = wk.bins[out, side]
            dirty = np.isin(np.arange(nf), fcode[bad])
            if wk.n_fine:  # only a fine scan sums the fine bins
                assert np.isnan(got[dirty]).all() and np.isfinite(got[~dirty]).all()
                assert (np.abs(got - want)[~dirty] <= bound[~dirty]).all()
                assert (got[want == 0.0] == 0.0).all()  # empty bins are exactly 0
            if wk.n_fine and not bad.any():
                # left sums at every fine threshold, and right = total - left
                left, tol = np.cumsum(want)[:-1], 1e-12 * np.abs(w).sum()
                assert (np.abs(wk.sums[out, 2 * side, : wk.n_fine] - left) <= tol).all()
                right = wk.sums[out, 2 * side + 1, : wk.n_fine]
                assert (np.abs(right - (want.sum() - left)) <= 2 * tol).all()
            if D == 0:
                continue
            top = D * (side + 1)
            want = bincount_moments(piece, t, w, top, P)
            bound = 1e-12 * bincount_moments(piece, np.abs(t), np.abs(w), top, P)
            dirty = np.isin(np.arange(P), piece[bad])
            got = (wk.gmom, wk.hmom)[side][out]
            assert np.isnan(got[dirty]).all() and np.isfinite(got[~dirty]).all()
            assert (np.abs(got - want)[~dirty] <= bound[~dirty]).all()
            assert (got[np.bincount(piece, minlength=P) == 0] == 0.0).all()

    # every output the feature does not serve stays 0
    masked = np.setdiff1d(np.arange(wk.sums.shape[0]), outputs)
    for a in (wk.sums, wk.bins, wk.gmom, wk.hmom):
        assert not a[masked].any()

    # the same feature serving only its last output sums it bit for bit alike
    last = outputs[-1]
    alone = _FeatureWork(x, fb, fc, outputs[-1:])
    alone.scan(GH, h_static=False)
    assert alone.sums[last].tobytes() == wk.sums[last].tobytes()

    # regression's h never changes: after a scan of other g with the same h,
    # the kept h side equals that of a fresh scan, bit for bit. The g side
    # is then summed alone, as a matrix-vector product, so only its last
    # bits may differ: within 1e-12 of sum|g * (x - u)^d| over both sides,
    # which is what a scan of |g| gives (every term of a side has one sign).
    kept = _FeatureWork(x, fb, fc, outputs)
    kept.scan(GH, h_static=True)
    g2 = rng.normal(size=(n, J))
    kept.scan(scan_matrix(g2, h), h_static=True)
    fresh = _FeatureWork(x, fb, fc, outputs)
    fresh.scan(scan_matrix(g2, h), h_static=False)
    assert kept.sums[:, 2:].tobytes() == fresh.sums[:, 2:].tobytes()
    absolute = _FeatureWork(x, fb, fc, outputs)
    absolute.scan(scan_matrix(np.abs(g2), h), h_static=False)
    scale = np.abs(absolute.sums[:, :2]).sum(axis=1, keepdims=True)
    assert (np.abs(kept.sums[:, :2] - fresh.sums[:, :2]) <= 1e-12 * scale).all()


def model_sha_per_thread_count(fit: str) -> list[str]:
    """sha256 of dumps_model(res.store) after running `fit` (which binds
    pg, np and res) in a fresh interpreter at PB_THREADS=1 and =2. polygam
    is imported before numpy, so the thread cap lands before BLAS starts."""
    code = (
        "import polygam as pg, hashlib\n"
        "import numpy as np\n"
        f"{fit}\n"
        "print(hashlib.sha256(pg.model.dumps_model(res.store).encode()).hexdigest())\n"
    )
    shas = []
    for threads in ("1", "2"):
        env = dict(os.environ, PB_THREADS=threads)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        shas.append(res.stdout.strip())
    assert len(shas[0]) == 64
    return shas


def test_fit_bytes_do_not_depend_on_blas_threads():
    # two coarse pieces make blocks of over 4000 rows, large enough for
    # OpenBLAS to split a product across threads
    fit = (
        "rng = np.random.default_rng(4)\n"
        "X = rng.normal(size=(40000, 3))\n"
        "f = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + rng.logistic(size=40000)\n"
        "ds = pg.Dataset(X=X, y=(f > 1).astype(np.int64), feature_names=['a', 'b', 'c'],\n"
        "                kinds=['numeric'] * 3, task='binary', n_outputs=1)\n"
        "layout = pg.build_bin_layout(ds, pg.SplitScheme(256, 2))\n"
        "cfg = pg.TrainConfig(max_iterations=10, early_stopping_patience=0)\n"
        "res = pg.train(ds, layout=layout, config=cfg)"
    )
    shas = model_sha_per_thread_count(fit)
    assert shas[0] == shas[1]


def test_global_term_bytes_do_not_depend_on_blas_threads():
    # S = 1 and no threshold that leaves min_data_in_leaf rows on both
    # sides: every update is a global term, fit from sums over all 12,000
    # rows, past where OpenBLAS splits a 1-D dot product across threads
    fit = (
        "rng = np.random.default_rng(3)\n"
        "X = rng.normal(size=(12000, 2))\n"
        "f = 2.0 * X[:, 0] - X[:, 1] + rng.logistic(size=12000)\n"
        "ds = pg.Dataset(X=X, y=(f > 0).astype(np.int64), feature_names=['a', 'b'],\n"
        "                kinds=['numeric'] * 2, task='binary', n_outputs=1)\n"
        "spec = pg.ConstraintSpec.default(ds, smoothness=1, max_degree=2)\n"
        "cfg = pg.TrainConfig(max_iterations=10, early_stopping_patience=0,\n"
        "                     validation_fraction=0.0, min_data_in_leaf=12000)\n"
        "res = pg.train(ds, constraints=spec, config=cfg)\n"
        "assert {r.kind for r in res.log} == {'global'}"
    )
    shas = model_sha_per_thread_count(fit)
    assert shas[0] == shas[1]


@pytest.mark.parametrize("task", ["regression", "binary", "multiclass"])
@pytest.mark.parametrize("S", [-1, 0, 1, 2])
def test_training_and_validation_scores_share_one_update(task, S):
    # validating on the training rows must reproduce the training loss bit
    # for bit: both score vectors take the same lr*gamma*(x-u)^d update
    rng = np.random.default_rng(S + 1)
    X = rng.uniform(-1.0, 2.0, size=(200, 2))
    f = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1])
    if task == "regression":
        y = f + rng.normal(scale=0.3, size=200)
    elif task == "binary":
        y = f > np.median(f)
    else:
        y = np.digitize(f, np.quantile(f, [0.33, 0.66]))
    ds = make_dataset(X, y, task=task)
    spec = ConstraintSpec.default(ds, smoothness=S, max_degree=3)
    # large leaves keep splits away from the ends, so global terms win too
    cfg = TrainConfig(learning_rate=0.3, max_iterations=30, early_stopping_patience=0,
                      min_data_in_leaf=80)
    res = train(ds, layout=build_bin_layout(ds, SplitScheme(48, 8)), constraints=spec,
                config=cfg, valid=ds)
    kinds = {rec.kind for rec in res.log}
    assert kinds == ({"split", "global"} if S >= 0 else {"split"})
    for rec in res.log:
        assert rec.valid_loss == rec.train_loss, rec


# ---------------------------------------------------------------------------
# single-iteration oracle equivalence


def test_first_iteration_matches_stump_oracle():
    rng = np.random.default_rng(12)
    x = rng.uniform(-2, 2, 80)
    y = np.sin(x) + rng.normal(scale=0.3, size=80)
    ds = make_dataset(x, y)
    layout = layout_for(ds)
    spec = ConstraintSpec.default(ds, smoothness=-1, max_degree=0)
    cfg = TrainConfig(
        learning_rate=1.0,
        l1=0.0,
        l2=0.0,
        min_data_in_leaf=1,
        max_iterations=1,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    res = train(ds, layout, spec, cfg)
    assert len(res.log) == 1
    rec = res.log[0]
    b = derivatives("regression", y, np.full((80, 1), y.mean()))
    oracle = brute_force_stump(
        x, b.g[:, 0], b.h[:, 0], layout[0].fine_edges, l1=0.0, l2=0.0, min_leaf=1
    )
    assert rec.threshold == oracle[0]
    assert abs(rec.gamma_left - oracle[1]) <= 1e-10
    assert abs(rec.gamma_right - oracle[2]) <= 1e-10


# ---------------------------------------------------------------------------
# determinism, replay, early stopping


def wiggly_dataset(n, seed, k=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, k))
    y = np.sin(2 * X[:, 0]) + rng.normal(scale=0.2, size=n)
    if k > 1:
        y = y + 0.5 * X[:, 1] ** 2
    return make_dataset(X, y)


def test_training_is_deterministic():
    cfg = TrainConfig(max_iterations=150, early_stopping_patience=20, seed=3)
    runs = []
    for _ in range(2):
        res = train(wiggly_dataset(300, 7), config=cfg)
        runs.append(
            (dumps_model(res.store), "\n".join(r.to_json() for r in res.log))
        )
    assert runs[0] == runs[1]


def replay_fit(fit: str):
    """(dataset, constraints, min_data_in_leaf, (kind, degree >= 1) pairs
    the log must hold) of a fit for the replay test."""
    rng = np.random.default_rng(8)
    X = rng.uniform(-2, 2, size=(250, 2))
    if fit == "unconstrained":
        return wiggly_dataset(250, 8), None, 10, {("split", True)}
    if fit == "constrained":
        # x0 monotone and convex, S = 1: global degrees 0 and 1, splits of 2 and 3
        y = 3 * X[:, 0] + np.exp(X[:, 0]) / 2 + 0.5 * np.sin(2 * X[:, 1])
        ds = make_dataset(X, y + rng.normal(scale=0.2, size=250))
        spec = ConstraintSpec([FeatureConstraint(1, 3, 1, 1), FeatureConstraint(1, 3)],
                              np.ones((1, 2), dtype=bool))
        return ds, spec, 80, {("global", False), ("global", True), ("split", True)}
    # masked multiclass, S = -1: x1 is out of output 1; degree-0 splits
    f = X[:, 0] + np.sin(2 * X[:, 1])
    y = np.digitize(f + rng.normal(scale=0.3, size=250), np.quantile(f, [0.33, 0.66]))
    ds = make_dataset(X, y, task="multiclass")
    spec = ConstraintSpec.default(ds, smoothness=-1, outputs_for={"x1": [0, 2]})
    return ds, spec, 10, {("split", False), ("split", True)}


@pytest.mark.parametrize("fit", ["unconstrained", "constrained", "masked_multiclass"])
def test_replay_bit_matches_initial_and_final_state(fit):
    ds, spec, min_leaf, folds = replay_fit(fit)
    cfg = TrainConfig(max_iterations=60, early_stopping_patience=0, validation_fraction=0.0,
                      min_data_in_leaf=min_leaf)
    res = train(ds, constraints=spec, config=cfg)
    assert res.n_iterations == 60
    assert {(r.kind, r.degree >= 1) for r in res.log} >= folds
    assert dumps_model(res.replay_to(0)) == dumps_model(res.initial_store)
    assert dumps_model(res.replay_to(60)) == dumps_model(res.store)
    assert dumps_model(replay(res.initial_store, res.log, 60, cfg.learning_rate)) == dumps_model(
        res.store
    )


def test_rollback_returns_best_validation_state():
    ds = wiggly_dataset(150, 10)
    valid = wiggly_dataset(120, 11)
    cfg = TrainConfig(
        learning_rate=0.9,
        max_iterations=500,
        early_stopping_patience=10,
        validation_fraction=0.0,
    )
    res = train(ds, valid=valid, config=cfg)
    assert res.n_iterations < 500  # patience fired
    assert res.best_iteration < res.n_iterations
    best_logged = min(r.valid_loss for r in res.log)
    got = loss_eval("regression", valid.y, predict(res.store, valid.X))
    assert got == pytest.approx(best_logged, rel=1e-10)
    at_best = {r.valid_loss for r in res.log if r.iteration == res.best_iteration}
    assert best_logged in at_best
    # the result reports the kept model's losses, not the last iteration's
    assert res.valid_loss == best_logged
    kept = [r for r in res.log if r.iteration == res.best_iteration]
    assert res.train_loss == kept[0].train_loss
    assert res.valid_loss != res.log[-1].valid_loss


def test_rollback_to_iteration_zero_reports_starting_losses():
    ds = wiggly_dataset(150, 10)
    flipped = wiggly_dataset(120, 11)
    # validation targets of the opposite sign: no iteration improves on the
    # starting validation loss
    valid = make_dataset(flipped.X, -flipped.y)
    cfg = TrainConfig(max_iterations=50, early_stopping_patience=3, validation_fraction=0.0)
    res = train(ds, valid=valid, config=cfg)
    assert res.best_iteration == 0 < res.n_iterations
    start = train(ds, valid=valid, config=TrainConfig(max_iterations=0, validation_fraction=0.0,
                                                      early_stopping_patience=0))
    assert (res.train_loss, res.valid_loss) == (start.train_loss, start.valid_loss)


def test_patience_zero_keeps_last_iteration():
    ds = wiggly_dataset(150, 13)
    valid = wiggly_dataset(80, 14)
    cfg = TrainConfig(
        learning_rate=0.9,
        max_iterations=120,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    res = train(ds, valid=valid, config=cfg)
    assert res.n_iterations == 120
    got = loss_eval("regression", ds.y, predict(res.store, ds.X))
    assert got == pytest.approx(res.log[-1].train_loss, rel=1e-10)


def test_early_stop_without_validation_is_config_error():
    ds = wiggly_dataset(100, 15)
    cfg = TrainConfig(early_stopping_patience=5, validation_fraction=0.0)
    with pytest.raises(ConfigError):
        train(ds, config=cfg)


def test_train_config_collects_all_errors():
    cfg = TrainConfig(learning_rate=0.0, l2=-1.0, min_data_in_leaf=0)
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    msg = str(exc.value)
    assert "learning_rate" in msg and "l2" in msg and "min_data_in_leaf" in msg


@pytest.mark.parametrize(
    "field, value",
    [("l1", math.nan), ("l1", math.inf), ("l1", -math.inf), ("l2", math.nan),
     ("l2", math.inf), ("min_data_in_leaf", math.nan)],
)
def test_train_config_refuses_non_finite_penalties(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be .*, got {value}"):
        cfg.validate()
    with pytest.raises(ConfigError, match=field):
        train(wiggly_dataset(100, 15), config=cfg)


@pytest.mark.parametrize(
    "field, value",
    [("max_iterations", math.nan), ("max_iterations", 2.5), ("max_iterations", 3.0),
     ("early_stopping_patience", math.nan)],
)
def test_train_config_refuses_nan_and_fractional_iteration_settings(field, value):
    cfg = TrainConfig(**{field: value})
    with pytest.raises(ConfigError, match=f"{field} must be .*, got {value}"):
        cfg.validate()
    with pytest.raises(ConfigError, match=field):
        train(wiggly_dataset(100, 15), config=cfg)


def test_train_config_names_a_bad_patience():
    with pytest.raises(ConfigError, match="early_stopping_patience must be >= 0, got -3"):
        TrainConfig(early_stopping_patience=-3).validate()


def test_nan_target_is_refused_before_training():
    ds = wiggly_dataset(200, 16)
    ds.y[7] = np.nan
    with pytest.raises(NumericError, match="starting loss"):
        train(ds, config=TrainConfig(max_iterations=5))


def test_nan_feature_is_refused_before_training():
    ds = wiggly_dataset(200, 18)
    ds.X[11, 1] = np.nan
    with pytest.raises(DataError, match="'x1' holds a non-finite value at row 11"):
        train(ds, config=TrainConfig(max_iterations=5))
    valid = wiggly_dataset(50, 19)
    valid.X[3, 0] = np.inf
    with pytest.raises(DataError, match="'x0'"):
        train(wiggly_dataset(200, 18), config=TrainConfig(max_iterations=5), valid=valid)


def test_target_length_mismatch_is_refused_before_training():
    ds = wiggly_dataset(200, 18)
    ds.y = ds.y[:190]
    with pytest.raises(DataError, match=r"y has shape \(190,\), expected \(200,\)"):
        train(ds, config=TrainConfig(max_iterations=5))


def test_training_computes_the_link_once_per_iteration(monkeypatch):
    # the training loss after an update and the next iteration's derivatives
    # share one softmax; the validation loss needs its own
    import polygam.losses as losses

    calls = []
    softmax = losses._softmax
    monkeypatch.setattr(losses, "_softmax", lambda F: calls.append(F.shape[0]) or softmax(F))
    rng = np.random.default_rng(20)
    X = rng.uniform(-2, 2, size=(240, 2))
    y = np.digitize(X[:, 0] + rng.normal(scale=0.5, size=240), [-0.5, 0.5])
    ds = make_dataset(X, y, task="multiclass")
    cfg = TrainConfig(max_iterations=12, early_stopping_patience=0, validation_fraction=0.25)
    res = train(ds, config=cfg)
    assert res.n_iterations == 12
    assert calls == [180, 60] * 13


def test_overflowing_target_is_refused_before_training():
    # the squared residuals of targets near 1e300 overflow to an infinite loss
    ds = wiggly_dataset(200, 17)
    ds.y[:] = 1e300 * (1.0 + ds.X[:, 0] ** 2)
    with pytest.raises(NumericError, match="starting loss"), np.errstate(over="ignore"):
        train(ds, config=TrainConfig(max_iterations=5))


# ---------------------------------------------------------------------------
# structural training invariants


def test_smoothness_filter_respected_in_log():
    ds = wiggly_dataset(400, 16)
    spec = ConstraintSpec.default(ds, smoothness=1, max_degree=3)
    cfg = TrainConfig(
        max_iterations=120, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    assert res.log, "training applied no candidates"
    for rec in res.log:
        if rec.kind == "split":
            assert rec.degree >= 2
        else:
            assert rec.degree <= 1


def test_applied_gains_are_positive():
    ds = wiggly_dataset(300, 17)
    cfg = TrainConfig(
        max_iterations=80, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    assert all(rec.gain > 0 for rec in res.log)
    assert all(math.isfinite(rec.gain) for rec in res.log)


def test_train_loss_improves_over_intercept():
    ds = wiggly_dataset(300, 18)
    cfg = TrainConfig(
        max_iterations=200, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    base = loss_eval("regression", ds.y, np.full((300, 1), ds.y.mean()))
    assert res.train_loss < 0.5 * base


def test_degree0_models_are_piecewise_constant():
    ds = wiggly_dataset(300, 19, k=1)
    layout = layout_for(ds, 32, 8)
    spec = ConstraintSpec.default(ds, smoothness=-1, max_degree=0)
    cfg = TrainConfig(
        max_iterations=60, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, layout, spec, cfg)
    edges = layout[0].fine_edges
    eps = 1e-9
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = np.array([lo + eps, 0.5 * (lo + hi), hi - eps])
        vals = evaluate_shape(res.store, 0, 0, inside)
        assert vals.max() == vals.min()


def test_mask_zeroing_and_bit_identical_outputs():
    rng = np.random.default_rng(20)
    n = 400
    X = rng.uniform(-1, 1, size=(n, 3))
    logits = np.column_stack([2 * X[:, 0], -1.5 * X[:, 1], X[:, 2] ** 2])
    y = np.array([rng.choice(3, p=p) for p in link_apply("multiclass", logits)])
    ds = make_dataset(X, y, task="multiclass")
    spec = ConstraintSpec.default(
        ds, outputs_for={"x0": [0], "x1": [1], "x2": [2]}
    )
    cfg = TrainConfig(
        max_iterations=80, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    for i in range(3):
        for k in range(3):
            if i == k:
                continue
            sp = res.store.params[i][k]
            assert not sp.step_values.any()
            assert not sp.poly_coeffs.any()
    base = predict(res.store, X)
    X2 = X.copy()
    X2[:, 0] = rng.uniform(-1, 1, n)  # x0 may only touch output 0
    bumped = predict(res.store, X2)
    assert np.array_equal(base[:, 1], bumped[:, 1])
    assert np.array_equal(base[:, 2], bumped[:, 2])


def test_monotone_step_splits_respect_ordering():
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 1, 300)
    y = 2 * x + rng.normal(scale=0.3, size=300)
    ds = make_dataset(x, y)
    spec = ConstraintSpec.default(
        ds, overrides={"x0": FeatureConstraint(monotone=1, max_degree=0)}
    )
    cfg = TrainConfig(
        max_iterations=60, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    for rec in res.log:
        if rec.kind == "split" and rec.degree == 0:
            assert rec.gamma_right - rec.gamma_left >= -1e-9
    sv = res.store.params[0][0].step_values
    assert np.diff(sv).min() >= -1e-9


# ---------------------------------------------------------------------------
# intercept initialization and empty-candidate stops


def test_zero_iterations_regression_intercept_is_train_mean():
    ds = wiggly_dataset(100, 22)
    cfg = TrainConfig(
        max_iterations=0, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    assert res.store.intercepts[0] == ds.y.mean()
    assert res.n_iterations == 0 and res.log == []


def test_zero_iterations_multiclass_intercepts_are_log_priors():
    rng = np.random.default_rng(23)
    y = np.repeat([0, 1, 2], [60, 30, 10])
    ds = make_dataset(rng.normal(size=(100, 2)), y, task="multiclass")
    cfg = TrainConfig(
        max_iterations=0, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    p = link_apply("multiclass", res.store.intercepts.reshape(1, -1))[0]
    assert p == pytest.approx([0.6, 0.3, 0.1], abs=1e-12)


def test_zero_iterations_binary_intercept_is_log_odds():
    rng = np.random.default_rng(24)
    y = np.array([0] * 30 + [1] * 70)
    ds = make_dataset(rng.normal(size=(100, 1)), y, task="binary")
    cfg = TrainConfig(
        max_iterations=0, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    assert res.store.intercepts[0] == pytest.approx(math.log(0.7 / 0.3), abs=1e-12)


def test_training_stops_when_no_candidate_is_feasible():
    ds = wiggly_dataset(30, 25, k=1)
    cfg = TrainConfig(
        min_data_in_leaf=20,
        max_iterations=50,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    res = train(ds, config=cfg)  # S=-1: no global fallback exists either
    assert res.log == [] and res.n_iterations == 0


def test_binary_training_smoke():
    rng = np.random.default_rng(26)
    x = rng.uniform(-2, 2, 200)
    p = 1.0 / (1.0 + np.exp(-2 * x))
    y = (rng.uniform(size=200) < p).astype(int)
    ds = make_dataset(x, y, task="binary")
    cfg = TrainConfig(
        max_iterations=100, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, config=cfg)
    probs = link_apply("binary", predict(res.store, ds.X))
    assert np.all((probs > 0) & (probs < 1))
    base = loss_eval("binary", ds.y, np.full((200, 1), res.store.intercepts[0]))
    assert res.train_loss < base


# ---------------------------------------------------------------------------
# log serialization


def test_training_log_ndjson_schema(tmp_path):
    ds = wiggly_dataset(150, 27)
    cfg = TrainConfig(max_iterations=10, early_stopping_patience=5, seed=1)
    res = train(ds, config=cfg)
    path = tmp_path / "log.ndjson"
    write_log(res.log, path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(res.log)
    keys = [
        "iteration", "output", "feature", "degree", "kind", "threshold",
        "gamma_left", "gamma_right", "gain", "train_loss", "valid_loss",
    ]
    for line in lines:
        rec = json.loads(line)
        assert list(rec.keys()) == keys
        assert rec["iteration"] >= 1
