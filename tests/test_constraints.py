"""Shape-constraint enforcement: sign feasibility at every stage of training."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polygam.booster import (
    FEAS_SLACK,
    TrainConfig,
    _Candidates,
    _clamp,
    _ClampRows,
    _feasible_interval,
    _FeatureWork,
    _worst_after,
    leaf_value,
    train,
)
from polygam.data import BinLayout
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    accumulate_global,
    accumulate_update,
    evaluate_derivative,
    evaluate_shape,
)

from conftest import layout_for, make_dataset

GRID = 2000
TOL = -1e-9


def fit(x, y, constraint, max_iterations=150, lr=0.1):
    ds = make_dataset(x, y)
    spec = ConstraintSpec.default(ds, overrides={"x0": constraint})
    cfg = TrainConfig(
        learning_rate=lr,
        max_iterations=max_iterations,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    return train(ds, constraints=spec, config=cfg), ds


def grid_for(ds):
    return np.linspace(ds.X[:, 0].min(), ds.X[:, 0].max(), GRID)


def step_diffs(store):
    return np.diff(store.params[0][0].step_values)


def test_increasing_constraint_on_increasing_data_fits_and_holds():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 2, 400)
    y = 1.5 * x + rng.normal(scale=0.2, size=400)
    res, ds = fit(x, y, FeatureConstraint(monotone=1, smoothness=0, max_degree=2))
    g = grid_for(ds)
    assert evaluate_derivative(res.store, 0, 0, g, 1).min() >= TOL
    base = np.mean((y - y.mean()) ** 2)
    assert res.train_loss < 0.3 * base


def test_increasing_constraint_on_decreasing_data_collapses_flat():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 2, 400)
    y = -2.0 * x + rng.normal(scale=0.2, size=400)
    res, ds = fit(x, y, FeatureConstraint(monotone=1, smoothness=0, max_degree=2))
    g = grid_for(ds)
    fp = evaluate_derivative(res.store, 0, 0, g, 1)
    assert fp.min() >= TOL
    # anti-monotone signal: the constrained fit cannot move much
    f = evaluate_shape(res.store, 0, 0, g)
    assert f.max() - f.min() <= 0.5


def test_decreasing_constraint_step_layer():
    rng = np.random.default_rng(2)
    x = rng.uniform(0, 1, 300)
    y = np.exp(-3 * x) + rng.normal(scale=0.05, size=300)
    res, _ = fit(x, y, FeatureConstraint(monotone=-1, max_degree=0))
    assert step_diffs(res.store).max() <= -TOL


def test_convexity_constraint_holds_on_grid():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 500)
    y = 2 * x**2 + rng.normal(scale=0.1, size=500)
    res, ds = fit(x, y, FeatureConstraint(curvature=1, smoothness=0, max_degree=3))
    g = grid_for(ds)
    assert evaluate_derivative(res.store, 0, 0, g, 2).min() >= TOL
    base = np.mean((y - y.mean()) ** 2)
    assert res.train_loss < 0.3 * base


def test_concavity_constraint_on_convex_data_stays_feasible():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 400)
    y = 3 * x**2 + rng.normal(scale=0.1, size=400)
    res, ds = fit(x, y, FeatureConstraint(curvature=-1, smoothness=0, max_degree=2))
    g = grid_for(ds)
    assert (-evaluate_derivative(res.store, 0, 0, g, 2)).min() >= TOL


def test_combined_decreasing_convex_cost_curve():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 2.0, 600)
    y = 1.0 / (0.4 + x) + rng.normal(scale=0.05, size=600)
    res, ds = fit(
        x,
        y,
        FeatureConstraint(monotone=-1, curvature=1, smoothness=1, max_degree=3),
        max_iterations=200,
    )
    g = grid_for(ds)
    assert (-evaluate_derivative(res.store, 0, 0, g, 1)).min() >= TOL
    assert evaluate_derivative(res.store, 0, 0, g, 2).min() >= TOL


def test_constraints_hold_after_every_iteration():
    rng = np.random.default_rng(6)
    x = rng.uniform(0.0, 2.0, 300)
    y = np.exp(-x) + rng.normal(scale=0.05, size=300)
    ds = make_dataset(x, y)
    spec = ConstraintSpec.default(
        ds,
        overrides={
            "x0": FeatureConstraint(monotone=-1, curvature=1, smoothness=1, max_degree=3)
        },
    )
    cfg = TrainConfig(
        max_iterations=40,
        early_stopping_patience=0,
        validation_fraction=0.0,
    )
    res = train(ds, constraints=spec, config=cfg)
    g = np.linspace(x.min(), x.max(), 500)
    for it in range(res.n_iterations + 1):
        state = res.replay_to(it)
        assert (-evaluate_derivative(state, 0, 0, g, 1)).min() >= TOL, f"iter {it}"
        assert evaluate_derivative(state, 0, 0, g, 2).min() >= TOL, f"iter {it}"


def test_monotone_binary_task_probability_direction():
    rng = np.random.default_rng(7)
    x = rng.uniform(-2, 2, 500)
    p = 1.0 / (1.0 + np.exp(-1.5 * x))
    y = (rng.uniform(size=500) < p).astype(int)
    ds = make_dataset(x, y, task="binary")
    spec = ConstraintSpec.default(
        ds, overrides={"x0": FeatureConstraint(monotone=1, smoothness=0, max_degree=2)}
    )
    cfg = TrainConfig(
        max_iterations=120, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    g = np.linspace(x.min(), x.max(), 1000)
    assert evaluate_derivative(res.store, 0, 0, g, 1).min() >= TOL
    f = evaluate_shape(res.store, 0, 0, g)
    assert f[-1] > f[0]  # signal actually learned, not clamped to zero


def test_unconstrained_feature_is_untouched_by_neighbor_constraint():
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = X[:, 0] ** 3 + 2 * X[:, 1] + rng.normal(scale=0.1, size=400)
    ds = make_dataset(X, y)
    spec = ConstraintSpec.default(
        ds,
        overrides={"x1": FeatureConstraint(monotone=1, smoothness=0, max_degree=2)},
    )
    cfg = TrainConfig(
        max_iterations=150, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    g = np.linspace(-1, 1, 500)
    # constrained neighbor holds; unconstrained x0 keeps its sign change
    assert evaluate_derivative(res.store, 0, 1, g, 1).min() >= TOL
    f0 = evaluate_shape(res.store, 0, 0, g)
    assert f0.max() > 0.05 and f0.min() < -0.05


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
def test_signs_hold_to_rounding_at_every_target_scale(scale):
    # the clamp aims the constrained derivatives at 0, not at an absolute
    # slack, so they hold to rounding relative to the shape whatever the
    # target's units
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 4.0, 2000)
    y = (x**2 + np.exp(0.7 * x) + rng.normal(scale=0.3, size=x.size)) * scale
    fc = FeatureConstraint(smoothness=1, max_degree=3, monotone=1, curvature=1)
    res, _ = fit(x, y, fc, max_iterations=300)
    assert res.n_iterations == 300
    g = np.linspace(x.min(), x.max(), 20_001)
    for order in (1, 2):
        v = evaluate_derivative(res.store, 0, 0, g, order)
        assert v.min() >= -1e-12 * np.abs(v).max(), order


# ---------------------------------------------------------------------------
# the batched clamp


@st.composite
def clamp_cases(draw):
    """A split degree d with monotone/curvature signs and a valid S, D."""
    d = draw(st.sampled_from([1, 2, 3]))
    m = draw(st.sampled_from([-1, 0, 1]))
    c = draw(st.sampled_from([-1, 0, 1] if m else [-1, 1]))
    # d must be a split degree (d > S); curvature needs S >= 0 and D >= 2
    S = draw(st.integers(0 if c else -1, d - 1))
    D = draw(st.integers(max(d, 2 if c else 1), 3))
    seed = draw(st.integers(0, 2**16))
    return FeatureConstraint(smoothness=S, max_degree=D, monotone=m, curvature=c), d, seed


def one_block(wk, d, lr, rows, i=0, k=0):
    """Clamp rows batched alone: the one block of table rows `rows`, of
    degree d, of output i and feature k; their columns are the rows."""
    return _ClampRows([(i, k, wk, d, rows, rows)], lr)


def take(rows, index):
    """The clamp rows selected by index, an index into (sides, rows)."""
    out = copy.copy(rows)
    index = (Ellipsis,) + index + (slice(None),)
    for name in ("mmask", "cmask", "w", "A", "B", "C", "D", "AU", "Dw"):
        setattr(out, name, getattr(rows, name)[index])
    return out


def assert_feasible(state, fc, g, what):
    if fc.monotone:
        assert (fc.monotone * evaluate_derivative(state, 0, 0, g, 1)).min() >= TOL, what
    if fc.curvature:
        assert (fc.curvature * evaluate_derivative(state, 0, 0, g, 2)).min() >= TOL, what


@given(clamp_cases())
# some rows' intervals end at an interior minimum of f' here
@example((FeatureConstraint(smoothness=-1, max_degree=3, monotone=1), 2, 0))
def test_batched_clamp_is_rowwise_and_feasible(case):
    fc, d, seed = case
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0, 300)
    y = np.sin(3.0 * x) + x**2 + rng.normal(scale=0.1, size=300)
    lr = 0.3
    res, ds = fit(x, y, fc, max_iterations=8, lr=lr)
    cfg = TrainConfig(learning_rate=lr)
    store = res.store
    wk = _FeatureWork(ds.X[:, 0], store.layout[0], fc)
    J = np.arange(wk.fb.coarse_edges.size)
    assert J.size > 0
    R = np.flatnonzero(wk.row_degree == d)  # threshold J[t] is table row R[t]
    assert R.size == J.size
    shape = (2, J.size)
    gamma = rng.normal(size=shape) * 10.0 ** rng.uniform(-2.0, 1.0, size=shape)
    sgl, shl, sgr, shr = (
        rng.normal(size=J.size), rng.uniform(0.1, 10.0, J.size),
        rng.normal(size=J.size), rng.uniform(0.1, 10.0, J.size),
    )
    sums = (sgl, sgr, shl, shr)
    # every (side, threshold) row gets the interval it gets alone
    rows = one_block(wk, d, lr, R).at(store)
    lo, hi = _feasible_interval(rows)
    for s, t in np.ndindex(shape):
        one = np.s_[s : s + 1, t : t + 1]
        lo1, hi1 = _feasible_interval(take(rows, one))
        assert (lo1.tobytes(), hi1.tobytes()) == (lo[one].tobytes(), hi[one].tobytes()), (s, t)
    # and every threshold gets the clamped pair it gets alone
    clamped = _clamp(rows, cfg, gamma, sums)
    g = grid_for(ds)
    for t in J:
        alone = _clamp(one_block(wk, d, lr, R[t : t + 1]).at(store), cfg,
                       gamma[:, t : t + 1], tuple(s[t : t + 1] for s in sums))
        assert alone[:, 0].tobytes() == clamped[:, t].tobytes(), f"threshold {t}"
        state = store.copy()
        accumulate_update(state, 0, 0, d, float(wk.fb.coarse_edges[t]),
                          float(clamped[0, t]), float(clamped[1, t]), lr)
        assert_feasible(state, fc, g, f"threshold {t}")
    # smoothness-protected degrees clamp through the same routine, as one
    # row of the table with nothing on its right side
    for dg in range(1, fc.smoothness + 1):
        (r,) = np.flatnonzero(wk.row_degree == dg)
        gam = np.array([[rng.normal() * 10.0], [0.0]])
        gam = _clamp(one_block(wk, dg, lr, np.array([r])).at(store), cfg, gam,
                     (np.zeros(1),) * 4)
        assert gam[1, 0] == 0.0
        state = store.copy()
        accumulate_global(state, 0, 0, dg, float(gam[0, 0]), lr)
        assert_feasible(state, fc, g, f"global degree {dg}")


def test_curvature_pools_degree_one_kinks_only():
    # from a zero state, a convex feature's leaves (2, 1) bend f' down at a
    # degree-1 kink, so both take the pooled step; a degree-2 split with the
    # same leaves is convex on both sides and keeps them
    x = np.linspace(0.0, 2.0, 200)
    fc = FeatureConstraint(smoothness=0, max_degree=2, curvature=1)
    res, ds = fit(x, x, fc, max_iterations=0)
    wk = _FeatureWork(ds.X[:, 0], res.store.layout[0], fc)
    cfg = TrainConfig()
    for d in (1, 2):
        R = np.flatnonzero(wk.row_degree == d)
        gamma = np.array([[2.0], [1.0]]).repeat(R.size, axis=1)
        sums = (np.full(R.size, -3.0), np.full(R.size, -1.0), np.full(R.size, 2.0),
                np.full(R.size, 1.0))
        clamped = _clamp(one_block(wk, d, cfg.learning_rate, R).at(res.store), cfg, gamma, sums)
        if d == 1:
            pooled = leaf_value(-4.0, 3.0, cfg.l1, cfg.l2)
            assert (clamped == pooled).all()
        else:
            assert clamped.tobytes() == gamma.tobytes()


@st.composite
def fit_clamp_cases(draw):
    """Two or three constrained features of different coarse piece counts,
    each monotone, curvature-signed or both, allowed for a non-empty subset
    of one to three outputs, and the iterations that set the states."""
    n_features = draw(st.integers(2, 3))
    pieces = draw(st.lists(st.sampled_from([2, 3, 5, 8, 12]), min_size=n_features,
                           max_size=n_features, unique=True))
    fcs = []
    for _ in range(n_features):
        m, c = draw(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, 1), (1, -1)]))
        S = draw(st.integers(0 if c else -1, 2))
        D = draw(st.integers(max(S + 1, 2 if c else 1), 3))
        fcs.append(FeatureConstraint(smoothness=S, max_degree=D, monotone=m, curvature=c))
    n_outputs = draw(st.integers(1, 3))
    subsets = st.lists(st.booleans(), min_size=n_outputs, max_size=n_outputs).filter(any)
    mask = np.array([draw(subsets) for _ in range(n_features)]).T
    iterations = draw(st.integers(0, 6))
    return fcs, pieces, mask, iterations, draw(st.integers(0, 2**16))


def clamp_fit(case):
    """The fit of a fit_clamp_cases example: its feature works, candidates
    and state, and the rng that drew its data, to draw proposals from."""
    fcs, pieces, mask, iterations, seed = case
    rng = np.random.default_rng(seed)
    n, J = 240, mask.shape[0]
    X = rng.uniform(-1.0, 2.0, size=(n, len(fcs)))
    f = np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2
    if J == 1:
        ds = make_dataset(X, f + rng.normal(scale=0.3, size=n))
    else:
        y = np.digitize(f, np.quantile(f, np.linspace(0, 1, J + 1)[1:-1]))
        ds = make_dataset(X, y, task="multiclass")
    layout = BinLayout([layout_for(make_dataset(X[:, k], f), 32, p)[0]
                        for k, p in enumerate(pieces)])
    spec = ConstraintSpec(features=fcs, allow_mask=mask)
    cfg = TrainConfig(learning_rate=0.3, max_iterations=iterations, early_stopping_patience=0,
                      validation_fraction=0.0, min_data_in_leaf=5)
    store = train(ds, layout, spec, cfg).store
    works = [_FeatureWork(X[:, k], layout[k], fc, np.flatnonzero(mask[:, k]))
             for k, fc in enumerate(fcs)]
    return works, _Candidates(works, J, cfg, n), store, cfg, rng


# an example whose rows' intervals end at interior minima of f'
INTERIOR = ([FeatureConstraint(smoothness=2, max_degree=3, monotone=1, curvature=-1),
             FeatureConstraint(smoothness=2, max_degree=3, monotone=1)],
            [2, 5], np.array([[True, True]]), 2, 6843)


def ends_only(r):
    """Oracle: each row's interval from the cuts at its pieces' edges alone,
    without the minima of f' inside a piece."""
    w, cuts = r.w, []
    if r.mono:
        cuts += [(r.mmask, r.A[0], r.B[0]), (r.mmask, r.AU[0], r.B[0] + r.B[1] * w + r.B[2] * w * w)]
    if r.curv:
        cuts += [(r.cmask, r.D[0], r.C[0]), (r.cmask, r.Dw, r.C[0] + r.C[1] * w)]
    lo, hi = np.full(w.shape[:-1], -np.inf), np.full(w.shape[:-1], np.inf)
    for mask, a, b in cuts:
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -b / a
        lo = np.maximum(lo, np.where(mask & (a > 0.0), bound, -np.inf).max(axis=-1))
        hi = np.minimum(hi, np.where(mask & (a < 0.0), bound, np.inf).min(axis=-1))
    return lo, hi


@pytest.mark.filterwarnings("ignore:feature .* is constrained but allowed in multiple outputs")
def test_one_clamp_pass_equals_each_block_clamped_alone():
    vertex = []  # per example, whether some row's interval ends inside a piece

    @given(fit_clamp_cases())
    # a degree-1 kink block (S = 0, curvature) beside global rows (S = 2)
    @example(([FeatureConstraint(smoothness=0, max_degree=2, monotone=1, curvature=1),
               FeatureConstraint(smoothness=2, max_degree=3, monotone=-1, curvature=1)],
              [3, 8], np.array([[True, True], [True, False]]), 4, 1))
    @example(INTERIOR)
    def check(case):
        works, cands, store, cfg, rng = clamp_fit(case)
        lr = cfg.learning_rate
        rows, out, col = cands.clamp, cands.clamp.out, cands.clamp.col
        widths = {wk.fb.n_coarse_bins for wk in works}
        assert len(widths) > 1 and rows.w.shape[-1] == max(widths)  # pieces are padded
        R = out.size
        gamma = rng.normal(size=(2, R)) * 10.0 ** rng.uniform(-3.0, 1.0, size=(2, R))
        gamma[1, cands.is_global[col]] = 0.0
        sgl, shl, sgr, shr = (rng.normal(size=R), rng.uniform(0.1, 10.0, R),
                              rng.normal(size=R), rng.uniform(0.1, 10.0, R))
        sums = (sgl, sgr, shl, shr)
        bound = rows.at(store)
        batch = _clamp(bound, cfg, gamma.copy(), sums)
        (lo, hi), (e_lo, e_hi) = _feasible_interval(bound), ends_only(bound)
        vertex.append(((e_lo <= e_hi) & ((lo > e_lo) | (hi < e_hi))).any())
        at = {(o, c): r for r, (o, c) in enumerate(zip(out.tolist(), col.tolist()))}
        start = seen = 0
        for k, wk in enumerate(works):
            table = start + wk.n_fine
            start = table + wk.row_degree.size
            for i in wk.outputs.tolist():
                ok = cands.valid[i, table:start]
                for d in np.unique(wk.row_degree[wk.row_degree >= 1]).tolist():
                    block = np.flatnonzero(ok & (wk.row_degree == d))
                    if block.size == 0:
                        continue
                    r = np.array([at[i, table + b] for b in block.tolist()])
                    alone = _clamp(one_block(wk, d, lr, block, i, k).at(store), cfg,
                                   gamma[:, r], tuple(s[r] for s in sums))
                    assert alone.tobytes() == batch[:, r].tobytes(), (k, i, d)
                    seen += r.size
        assert seen == R  # every batch row is some block's

    check()
    # the examples reach a row whose interval ends at a minimum of f' inside a piece
    assert any(vertex)


@given(fit_clamp_cases())
@example(INTERIOR)
@pytest.mark.filterwarnings("ignore:feature .* is constrained but allowed in multiple outputs")
def test_feasible_interval_ends_are_exact(case):
    # every finite end passes the exact check, and one pushed outward fails
    # it. An end within 1e-6 of 0 belongs to a bound the state already
    # touches up to rounding; a touch of eps moves the end by up to ~sqrt(eps)
    # either way, so it has no outward side to test.
    _, cands, store, _, _ = clamp_fit(case)
    rows = cands.clamp.at(store)
    for end, outward in zip(_feasible_interval(rows), (-1.0, 1.0)):
        finite, moved = np.isfinite(end), np.isfinite(end) & (np.abs(end) > 1e-6)
        assert (_worst_after(rows, np.where(finite, end, 0.0))[finite] >= -FEAS_SLACK).all()
        pushed = np.where(moved, end + outward * 1e-6 * np.abs(end), 0.0)
        assert (_worst_after(rows, pushed)[moved] < 0.0).all()


def test_row_bound_to_an_infeasible_state_is_a_no_op():
    # f' = -1 on every piece of an increasing feature; a degree-2 split
    # adds no slope at its threshold, so no step of either side repairs it
    x = np.linspace(0.0, 2.0, 200)
    fc = FeatureConstraint(smoothness=1, max_degree=2, monotone=1)
    res, ds = fit(x, x, fc, max_iterations=0)
    res.store.params[0][0].poly_coeffs[:, 1] = -1.0
    wk = _FeatureWork(ds.X[:, 0], res.store.layout[0], fc)
    cfg = TrainConfig()
    R = np.flatnonzero(wk.row_degree == 2)
    gamma = np.array([[2.0], [1.0]]).repeat(R.size, axis=1)
    sums = tuple(np.full(R.size, v) for v in (-3.0, -1.0, 2.0, 1.0))
    clamped = _clamp(one_block(wk, 2, cfg.learning_rate, R).at(res.store), cfg, gamma, sums)
    assert (clamped == 0.0).all()


def update_deriv_coeffs(delta, d, lr, order):
    """Oracle: local coefficients of d^order/dx^order of lr*(x-u)^d on a piece
    whose lower edge sits at delta = lower - u, written out by hand."""
    z = np.zeros_like(delta)
    if order == 1:
        if d == 1:
            return lr + z, z, z
        if d == 2:
            return 2.0 * lr * delta, 2.0 * lr + z, z
        if d == 3:
            return 3.0 * lr * delta**2, 6.0 * lr * delta, 3.0 * lr + z
    else:
        if d == 2:
            return 2.0 * lr + z, z, z
        if d == 3:
            return 6.0 * lr * delta, 6.0 * lr + z, z
    return z, z, z


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("d", [1, 2, 3])
def test_clamp_rows_unit_coefficients_match_hand_derivatives(seed, d):
    rng = np.random.default_rng([seed, d])
    x = rng.uniform(-1.0, 1.0, 300) * 10.0 ** rng.uniform(-3.0, 3.0) + rng.normal() * 100.0
    lr = float(rng.uniform(1e-3, 1.0))
    m, c = rng.choice([-1, 1], size=2)
    ds = make_dataset(x, np.zeros(x.size))
    fb = layout_for(ds, 64, 12)[0]
    J = np.flatnonzero(rng.random(fb.coarse_edges.size) < 0.7)
    # split rows of degree d (S = 0 < d), and the global row of degree d
    # (S = d; global terms exist up to degree 2, since S < D <= 3)
    cases = [(0, J, fb.coarse_edges[J][None, :, None])]
    if d <= 2:
        cases.append((d, None, fb.x_min))
    for S, j, u in cases:
        fc = FeatureConstraint(smoothness=S, max_degree=3, monotone=int(m), curvature=int(c))
        wk = _FeatureWork(x, fb, fc)
        R = np.flatnonzero(wk.row_degree == d)
        rows = one_block(wk, d, lr, R if j is None else R[j])
        assert (j is None) == (R.size == 1 and not rows.mmask[1].any())  # m != 0: mmask is the mask
        delta = np.broadcast_to(wk.lower - u, rows.mmask.shape)
        want_a = [m * a for a in update_deriv_coeffs(delta, d, lr, 1)]
        assert [a.tobytes() for a in rows.A] == [a.tobytes() for a in want_a]
        if d >= 2:
            want_d = [c * a for a in update_deriv_coeffs(delta, d, lr, 2)[:2]]
            assert [a.tobytes() for a in rows.D] == [a.tobytes() for a in want_d]
