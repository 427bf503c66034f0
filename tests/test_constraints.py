"""Shape-constraint enforcement: sign feasibility at every stage of training."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polygam.booster import (
    TrainConfig,
    _clamp,
    _ClampRows,
    _feasible_interval,
    _FeatureWork,
    train,
)
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


def assert_feasible(state, fc, g, what):
    if fc.monotone:
        assert (fc.monotone * evaluate_derivative(state, 0, 0, g, 1)).min() >= TOL, what
    if fc.curvature:
        assert (fc.curvature * evaluate_derivative(state, 0, 0, g, 2)).min() >= TOL, what


@given(clamp_cases())
# the interior-minimum refinement takes several steps on some rows here
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
    coeffs = store.params[0][0].poly_coeffs
    J = np.arange(wk.fb.coarse_edges.size)
    assert J.size > 0
    shape = (2, J.size)
    gamma = rng.normal(size=shape) * 10.0 ** rng.uniform(-2.0, 1.0, size=shape)
    sums = (
        rng.normal(size=J.size), rng.uniform(0.1, 10.0, J.size),
        rng.normal(size=J.size), rng.uniform(0.1, 10.0, J.size),
    )
    # every (side, threshold) row gets the interval it gets alone
    rows = _ClampRows(wk, coeffs, d, lr, J)
    lo, hi = _feasible_interval(rows, gamma)
    for s, t in np.ndindex(shape):
        one = np.s_[s : s + 1, t : t + 1]
        lo1, hi1 = _feasible_interval(rows.take(one), gamma[one])
        assert (lo1.tobytes(), hi1.tobytes()) == (lo[one].tobytes(), hi[one].tobytes()), (s, t)
    # and every threshold gets the clamped pair it gets alone
    clamped = _clamp(wk, coeffs, cfg, d, J, gamma, sums)
    g = grid_for(ds)
    for t in J:
        alone = _clamp(wk, coeffs, cfg, d, J[t : t + 1], gamma[:, t : t + 1],
                       tuple(s[t : t + 1] for s in sums))
        assert alone[:, 0].tobytes() == clamped[:, t].tobytes(), f"threshold {t}"
        state = store.copy()
        accumulate_update(state, 0, 0, d, float(wk.fb.coarse_edges[t]),
                          float(clamped[0, t]), float(clamped[1, t]), lr)
        assert_feasible(state, fc, g, f"threshold {t}")
    # smoothness-protected degrees clamp through the same routine, as one row
    for dg in range(1, fc.smoothness + 1):
        gam = _clamp(wk, coeffs, cfg, dg, None, np.array([[rng.normal() * 10.0]]))
        state = store.copy()
        accumulate_global(state, 0, 0, dg, float(gam[0, 0]), lr)
        assert_feasible(state, fc, g, f"global degree {dg}")


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
    fc = FeatureConstraint(smoothness=0, max_degree=3, monotone=int(m), curvature=int(c))
    ds = make_dataset(x, np.zeros(x.size))
    wk = _FeatureWork(x, layout_for(ds, 64, 12)[0], fc)
    coeffs = rng.normal(size=(wk.lower.size, 4))
    J = np.flatnonzero(rng.random(wk.fb.coarse_edges.size) < 0.7)
    for j, u in ((J, wk.fb.coarse_edges[J][None, :, None]), (None, wk.fb.x_min)):
        rows = _ClampRows(wk, coeffs, d, lr, j)
        delta = np.broadcast_to(wk.lower - u, rows.mask.shape)
        want_a = [m * a for a in update_deriv_coeffs(delta, d, lr, 1)]
        assert [a.tobytes() for a in rows.A] == [a.tobytes() for a in want_a]
        if d >= 2:
            want_d = [c * a for a in update_deriv_coeffs(delta, d, lr, 2)[:2]]
            assert [a.tobytes() for a in rows.D] == [a.tobytes() for a in want_d]
