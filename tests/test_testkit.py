"""Self-checks for the independent test oracles."""

import math

import numpy as np

from polygam.losses import derivatives, loss_eval

from oracles import (
    brute_force_stump,
    finite_diff_grad,
    finite_diff_second,
    tree_list_eval,
)


def test_stump_finds_step_pattern():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([1.0, 1.0, 3.0, 3.0])
    # squared loss at F=0: g = -2y, h = 2; leaf values are side means of y
    res = brute_force_stump(x, -2.0 * y, np.full(4, 2.0), thresholds=[1.5, 2.5, 3.5])
    assert res is not None
    u, gl, gr, _ = res
    assert u == 2.5
    assert gl == 1.0 and gr == 3.0


def test_stump_constant_residuals_no_improvement():
    x = np.arange(6.0)
    g = np.full(6, -2.0)
    h = np.full(6, 2.0)
    res = brute_force_stump(x, g, h, thresholds=[1.5, 2.5, 4.5])
    u, gl, gr, loss = res
    # any split gives both leaves the common mean; no split beats the pooled value
    assert gl == gr == 1.0
    pooled = -math.fsum(g) ** 2 / (2.0 * math.fsum(h))
    assert loss == pooled


def test_stump_min_leaf_filters_everything():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    res = brute_force_stump(x, -x, np.ones(4), thresholds=[2.5], min_leaf=3)
    assert res is None


def test_stump_shuffle_invariant():
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, 80)
    g = rng.normal(size=80)
    h = rng.uniform(0.5, 2.0, 80)
    thresholds = np.quantile(x, np.linspace(0.1, 0.9, 15))
    base = brute_force_stump(x, g, h, thresholds)
    for _ in range(5):
        p = rng.permutation(80)
        assert brute_force_stump(x[p], g[p], h[p], thresholds) == base


def test_stump_ties_break_to_lowest_threshold():
    # symmetric data: thresholds 1.5 and 2.5 give mirror-image losses
    x = np.array([1.0, 2.0, 3.0])
    g = np.array([-2.0, 0.0, 2.0])
    h = np.ones(3)
    res = brute_force_stump(x, g, h, thresholds=[1.5, 2.5])
    assert res[0] == 1.5


def test_finite_diff_quadratic():
    fn = lambda v: float(v[0] ** 2)
    x = np.array([3.0])
    assert abs(finite_diff_grad(fn, x)[0] - 6.0) <= 1e-6
    assert abs(finite_diff_second(fn, x)[0] - 2.0) <= 1e-4


def test_finite_diff_constant():
    fn = lambda v: 5.0
    x = np.array([1.0, 2.0])
    assert np.array_equal(finite_diff_grad(fn, x), np.zeros(2))
    assert np.array_equal(finite_diff_second(fn, x), np.zeros(2))


def test_finite_diff_cross_checks_softmax_ce():
    y = np.array([1])
    F = np.array([[0.3, -0.4, 1.1]])

    def fn(flat):
        return loss_eval("multiclass", y, flat.reshape(1, 3))

    b = derivatives("multiclass", y, F)
    assert np.abs(finite_diff_grad(fn, F.ravel()) - b.g.ravel()).max() <= 1e-5
    assert np.abs(finite_diff_second(fn, F.ravel()) - b.h.ravel()).max() <= 1e-5


def test_tree_list_eval_single_split_and_global():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    records = [
        {
            "feature": "x0",
            "output": 0,
            "degree": 1,
            "kind": "split",
            "threshold": 1.5,
            "gamma_left": 0.0,
            "gamma_right": 2.0,
        },
        {
            "feature": "x0",
            "output": 0,
            "degree": 0,
            "kind": "global",
            "threshold": None,
            "gamma_left": 4.0,
            "gamma_right": None,
        },
    ]
    F = tree_list_eval(X, ["x0"], np.array([1.0]), records, learning_rate=0.5, x_ref=[0.0])
    # intercept 1 + 0.5*4 everywhere, plus 0.5*2*(x-1.5) right of the split
    want = 3.0 + np.where(X[:, 0] < 1.5, 0.0, 1.0 * (X[:, 0] - 1.5))
    assert np.array_equal(F[:, 0], want)
