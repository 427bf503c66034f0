"""Diagonal-Hessian standard errors and confidence bands."""

import numpy as np
import pytest

from polygam.booster import TrainConfig, train
from polygam.explain import shape_grid
from polygam.model import FeatureConstraint, evaluate_shape
from polygam.uncertainty import (
    attach_se_accumulators,
    param_se,
    shape_ci,
    variance_pred,
)

from conftest import make_dataset, single_feature_store


def store_with_counts(counts, constraint=None):
    """One feature, bins sized per `counts`; regression so h = 2 per sample."""
    edges = [float(i) for i in range(1, len(counts))]
    store = single_feature_store(
        edges, edges, 0.0, float(len(counts)), constraint=constraint
    )
    xs = np.concatenate(
        [np.full(c, b + 0.5) for b, c in enumerate(counts)]
    ).reshape(-1, 1)
    attach_se_accumulators(store, xs)
    return store


def test_param_se_fifty_samples_gives_point_one():
    store = store_with_counts([50, 50], FeatureConstraint(max_degree=0))
    table = param_se(store, 0, 0)
    # h = 2 each: accumulator 100 -> SE = 0.1
    assert table.fine_se.tolist() == [0.1, 0.1]
    assert not table.any_infinite


def test_param_se_empty_bin_is_infinite():
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    attach_se_accumulators(store, np.full((10, 1), 0.5))  # all left of the edge
    table = param_se(store, 0, 0)
    assert table.fine_se[0] == pytest.approx(1.0 / np.sqrt(20.0))
    assert np.isinf(table.fine_se[1])
    assert table.any_infinite


def test_param_se_requires_accumulators():
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    with pytest.raises(ValueError):
        param_se(store, 0, 0)


def test_doubling_data_shrinks_se_by_sqrt2():
    a = param_se(store_with_counts([40, 40]), 0, 0).fine_se
    b = param_se(store_with_counts([80, 80]), 0, 0).fine_se
    assert b == pytest.approx(a / np.sqrt(2.0), rel=1e-12)


def test_variance_single_step_term():
    store = store_with_counts([50, 50], FeatureConstraint(max_degree=0))
    # degree 0 only: variance is 1/accumulator of the containing fine bin
    assert variance_pred(store, 0, 0, 0.5) == pytest.approx(0.01, abs=1e-15)


def test_ci_halfwidth_point196():
    store = store_with_counts([50, 50], FeatureConstraint(max_degree=0))
    f, lo, hi = shape_ci(store, 0, 0, 0.5)
    assert hi - f == pytest.approx(1.96 * 0.1, abs=1e-12)
    assert f - lo == pytest.approx(1.96 * 0.1, abs=1e-12)


def test_ci_midpoint_is_shape_value():
    rng = np.random.default_rng(0)
    store = store_with_counts([30, 20, 10])
    store.params[0][0].step_values[:] = rng.normal(size=3)
    store.params[0][0].poly_coeffs[:] = rng.normal(size=(3, 4))
    xs = rng.uniform(0.0, 3.0, 50)
    f, lo, hi = shape_ci(store, 0, 0, xs)
    # the returned center is the shape value itself; the band is built as
    # f +- z*se, so the recomputed midpoint agrees to rounding
    assert np.array_equal(f, evaluate_shape(store, 0, 0, xs))
    assert np.allclose(0.5 * (lo + hi), f, rtol=1e-12, atol=1e-14)


def test_zero_data_region_propagates_infinite_band():
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    attach_se_accumulators(store, np.full((10, 1), 0.5))
    _, lo, hi = shape_ci(store, 0, 0, 1.5)
    assert np.isinf(hi) and np.isinf(lo)
    _, lo2, hi2 = shape_ci(store, 0, 0, 0.5)
    assert np.isfinite(lo2) and np.isfinite(hi2)


def test_band_is_infinite_outside_the_observed_range_only():
    store = store_with_counts([30, 20, 10])  # observed range [0, 3]
    x = np.array([-1.0, 0.0, 1.5, 3.0, 4.0])
    f, lo, hi = shape_ci(store, 0, 0, x)
    assert np.isfinite(f).all()
    assert (lo[[0, 4]] == -np.inf).all() and (hi[[0, 4]] == np.inf).all()
    assert np.isfinite(lo[1:4]).all() and np.isfinite(hi[1:4]).all()
    assert variance_pred(store, 0, 0, 3.0 + 1e-12) == np.inf
    # the grid spans [x_min, x_max] itself, so its ends stay finite
    grid = shape_grid(store, 0, 0, with_ci=True)
    assert np.isfinite(grid.ci_lower).all() and np.isfinite(grid.ci_upper).all()


def test_variance_skips_coarse_terms_below_their_bin():
    # x in the first piece: later pieces have transform 0 there, and their
    # (possibly empty) accumulators must not inject infinities
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    attach_se_accumulators(store, np.full((10, 1), 0.5))
    v = variance_pred(store, 0, 0, 0.5)
    assert np.isfinite(v)


def test_higher_degree_accumulators_weight_by_even_powers():
    x = np.full((10, 1), 2.0)
    store = single_feature_store([], [], 0.0, 3.0)
    attach_se_accumulators(store, x)
    # single coarse piece, x* = 2: accumulator for degree d is sum h * 2^(2d)
    acc = store.se_coarse[0][0]
    assert acc[0].tolist() == [20.0 * 4.0, 20.0 * 16.0, 20.0 * 64.0]


def test_masked_pair_has_no_accumulators():
    rng = np.random.default_rng(1)
    ds = make_dataset(rng.normal(size=(60, 2)), rng.integers(0, 2, 60), task="binary")
    from polygam.model import ConstraintSpec
    from polygam.model import zero_init
    from polygam.data import build_bin_layout

    spec = ConstraintSpec.default(ds, outputs_for={"x1": []})
    store = zero_init(build_bin_layout(ds), "binary", 1, ds.feature_names, spec)
    attach_se_accumulators(store, ds.X)
    assert store.se_fine[0][0] is not None
    assert store.se_fine[0][1] is None
    assert variance_pred(store, 0, 1, 0.0) == 0.0


def test_band_width_shrinks_with_more_data_end_to_end():
    widths = []
    for n in (200, 800):
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, n)
        y = 2 * x + rng.normal(scale=0.5, size=n)
        ds = make_dataset(x, y)
        cfg = TrainConfig(
            max_iterations=150, early_stopping_patience=0, validation_fraction=0.0
        )
        res = train(ds, config=cfg)
        attach_se_accumulators(res.store, ds.X)
        f, lo, hi = shape_ci(res.store, 0, 0, 0.5)
        widths.append(hi - lo)
    assert widths[1] < widths[0]
