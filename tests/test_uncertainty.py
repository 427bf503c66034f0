"""Diagonal-Hessian standard errors and confidence bands."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygam import model, uncertainty
from polygam.booster import TrainConfig, train
from polygam.data import BinLayout, FeatureBins, build_bin_layout
from polygam.errors import ConfigError
from polygam.explain import shape_grid
from polygam.losses import hessian_diag
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    evaluate_shape,
    fine_code,
    predict,
    zero_init,
)
from polygam.uncertainty import (
    attach_se_accumulators,
    param_se,
    shape_ci,
    variance_pred,
)

from conftest import make_dataset, single_feature_store
from oracles import dense_bin_transform


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
    with pytest.raises(ConfigError):
        param_se(store, 0, 0)


def test_a_band_needs_accumulators():
    # without them the variance is unknown, not 0: no zero-width band
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    for band in (lambda: variance_pred(store, 0, 0, 0.5), lambda: shape_ci(store, 0, 0, 0.5),
                 lambda: shape_grid(store, 0, 0, with_ci=True)):
        with pytest.raises(ConfigError, match="no uncertainty accumulators"):
            band()


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


@pytest.mark.parametrize("z", [-1.0, float("nan"), float("inf"), "1.96"])
def test_shape_ci_refuses_a_z_that_is_not_finite_and_non_negative(z):
    # a negative z would give lo > hi, a NaN z NaN bounds
    store = store_with_counts([50, 50], FeatureConstraint(max_degree=0))
    with pytest.raises(ConfigError, match="z must be a finite number >= 0"):
        shape_ci(store, 0, 0, 0.5, z=z)


def test_shape_ci_with_z_zero_is_the_shape_value_everywhere():
    # outside [x_min, x_max] se is infinite, and 0 * inf is NaN
    store = store_with_counts([30, 20, 10])
    store.params[0][0].poly_coeffs[:, 1] = 0.5
    x = np.array([-1.0, 0.5, 2.5, 9.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, lo, hi = shape_ci(store, 0, 0, x, z=0.0)
        assert np.isinf(variance_pred(store, 0, 0, x)[[0, 3]]).all()
        assert shape_ci(store, 0, 0, 9.0, z=0) == (f[3], f[3], f[3])
    assert np.array_equal(lo, f) and np.array_equal(hi, f) and np.isfinite(f).all()


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
    # the band's f is the grid's f, to the bit
    plain = shape_grid(store, 0, 0)
    for name in ("x", "f", "f_prime", "f_double_prime"):
        assert getattr(grid, name).tobytes() == getattr(plain, name).tobytes()


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


def test_attach_finds_each_training_value_fine_code_once(monkeypatch):
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.normal(size=(80, 3)), rng.integers(0, 3, 80), task="multiclass")
    spec = ConstraintSpec.default(ds, outputs_for={"x1": [], "x2": [1]})
    store = zero_init(build_bin_layout(ds), "multiclass", 3, ds.feature_names, spec)
    calls = []

    def counting_fine_code(fb, x):
        calls.append(fb)
        return fine_code(fb, x)

    monkeypatch.setattr(model, "fine_code", counting_fine_code)
    monkeypatch.setattr(uncertainty, "fine_code", counting_fine_code)
    attach_se_accumulators(store, ds.X)
    assert calls == [store.layout[0], store.layout[2]]


def test_predict_returns_compact_fine_codes_of_used_features():
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.normal(size=(50, 2)), rng.normal(size=50))
    spec = ConstraintSpec.default(ds, outputs_for={"x1": []})
    store = zero_init(build_bin_layout(ds), "regression", 1, ds.feature_names, spec)
    F, codes = predict(store, ds.X, return_codes=True)
    assert np.array_equal(F, predict(store, ds.X))
    assert codes[0].dtype == np.uint8
    assert np.array_equal(codes[0], fine_code(store.layout[0], ds.X[:, 0]))
    assert codes[1] is None


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


# ---------------------------------------------------------------------------
# sparse basis against the dense transform


def dense_accumulators(store, X):
    """(se_fine, se_coarse) from the N x pieces dense basis: each degree-d
    accumulator is sum_n h_n * x*_b(x_n)^(2d) over every row."""
    h = hessian_diag(store.task, predict(store, X))
    J, K = store.n_outputs, len(store.feature_names)
    fine = [[None] * K for _ in range(J)]
    coarse = [[None] * K for _ in range(J)]
    for i, k in zip(*np.nonzero(store.constraints.allow_mask)):
        fb = store.layout[k]
        xs = dense_bin_transform(X[:, k], fb.coarse_edges)
        fine[i][k] = np.bincount(fine_code(fb, X[:, k]), weights=h[:, i],
                                 minlength=fb.n_fine_bins)
        coarse[i][k] = np.zeros((fb.n_coarse_bins, 3))
        for d in range(1, min(store.constraints.features[k].max_degree, 3) + 1):
            coarse[i][k][:, d - 1] = (h[:, i, None] * xs ** (2 * d)).sum(axis=0)
    return fine, coarse


def dense_variance(store, i, k, x):
    """Variance at x summed over every (bin, degree) of the dense basis: a
    zero basis value adds nothing, an empty accumulator under a nonzero
    basis value adds inf, and outside [x_min, x_max] it is inf."""
    fb = store.layout[k]
    acc_fine, acc = store.se_fine[i][k], store.se_coarse[i][k]
    fa = acc_fine[fine_code(fb, x)]
    with np.errstate(divide="ignore"):
        var = np.where(fa > 0.0, 1.0 / fa, np.inf)
    for b, xs in enumerate(dense_bin_transform(x, fb.coarse_edges).T):
        for d in range(1, min(store.constraints.features[k].max_degree, 3) + 1):
            w = xs ** (2 * d)
            term = np.inf if acc[b, d - 1] <= 0.0 else w / acc[b, d - 1]
            var = var + np.where(w > 0.0, term, 0.0)
    return np.where((x < fb.x_min) | (x > fb.x_max), np.inf, var)


@st.composite
def se_cases(draw):
    """A two-feature store with random shapes and grids, and rows to attach.

    Knots sit on a half-unit grid around 0, so x_min is usually negative;
    `zero_edge` puts a coarse knot at 0.0, whose saturated basis value is 0,
    and `empty` drops every row of one coarse piece (the one below 0.0 when
    both are drawn). Masked pairs are drawn over a 1-3 output task."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    task, J = draw(st.sampled_from([("regression", 1), ("binary", 1), ("multiclass", 3)]))
    zero_edge, empty = draw(st.booleans()), draw(st.booleans())
    feats, cons = [], []
    for _ in range(2):
        fine = 0.5 * rng.choice(np.arange(-12, 13), draw(st.integers(1, 10)), replace=False)
        fine = np.union1d(fine, [0.0]) if zero_edge else np.sort(fine)
        coarse = fine[rng.random(fine.size) < 0.5]
        coarse = np.union1d(coarse, [0.0]) if zero_edge else coarse
        lo, hi = fine[0] - rng.uniform(0.1, 2.0), fine[-1] + rng.uniform(0.1, 2.0)
        feats.append(FeatureBins(fine_edges=fine, coarse_edges=coarse, x_min=lo, x_max=hi))
        cons.append(FeatureConstraint(max_degree=draw(st.integers(0, 3))))
    mask = rng.random((J, 2)) < 0.7
    spec = ConstraintSpec(features=cons, allow_mask=mask)
    store = zero_init(BinLayout(features=feats), task, J, ["x0", "x1"], spec)
    for i, k in zip(*np.nonzero(mask)):
        sp = store.params[i][k]
        sp.step_values[:] = rng.normal(scale=0.3, size=sp.step_values.shape)
        sp.poly_coeffs[:, : cons[k].max_degree + 1] = rng.normal(
            scale=0.3, size=(sp.poly_coeffs.shape[0], cons[k].max_degree + 1))
    n = int(rng.integers(5, 60))
    cols = []
    for fb in feats:
        x = np.concatenate((rng.uniform(fb.x_min, fb.x_max, n), fb.fine_edges,
                            [fb.x_min, fb.x_max]))
        if empty and fb.coarse_edges.size:
            piece = np.searchsorted(fb.coarse_edges, x, side="right")
            gone = int(np.searchsorted(fb.coarse_edges, 0.0)) if zero_edge else \
                int(rng.integers(0, fb.n_coarse_bins))
            x = x[piece != gone]
        cols.append(rng.permutation(np.resize(x, n + 12)))
    return store, np.column_stack(cols)


@given(se_cases())
def test_sparse_se_matches_dense_oracle(case):
    store, X = case
    fine, coarse = dense_accumulators(store, X)
    attach_se_accumulators(store, X)
    for i in range(store.n_outputs):
        for k in range(2):
            if fine[i][k] is None:
                assert store.se_fine[i][k] is None and store.se_coarse[i][k] is None
                assert variance_pred(store, i, k, 0.0) == 0.0
                continue
            assert store.se_fine[i][k].tobytes() == fine[i][k].tobytes()
            got, want = store.se_coarse[i][k], coarse[i][k]
            assert np.all(np.abs(got - want) <= 1e-12 * want), (got, want)
            fb = store.layout[k]
            grid = np.concatenate((np.linspace(fb.x_min - 1.0, fb.x_max + 1.0, 41),
                                   fb.fine_edges, [fb.x_min, fb.x_max]))
            got, want = variance_pred(store, i, k, grid), dense_variance(store, i, k, grid)
            assert np.array_equal(np.isinf(got), np.isinf(want))
            ok = np.isfinite(want)
            assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * want[ok]), (got, want)
