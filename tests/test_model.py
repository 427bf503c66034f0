"""Parameter store: evaluation, update folding, masking, knots, serialization."""

import inspect
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygam.booster import TrainConfig, train
from polygam.data import BinLayout, FeatureBins, FineTable
from polygam.errors import ConfigError, DataError
from polygam.losses import link_apply
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    ParameterStore,
    accumulate_global,
    accumulate_update,
    dumps_model,
    evaluate_derivative,
    evaluate_shape,
    fine_code,
    knot_gaps,
    load_model,
    locate,
    predict,
    save_model,
    zero_init,
)
from polygam import model

import oracles
from conftest import layout_for, make_dataset, single_feature_store
from oracles import reference_dumps


# ---------------------------------------------------------------------------
# constraints


def test_constraint_defaults_are_valid():
    assert FeatureConstraint().validate("x") == []


def test_constraint_smoothness_bound():
    errs = FeatureConstraint(smoothness=2, max_degree=2).validate("x")
    assert any("S <= D-1" in e for e in errs)


def test_constraint_curvature_needs_continuity_and_degree():
    errs = FeatureConstraint(curvature=1).validate("x")
    assert any("curvature" in e for e in errs)
    errs = FeatureConstraint(curvature=1, smoothness=0, max_degree=1).validate("x")
    assert errs
    assert FeatureConstraint(curvature=1, smoothness=0, max_degree=2).validate("x") == []


def test_constraint_bad_signs():
    assert FeatureConstraint(monotone=2).validate("x")
    assert FeatureConstraint(curvature=-3, smoothness=0, max_degree=2).validate("x")


def test_default_spec_outputs_for_builds_mask():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(30, 3)), rng.integers(0, 3, 30), task="multiclass")
    spec = ConstraintSpec.default(ds, outputs_for={"x1": [2]})
    assert spec.allow_mask[:, 0].all() and spec.allow_mask[:, 2].all()
    assert spec.allow_mask[:, 1].tolist() == [False, False, True]


def test_default_spec_unknown_feature_name():
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(30, 2)), rng.normal(size=30))
    with pytest.raises(ConfigError):
        ConstraintSpec.default(ds, outputs_for={"nope": [0]})


def test_default_spec_categorical_forced_to_steps():
    rng = np.random.default_rng(1)
    X = np.column_stack([rng.normal(size=40), rng.integers(0, 2, 40)])
    ds = make_dataset(X, rng.normal(size=40), kinds=["numeric", "categorical"])
    spec = ConstraintSpec.default(ds, smoothness=2, max_degree=3)
    assert spec.features[0].smoothness == 2
    assert spec.features[1].max_degree == 0 and spec.features[1].smoothness == -1


def test_multi_output_constrained_feature_warns():
    rng = np.random.default_rng(2)
    ds = make_dataset(rng.normal(size=(60, 1)), rng.integers(0, 3, 60), task="multiclass")
    spec = ConstraintSpec.default(
        ds, overrides={"x0": FeatureConstraint(monotone=1)}
    )
    with pytest.warns(UserWarning, match="multiple"):
        spec.validate(ds.feature_names, ds.n_outputs)


@pytest.mark.parametrize("kw, what", [
    (dict(max_degree=3.0), "D"),
    (dict(smoothness=0.0), "S"),
    (dict(monotone=1.0, smoothness=0, max_degree=2), "monotone sign"),
    (dict(curvature=-1.0, smoothness=0, max_degree=2), "curvature sign"),
    (dict(max_degree="3"), "D"),
])
def test_train_refuses_constraint_values_that_are_not_integers(kw, what):
    rng = np.random.default_rng(3)
    ds = make_dataset(rng.uniform(size=(60, 1)), rng.normal(size=60))
    spec = ConstraintSpec([FeatureConstraint(**kw)], np.ones((1, 1), dtype=bool))
    with pytest.raises(ConfigError, match=f"'x0': {what} must be an integer"):
        train(ds, constraints=spec,
              config=TrainConfig(max_iterations=3, early_stopping_patience=0))


def test_numpy_integer_constraint_values_are_integers():
    fc = FeatureConstraint(*(np.int64(v) for v in (0, 2, 1, -1)))
    assert fc.validate("x") == []


@pytest.mark.parametrize("index", [0.0, 1.5, "0"])
def test_default_spec_refuses_output_indices_that_are_not_integers(index):
    rng = np.random.default_rng(0)
    ds = make_dataset(rng.normal(size=(30, 2)), rng.integers(0, 3, 30), task="multiclass")
    with pytest.raises(ConfigError, match="'x1': output index must be an integer in 0..2"):
        ConstraintSpec.default(ds, outputs_for={"x1": [index]})
    assert ConstraintSpec.default(ds, outputs_for={"x1": [np.int64(2)]}).allow_mask[2, 1]


# ---------------------------------------------------------------------------
# evaluation


def test_zero_store_evaluates_to_zero():
    store = single_feature_store([0.0], [0.0], -1.0, 1.0)
    for x in (-5.0, 0.0, 0.25, 7.0):
        assert evaluate_shape(store, 0, 0, x) == 0.0
        assert evaluate_derivative(store, 0, 0, x, 1) == 0.0


def test_single_bin_linear_plus_step():
    store = single_feature_store([], [], 0.0, 5.0)
    store.params[0][0].step_values[:] = 1.0
    store.params[0][0].poly_coeffs[0, 1] = 2.0
    assert evaluate_shape(store, 0, 0, 3.0) == 7.0


def test_derivative_of_quadratic_piece():
    store = single_feature_store([], [], 0.0, 5.0)
    store.params[0][0].poly_coeffs[0, 2] = 1.0
    assert evaluate_derivative(store, 0, 0, 3.0, 1) == 6.0


def test_second_derivative_of_cubic_piece():
    store = single_feature_store([], [], 0.0, 5.0)
    store.params[0][0].poly_coeffs[0, 3] = 2.0
    assert evaluate_derivative(store, 0, 0, 1.0, 2) == 12.0


def test_derivative_rejects_other_orders():
    store = single_feature_store([], [], 0.0, 1.0)
    with pytest.raises(ValueError):
        evaluate_derivative(store, 0, 0, 0.5, 3)


def test_derivative_matches_finite_differences_off_knots():
    rng = np.random.default_rng(3)
    store = single_feature_store([1.0, 2.0, 3.0], [2.0], 0.0, 4.0)
    store.params[0][0].poly_coeffs[:] = rng.normal(size=(2, 4))
    for _ in range(100):
        x = float(rng.uniform(0.05, 3.95))
        if min(abs(x - e) for e in (1.0, 2.0, 3.0)) < 0.02:
            continue
        d = 1e-5
        fd1 = (evaluate_shape(store, 0, 0, x + d) - evaluate_shape(store, 0, 0, x - d)) / (2 * d)
        an1 = evaluate_derivative(store, 0, 0, x, 1)
        assert abs(fd1 - an1) <= 1e-6 * max(1.0, abs(an1))


def test_evaluation_total_over_reals():
    store = single_feature_store([0.0, 1.0], [1.0], -1.0, 2.0)
    store.params[0][0].poly_coeffs[:] = 0.5
    store.params[0][0].step_values[:] = -0.25
    xs = np.array([-1e12, -1.0, 0.0, 0.5, 1.0, 2.0, 1e12])
    vals = evaluate_shape(store, 0, 0, xs)
    assert np.isfinite(vals).all()


@st.composite
def nested_grids(draw):
    """Strictly ascending fine edges, a subset of them as coarse edges, and
    query values that include every edge exactly."""
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    fine = np.unique(np.array(draw(st.lists(finite, max_size=30)), dtype=float))
    keep = np.array(draw(st.lists(st.booleans(), min_size=fine.size, max_size=fine.size)),
                    dtype=bool)
    extra = draw(st.lists(finite, max_size=30))
    x = np.concatenate([fine, np.nextafter(fine, -np.inf), extra, [-1e300, 1e300]])
    x_min = float(min(x.min(), -1e6))
    return FeatureBins(fine, fine[keep], x_min, float(x.max())), x


@given(nested_grids())
def test_piece_of_fine_matches_search_on_coarse_edges(grid):
    fb, x = grid
    piece, t = locate(fb, x, fine_code(fb, x))
    want = np.searchsorted(fb.coarse_edges, x, side="right")
    assert np.array_equal(piece, want)
    assert t.tobytes() == (x - fb.coarse_lower_edges[want]).tobytes()


# ---------------------------------------------------------------------------
# update folding


def test_degree0_update_shifts_step_layer():
    store = single_feature_store([1.0, 2.0], [2.0], 0.0, 3.0)
    accumulate_update(store, 0, 0, 0, 2.0, gamma_left=1.0, gamma_right=3.0, learning_rate=1.0)
    assert store.params[0][0].step_values.tolist() == [1.0, 1.0, 3.0]


def test_degree0_threshold_must_be_fine_edge():
    store = single_feature_store([1.0, 2.0], [2.0], 0.0, 3.0)
    with pytest.raises(ValueError):
        accumulate_update(store, 0, 0, 0, 1.5, 1.0, 1.0, 1.0)


def test_degree1_update_right_side_local_coeffs():
    store = single_feature_store([2.0], [2.0], 2.0, 4.0)
    accumulate_update(store, 0, 0, 1, 2.0, gamma_left=0.0, gamma_right=1.0, learning_rate=1.0)
    right = store.params[0][0].poly_coeffs[1]
    assert right.tolist() == [0.0, 1.0, 0.0, 0.0]
    # both one-sided limits at the split are zero
    assert evaluate_shape(store, 0, 0, 2.0) == 0.0
    assert evaluate_shape(store, 0, 0, 2.0 - 1e-12) == 0.0


def test_degree2_expansion_matches_pointwise_monomial():
    store = single_feature_store([0.0], [0.0], -3.0, 3.0)
    accumulate_update(store, 0, 0, 2, 0.0, gamma_left=1.0, gamma_right=0.0, learning_rate=1.0)
    # left piece holds (x-0)^2 expanded at lower edge -3: t^2 - 6t + 9
    assert store.params[0][0].poly_coeffs[0].tolist() == [9.0, -6.0, 1.0, 0.0]
    rng = np.random.default_rng(4)
    for x in rng.uniform(-3.0, 3.0, size=50):
        want = x * x if x < 0.0 else 0.0
        assert evaluate_shape(store, 0, 0, float(x)) == pytest.approx(want, abs=1e-12)


def test_zero_gammas_leave_store_unchanged():
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    before = dumps_model(store)
    accumulate_update(store, 0, 0, 1, 1.0, 0.0, 0.0, 0.5)
    assert dumps_model(store) == before


def test_degree1_threshold_must_be_coarse_edge():
    store = single_feature_store([1.0, 2.0], [2.0], 0.0, 3.0)
    with pytest.raises(ValueError):
        accumulate_update(store, 0, 0, 1, 1.0, 1.0, 1.0, 1.0)  # fine-only edge


def bad_fold_store():
    """Two outputs over one feature with S = 1, D = 3; output 1 is masked out."""
    store = single_feature_store([1.0, 2.0], [2.0], 0.0, 3.0, n_outputs=2, task="multiclass",
                                 constraint=FeatureConstraint(smoothness=1, max_degree=3))
    store.constraints.allow_mask[1, 0] = False
    return store


@pytest.mark.parametrize("args, match", [
    ((5, 0, 2, 2.0, 1.0, 1.0, 1.0), "output index"),
    ((0, -1, 2, 2.0, 1.0, 1.0, 1.0), "feature index"),
    ((1, 0, 2, 2.0, 1.0, 1.0, 1.0), "masked out"),
    ((0, 0, 4, 2.0, 1.0, 1.0, 1.0), r"integer in 2\.\.3"),
    ((0, 0, -1, 2.0, 1.0, 1.0, 1.0), "degree"),
    ((0, 0, 1.5, 2.0, 1.0, 1.0, 1.0), "degree"),
    ((0, 0, 1, 2.0, 1.0, 1.0, 1.0), "degree"),  # a split of degree <= S breaks C^1
    ((0, 0, 0, 2.0, 1.0, 1.0, 1.0), "degree"),
    ((0, 0, 2, 2.0, float("nan"), 1.0, 1.0), "finite"),
    ((0, 0, 2, 2.0, 1.0, -float("inf"), 1.0), "finite"),
    ((0, 0, 2, 2.0, 1.0, 1.0, float("nan")), "finite"),
    ((0, 0, 2, 1.0, 1.0, 1.0, 1.0), "not a coarse-grid edge"),
])
def test_accumulate_update_refuses_bad_input(args, match):
    store = bad_fold_store()
    before = dumps_model(store)
    with pytest.raises(ConfigError, match=match):
        accumulate_update(store, *args)
    assert dumps_model(store) == before


@pytest.mark.parametrize("args, match", [
    ((2, 0, 1, 1.0, 1.0), "output index"),
    ((0, 1, 1, 1.0, 1.0), "feature index"),
    ((1, 0, 1, 1.0, 1.0), "masked out"),
    ((0, 0, 7, 1.0, 1.0), r"integer in 0\.\.3"),
    ((0, 0, -1, 1.0, 1.0), "degree"),
    ((0, 0, 1.5, 1.0, 1.0), "degree"),
    ((0, 0, 1, float("nan"), 1.0), "finite"),
    ((0, 0, 1, 1.0, float("inf")), "finite"),
])
def test_accumulate_global_refuses_bad_input(args, match):
    store = bad_fold_store()
    before = dumps_model(store)
    with pytest.raises(ConfigError, match=match):
        accumulate_global(store, *args)
    assert dumps_model(store) == before


def test_global_degree0_shifts_every_step_value():
    store = single_feature_store([1.0, 2.0], [2.0], 0.0, 3.0)
    accumulate_global(store, 0, 0, 0, gamma=5.0, learning_rate=0.1)
    assert store.params[0][0].step_values.tolist() == [0.5, 0.5, 0.5]


def test_global_slope_raises_f_by_twenty_over_ten():
    store = single_feature_store([5.0], [5.0], 0.0, 10.0)
    before = evaluate_shape(store, 0, 0, 10.0) - evaluate_shape(store, 0, 0, 0.0)
    accumulate_global(store, 0, 0, 1, gamma=2.0, learning_rate=1.0)
    after = evaluate_shape(store, 0, 0, 10.0) - evaluate_shape(store, 0, 0, 0.0)
    assert after - before == pytest.approx(20.0, abs=1e-12)


def test_global_zero_gamma_noop():
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    before = dumps_model(store)
    accumulate_global(store, 0, 0, 2, 0.0, 0.1)
    assert dumps_model(store) == before


def test_global_cubic_matches_monomial_pointwise():
    store = single_feature_store([1.0, 2.0], [1.0, 2.0], -1.0, 3.0)
    accumulate_global(store, 0, 0, 3, gamma=0.7, learning_rate=0.5)
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.0, 3.0, size=50):
        want = 0.5 * 0.7 * (x - (-1.0)) ** 3
        assert evaluate_shape(store, 0, 0, float(x)) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# prediction and masking


def test_zero_model_regression_predicts_zero():
    store = single_feature_store([0.0], [0.0], -1.0, 1.0)
    F = predict(store, np.array([[0.3], [0.9]]))
    assert np.array_equal(F, np.zeros((2, 1)))


def test_zero_model_multiclass_uniform_probabilities():
    store = single_feature_store([0.0], [0.0], -1.0, 1.0, n_outputs=3, task="multiclass")
    F = predict(store, np.array([[0.5]]))
    p = link_apply("multiclass", F)
    assert p[0].tolist() == [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]


def test_masked_feature_cannot_touch_output():
    fb0 = FeatureBins(np.array([0.0]), np.array([0.0]), -1.0, 1.0)
    fb1 = FeatureBins(np.array([0.0]), np.array([0.0]), -1.0, 1.0)
    layout = BinLayout(features=[fb0, fb1])
    mask = np.array([[True, False], [True, True]])
    spec = ConstraintSpec(
        features=[FeatureConstraint(), FeatureConstraint()], allow_mask=mask
    )
    store = zero_init(layout, "multiclass", 2, ["a", "b"], spec)
    store.params[0][1].step_values[:] = 99.0  # must be ignored by the mask
    store.params[1][1].step_values[:] = 1.0
    base = predict(store, np.array([[0.2, 0.2]]))
    bumped = predict(store, np.array([[0.2, 0.9]]))
    assert base[0, 0] == bumped[0, 0]
    assert base[0, 1] == bumped[0, 1]  # same bin either way
    assert base[0, 0] == 0.0


def test_predict_rejects_wrong_width():
    store = single_feature_store([0.0], [0.0], -1.0, 1.0)
    with pytest.raises(DataError):
        predict(store, np.zeros((3, 2)))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_predict_refuses_non_finite_values(bad):
    feats = [FeatureBins(np.array([0.0]), np.array([0.0]), -1.0, 1.0) for _ in range(2)]
    spec = ConstraintSpec(features=[FeatureConstraint()] * 2, allow_mask=np.ones((1, 2), bool))
    store = zero_init(BinLayout(features=feats), "regression", 1, ["a", "b"], spec)
    X = np.zeros((4, 2))
    X[2, 1] = bad
    with pytest.raises(DataError, match=r"'b' holds a non-finite value at row 2"):
        predict(store, X)


def test_predict_equals_intercept_plus_shapes_bitwise():
    rng = np.random.default_rng(12)
    feats = []
    for _ in range(3):
        fine = np.sort(rng.choice(np.linspace(-2.0, 2.0, 41)[1:-1], 9, replace=False))
        feats.append(FeatureBins(fine, fine[1::3].copy(), -2.0, 2.0))
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 2] = False
    spec = ConstraintSpec(features=[FeatureConstraint()] * 3, allow_mask=mask)
    store = zero_init(BinLayout(features=feats), "multiclass", 3, ["a", "b", "c"], spec)
    store.intercepts[:] = rng.normal(size=3)
    for row in store.params:
        for sp in row:
            sp.step_values[:] = rng.normal(size=sp.step_values.shape)
            sp.poly_coeffs[:] = rng.normal(size=sp.poly_coeffs.shape)
    X = rng.uniform(-3.0, 3.0, size=(200, 3))
    X[:9, 0] = feats[0].fine_edges  # values on knots go to the piece above
    F = predict(store, X)
    for i in range(3):
        expect = np.full(X.shape[0], store.intercepts[i])
        for k in range(3):
            if mask[i, k]:
                expect += evaluate_shape(store, i, k, X[:, k])
        assert np.array_equal(F[:, i], expect)


# ---------------------------------------------------------------------------
# knot gaps


def test_knot_gaps_flag_step_discontinuity():
    store = single_feature_store([1.0, 2.0], [2.0], 0.0, 3.0)
    accumulate_update(store, 0, 0, 0, 1.0, 0.0, 2.0, 1.0)
    gaps = knot_gaps(store, 0, 0, order=0)
    assert gaps.tolist() == [2.0, 0.0]


def test_knot_gaps_zero_for_global_polynomial():
    store = single_feature_store([1.0, 2.0], [1.0, 2.0], 0.0, 3.0)
    accumulate_global(store, 0, 0, 3, gamma=1.3, learning_rate=1.0)
    for order in (0, 1, 2):
        assert np.abs(knot_gaps(store, 0, 0, order)).max() <= 1e-12


def test_knot_gaps_detect_slope_break():
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    accumulate_update(store, 0, 0, 1, 1.0, gamma_left=0.0, gamma_right=1.0, learning_rate=1.0)
    assert abs(knot_gaps(store, 0, 0, 0)[0]) <= 1e-15
    assert knot_gaps(store, 0, 0, 1)[0] == 1.0


@pytest.mark.parametrize("fn,order", [
    (evaluate_derivative, 1.0), (evaluate_derivative, 0), (evaluate_derivative, 3),
    (evaluate_derivative, "1"), (knot_gaps, -1), (knot_gaps, 1.5), (knot_gaps, 2.0),
    (knot_gaps, 3), (knot_gaps, None),
])
def test_derivative_orders_outside_their_range_are_config_errors(fn, order):
    # evaluate_derivative takes the integers 1 and 2, knot_gaps 0 to 2;
    # floats, negatives and higher orders are refused alike
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    args = (0.5, order) if fn is evaluate_derivative else (order,)
    with pytest.raises(ConfigError, match="order must be"):
        fn(store, 0, 0, *args)


# ---------------------------------------------------------------------------
# serialization


def random_trained_store(seed=6, fine_edges=(0.5, 1.0, 1.5)):
    rng = np.random.default_rng(seed)
    store = single_feature_store(fine_edges, [1.0], 0.0, 2.0)
    store.intercepts[0] = rng.normal()
    store.params[0][0].step_values[:] = rng.normal(size=len(fine_edges) + 1)
    store.params[0][0].poly_coeffs[:] = rng.normal(size=(2, 4))
    return store


def test_save_load_round_trip_exact(tmp_path):
    store = random_trained_store()
    path = tmp_path / "m.json"
    save_model(store, path)
    loaded = load_model(path)
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.0, 3.0, size=(100, 1))
    assert np.array_equal(predict(store, X), predict(loaded, X))


def test_save_load_save_byte_identical(tmp_path):
    store = random_trained_store()
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(store, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fine_table_is_built_once_read_only_and_never_saved(monkeypatch):
    # a grid of more than SEARCH_MAX_EDGES edges, so predict reads the table
    store = random_trained_store(fine_edges=np.linspace(0.125, 1.875, 15))
    assert store.layout[0].fine_edges.size > model.SEARCH_MAX_EDGES
    fb = store.layout[0]
    before = dumps_model(store)
    builds = []
    init = FineTable.__init__
    monkeypatch.setattr(FineTable, "__init__", lambda self, e: builds.append(e) or init(self, e))
    X = np.linspace(-1.0, 3.0, model.TABLE_MIN_VALUES)[:, None]
    assert np.array_equal(predict(store, X), predict(store, X))
    assert len(builds) == 1 and fb.fine_table is fb.fine_table
    assert not fb.fine_table.top.flags.writeable and not fb.fine_table.padded.flags.writeable
    assert dumps_model(store) == before


def test_load_rejects_unknown_version(tmp_path):
    store = random_trained_store()
    path = tmp_path / "m.json"
    save_model(store, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = "999"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="version"):
        load_model(path)


def test_load_rejects_corrupt_numbers(tmp_path):
    store = random_trained_store()
    path = tmp_path / "m.json"
    save_model(store, path)
    txt = path.read_text().replace(":", ":", 1)
    path.write_text(txt[: len(txt) // 2])
    with pytest.raises(Exception):
        load_model(path)


def saved_doc(tmp_path):
    path = tmp_path / "m.json"
    save_model(random_trained_store(), path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda doc: b'{"format_version": ', "is not a JSON model file"),
        (lambda doc: b"\xff\xfe{}", "is not a JSON model file"),
        (lambda doc: b"[1, 2]", "holds a JSON list, not a model object"),
        (lambda doc: b'"model"', "holds a JSON str, not a model object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "features"}, "missing key 'features'"),
        (lambda doc: {**doc, "params": [[{"step_values": []}]]}, "missing key 'poly_coeffs'"),
        (lambda doc: {**doc, "params": 5}, "not a polygam model: 'int' object is not iterable"),
    ],
    ids=["truncated", "not-utf8", "list", "string", "no-features", "no-poly-coeffs", "int-params"],
)
def test_load_refuses_documents_that_are_not_models(tmp_path, edit, match):
    path, doc = saved_doc(tmp_path)
    new = edit(doc)
    path.write_bytes(new if isinstance(new, bytes) else json.dumps(new).encode())
    with pytest.raises(DataError, match=match):
        load_model(path)


def test_load_rejects_truncated_poly_coeffs(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["params"][0][0]["poly_coeffs"] = doc["params"][0][0]["poly_coeffs"][:1]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=r"poly_coeffs has shape \(1, 4\), expected \(2, 4\)"):
        load_model(path)


def test_load_rejects_unsorted_edges(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["features"][0]["fine_edges"] = [1.0, 0.5, 1.5]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="fine edges are not strictly ascending"):
        load_model(path)


def test_load_rejects_short_step_values_and_nan(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["params"][0][0]["step_values"] = doc["params"][0][0]["step_values"][:-1]
    doc["intercepts"] = [float("nan")]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="step_values has shape.*intercepts not finite"):
        load_model(path)


def test_load_rejects_coarse_edges_off_the_fine_grid(tmp_path):
    path, doc = saved_doc(tmp_path)
    assert doc["features"][0]["fine_edges"] == [0.5, 1.0, 1.5]
    doc["features"][0]["coarse_edges"] = [0.75]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="'x0': coarse edges are not on the fine grid"):
        load_model(path)


def test_load_refuses_an_unknown_task(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["task"] = "bogus"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="unknown task 'bogus'"):
        load_model(path)


def test_load_refuses_a_constraint_out_of_range(tmp_path):
    path, doc = saved_doc(tmp_path)
    doc["features"][0]["S"] = 7
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="'x0': S must be in -1..2, got 7"):
        load_model(path)


@pytest.mark.parametrize("key, value", [
    ("D", 2.7),  # int() would give D = 2 under cubic coefficients
    ("monotone", 0.5),  # int() would drop the sign constraint
    ("D", "3"),
    ("S", True),
])
def test_load_refuses_constraint_values_that_are_not_json_integers(tmp_path, key, value):
    path, doc = saved_doc(tmp_path)
    doc["features"][0][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"'x0': {key} must be a JSON integer, got {value!r}"):
        load_model(path)


def two_feature_doc(tmp_path):
    fb = [FeatureBins(np.array([0.5, 1.0]), np.array([1.0]), 0.0, 2.0) for _ in range(2)]
    spec = ConstraintSpec([FeatureConstraint()] * 2, np.ones((1, 2), dtype=bool))
    path = tmp_path / "m.json"
    save_model(zero_init(BinLayout(fb), "regression", 1, ["a", "b"], spec), path)
    return path, json.loads(path.read_text())


def test_load_refuses_an_allow_mask_of_the_wrong_shape(tmp_path):
    # predict reads the mask column of every feature, so a (1, 1) mask on
    # two features would fail there with a bare IndexError
    path, doc = two_feature_doc(tmp_path)
    doc["allow_mask"] = [[True]]
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=r"allow mask shape \(1, 1\) does not match"):
        load_model(path)


def golden_store():
    """Two outputs, a masked pair, a categorical feature, empty edge lists,
    S, D and both signs set, and SE attached."""
    features = [
        FeatureBins(np.array([0.5, 1.0, 1.5, 2.0]), np.array([1.0]), 0.0, 3.0),
        FeatureBins(np.array([1.5, 2.5]), np.array([]), 1.0, 3.0, kind="categorical"),
        FeatureBins(np.array([]), np.array([]), -1.0, 0.1),
    ]
    constraints = [
        FeatureConstraint(smoothness=1, max_degree=3, monotone=-1, curvature=1),
        FeatureConstraint(smoothness=-1, max_degree=0, monotone=1),
        FeatureConstraint(smoothness=0, max_degree=2, curvature=-1),
    ]
    mask = np.array([[True, True, False], [True, False, True]])
    store = zero_init(BinLayout(features), "multiclass", 2, ["price", "zone", "flat"],
                      ConstraintSpec(constraints, mask), target_name="choice")
    store.intercepts[:] = [0.1, -0.0]
    for i, row in enumerate(store.params):
        for k, sp in enumerate(row):
            sp.step_values[:] = np.arange(sp.step_values.size) / 3 - i
            sp.poly_coeffs[:] = np.arange(sp.poly_coeffs.size).reshape(-1, 4) * 0.5 - k
    store.se_fine = [[np.full(fb.n_fine_bins, 0.25 + i) if mask[i, k] else None
                      for k, fb in enumerate(features)] for i in range(2)]
    store.se_coarse = [[np.full((fb.n_coarse_bins, 3), 1e-7 * (k + 1)) if mask[i, k] else None
                        for k, fb in enumerate(features)] for i in range(2)]
    return store


# `golden_store`'s file, pinned: `reference_dumps` writes what `_document`
# gives it, so only this text catches a slipped key name or key order there
GOLDEN_TEXT = (
    '{"format_version":"1","task":"multiclass","outputs":2,"target_column":"choice",'
    '"features":[{"name":"price","kind":"numeric","fine_edges":[0.5,1.0,1.5,2.0],'
    '"coarse_edges":[1.0],"x_min":0.0,"x_max":3.0,"S":1,"D":3,"monotone":-1,"curvature":1},'
    '{"name":"zone","kind":"categorical","fine_edges":[1.5,2.5],"coarse_edges":[],'
    '"x_min":1.0,"x_max":3.0,"S":-1,"D":0,"monotone":1,"curvature":0},{"name":"flat",'
    '"kind":"numeric","fine_edges":[],"coarse_edges":[],"x_min":-1.0,"x_max":0.1,"S":0,"D":2,'
    '"monotone":0,"curvature":-1}],"allow_mask":[[true,true,false],[true,false,true]],'
    '"intercepts":[0.1,-0.0],"params":[[{"step_values":[0.0,0.3333333333333333,'
    '0.6666666666666666,1.0,1.3333333333333333],"poly_coeffs":[[0.0,0.5,1.0,1.5],[2.0,2.5,'
    '3.0,3.5]]},{"step_values":[0.0,0.3333333333333333,0.6666666666666666],'
    '"poly_coeffs":[[-1.0,-0.5,0.0,0.5]]},{"step_values":[0.0],"poly_coeffs":[[-2.0,-1.5,'
    '-1.0,-0.5]]}],[{"step_values":[-1.0,-0.6666666666666667,-0.33333333333333337,0.0,'
    '0.33333333333333326],"poly_coeffs":[[0.0,0.5,1.0,1.5],[2.0,2.5,3.0,3.5]]},'
    '{"step_values":[-1.0,-0.6666666666666667,-0.33333333333333337],"poly_coeffs":[[-1.0,'
    '-0.5,0.0,0.5]]},{"step_values":[-1.0],"poly_coeffs":[[-2.0,-1.5,-1.0,-0.5]]}]],'
    '"se_accumulators":[[{"fine":[0.25,0.25,0.25,0.25,0.25],"coarse":[[1e-07,1e-07,1e-07],'
    '[1e-07,1e-07,1e-07]]},{"fine":[0.25,0.25,0.25],"coarse":[[2e-07,2e-07,2e-07]]},'
    '{"fine":null,"coarse":null}],[{"fine":[1.25,1.25,1.25,1.25,1.25],"coarse":[[1e-07,1e-07,'
    '1e-07],[1e-07,1e-07,1e-07]]},{"fine":null,"coarse":null},{"fine":[1.25],'
    '"coarse":[[3e-07,3e-07,3e-07]]}]]}'
)


def test_dumps_of_a_hand_built_store_is_pinned(tmp_path):
    path = tmp_path / "m.json"
    save_model(golden_store(), path)
    assert path.read_text() == GOLDEN_TEXT + "\n"
    assert dumps_model(load_model(path)) == GOLDEN_TEXT


def golden_doc(tmp_path):
    path = tmp_path / "m.json"
    save_model(golden_store(), path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("where, value, match", [
    (("outputs",), 2.7, "outputs must be a JSON integer, got 2.7"),  # int() gave 2
    (("outputs",), "2", "outputs must be a JSON integer, got '2'"),
    # both were read as True, unmasking the pair
    (("allow_mask", 0, 2), "no", "allow_mask must be JSON booleans"),
    (("allow_mask", 0, 2), 0.5, "allow_mask must be JSON booleans"),
    (("features", 0, "x_min"), "0.1", "feature 'price': x_min must be a JSON number, got '0.1'"),
    (("features", 0, "x_max"), True, "feature 'price': x_max must be a JSON number, got True"),
    (("features", 1, "name"), 5, "feature 1: name must be a JSON string, got 5"),
    (("features", 1, "kind"), 0, "feature 'zone': kind must be a JSON string, got 0"),
    (("target_column",), 5, "target_column must be a JSON string, got 5"),
    (("features", 0, "fine_edges"), ["0.5", "1.0", "1.5", "2.0"],
     "feature 'price': fine_edges must be JSON numbers"),
    (("intercepts",), ["0.1", "0.0"], "intercepts must be JSON numbers"),
    (("params", 1, 0, "step_values"), [True, False, True, False, True],
     "feature 'price', output 1: step_values must be JSON numbers"),
    (("params", 0, 2, "poly_coeffs"), [["-2.0", -1.5, -1.0, -0.5]],
     "feature 'flat', output 0: poly_coeffs must be JSON numbers"),
    (("se_accumulators", 1, 2, "fine"), ["1.25"],
     "feature 'flat', output 1: SE fine must be JSON numbers"),
], ids=["outputs-float", "outputs-str", "mask-str", "mask-float", "x_min-str", "x_max-bool",
        "name-int", "kind-int", "target-int", "edges-str", "intercepts-str", "steps-bool",
        "coeffs-str", "se-str"])
def test_load_refuses_values_of_the_wrong_json_type(tmp_path, where, value, match):
    path, doc = golden_doc(tmp_path)
    entry = doc
    for key in where[:-1]:
        entry = entry[key]
    entry[where[-1]] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=re.escape(match)):
        load_model(path)


@pytest.mark.parametrize("i, k, match", [
    # `shape_ci` would draw a zero-width band round an allowed pair's shape
    (1, 0, "feature 'price', output 1: SE fine accumulator missing on an allowed pair"),
    (0, 2, "feature 'flat', output 0: SE fine accumulator set on a masked pair"),
], ids=["allowed-without", "masked-with"])
def test_save_and_load_tie_se_accumulators_to_the_allow_mask(tmp_path, i, k, match):
    path, doc = golden_doc(tmp_path)
    entry = doc["se_accumulators"][i][k]
    masked = entry["fine"] is None
    # 'flat' has one fine bin and one coarse piece
    entry["fine"], entry["coarse"] = ([0.5], [[0.5] * 3]) if masked else (None, None)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_model(path)
    store = golden_store()
    store.se_fine[i][k] = np.full(1, 0.5) if masked else None
    store.se_coarse[i][k] = np.full((1, 3), 0.5) if masked else None
    with pytest.raises(DataError, match=match):
        dumps_model(store)


@pytest.mark.parametrize("as_mask", [lambda m: m.tolist(), lambda m: m.astype(int)],
                         ids=["list", "int"])
def test_save_refuses_an_allow_mask_that_is_not_a_bool_array(as_mask):
    # the store holds SE accumulators, which `validate` ties to the mask
    store = golden_store()
    store.constraints.allow_mask = as_mask(store.constraints.allow_mask)
    with pytest.raises(DataError, match="allow mask must be a bool array"):
        dumps_model(store)


@pytest.mark.parametrize("task, J", [("regression", 2), ("binary", 2), ("multiclass", 1)])
def test_save_and_load_refuse_an_output_count_the_task_cannot_have(tmp_path, task, J):
    fb = FeatureBins(np.array([0.5]), np.array([]), 0.0, 1.0)
    spec = ConstraintSpec([FeatureConstraint()], np.ones((J, 1), dtype=bool))
    store = zero_init(BinLayout([fb]), "multiclass" if J > 1 else "regression", J, ["a"], spec)
    path = tmp_path / "m.json"
    save_model(store, path)
    doc = json.loads(path.read_text())
    doc["task"] = task
    path.write_text(json.dumps(doc))
    # the rule and message of `Dataset.validate`
    match = (f"{task} needs {'at least 2' if task == 'multiclass' else 'exactly 1'} outputs, "
             f"got n_outputs = {J}")
    with pytest.raises(DataError, match=match):
        load_model(path)
    store.task = task
    with pytest.raises(DataError, match=match):
        dumps_model(store)


@pytest.mark.parametrize("k, key, value, match", [
    (1, "kind", "bogus", r"kinds must give .* got \['numeric', 'bogus', 'numeric'\]"),
    # `polygam predict` would feed both features the one CSV column
    (2, "name", "price", r"feature names must be unique; repeated: \['price'\]"),
])
def test_save_and_load_refuse_an_unknown_kind_and_repeated_names(tmp_path, k, key, value, match):
    path, doc = golden_doc(tmp_path)
    doc["features"][k][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match):
        load_model(path)
    store = golden_store()
    if key == "name":
        store.feature_names[k] = value
    else:
        feats = list(store.layout.features)
        feats[k] = replace(feats[k], kind=value)
        store.layout = BinLayout(feats)
    with pytest.raises(DataError, match=match):
        dumps_model(store)


@pytest.mark.parametrize("feature, match", [
    (True, "feature names must be strings, got 5"),
    (False, "the target name must be a string, got 5"),
])
def test_save_refuses_a_name_that_load_refuses(feature, match):
    store = golden_store()
    if feature:
        store.feature_names[1] = 5
    else:
        store.target_name = 5
    with pytest.raises(DataError, match=match):
        dumps_model(store)


def test_predict_refuses_hand_built_coarse_edges_off_the_fine_grid():
    store = single_feature_store([0.5, 1.5], [1.0], 0.0, 2.0)
    with pytest.raises(DataError, match="coarse edges are not on the fine grid"):
        predict(store, np.array([[0.7]]))


def test_hand_written_minimal_model(tmp_path):
    doc = {
        "format_version": "1",
        "task": "regression",
        "outputs": 1,
        "target_column": "y",
        "features": [
            {
                "name": "x0",
                "kind": "numeric",
                "fine_edges": [],
                "coarse_edges": [],
                "x_min": 0.0,
                "x_max": 4.0,
                "S": -1,
                "D": 3,
                "monotone": 0,
                "curvature": 0,
            }
        ],
        "allow_mask": [[True]],
        "intercepts": [0.0],
        "params": [[{"step_values": [0.0], "poly_coeffs": [[0.0, 1.0, 0.0, 0.0]]}]],
        "se_accumulators": None,
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    store = load_model(path)
    f2 = evaluate_shape(store, 0, 0, 2.0)
    f1 = evaluate_shape(store, 0, 0, 1.0)
    assert f2 - f1 == 1.0


def test_serialized_numbers_survive_parsing():
    store = random_trained_store()
    doc = json.loads(dumps_model(store))
    got = np.array(doc["params"][0][0]["poly_coeffs"])
    assert np.array_equal(got, store.params[0][0].poly_coeffs)


# floats whose shortest decimal is easy to get wrong; 1.8e308 would be inf
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1e16, 1e-7, 0.1, 1 / 3, 2.0**53]
NAMES = ['plain', 'quo"te', "back\\slash", "tab\tnew\nline\x01", "caf\u00e9", "\u4ef7\u683c",
         "\U0001f600"]


@st.composite
def stores(draw):
    """Valid stores with 1-3 outputs and 1-3 features: masked pairs, SE on or
    off, empty edge lists, edge floats, numpy scalars and distinct escaped
    names."""
    number = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    scalar = number | number.map(np.float64) | st.sampled_from([0.5, -2.0, 1e-7]).map(np.float32)
    name = st.sampled_from(NAMES) | st.text(max_size=6)

    def small_int(lo, hi):
        return st.integers(lo, hi).flatmap(
            lambda v: st.sampled_from([v, np.int64(v), np.int8(v)]))

    def array(*shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(number, min_size=n, max_size=n)), dtype=float).reshape(shape)

    J = draw(st.integers(1, 3))
    K = draw(st.integers(1, 3))
    features, constraints = [], []
    for _ in range(K):
        # the outermost of the drawn values are the observed range, so the
        # edges lie strictly inside it; fewer than 3 values give no edges
        # and an observed range drawn at will
        values = np.unique(np.array(draw(st.lists(number, max_size=7)), dtype=float))
        fine, lo, hi = ((values[1:-1], values[0], values[-1]) if values.size >= 3
                        else (values[:0], draw(scalar), draw(scalar)))
        keep = np.array(draw(st.lists(st.booleans(), min_size=fine.size, max_size=fine.size)),
                        dtype=bool)
        kind = draw(st.sampled_from(["numeric", "categorical"]))
        features.append(FeatureBins(fine, fine[keep], lo, hi, kind=kind))
        # S <= D - 1, and a curvature sign needs S >= 0 and D >= 2
        D = draw(small_int(0, 3))
        S = draw(small_int(-1, int(D) - 1))
        constraints.append(FeatureConstraint(
            smoothness=S, max_degree=D, monotone=draw(small_int(-1, 1)),
            curvature=draw(small_int(-1, 1)) if S >= 0 and D >= 2 else 0,
        ))
    mask = np.array(draw(st.lists(st.booleans(), min_size=J * K, max_size=J * K))).reshape(J, K)
    # the output count the task needs: exactly 1, or at least 2 for multiclass
    task = draw(st.sampled_from(["regression", "binary"] if J == 1 else ["multiclass"]))
    store = zero_init(BinLayout(features=features), task, J,
                      draw(st.lists(name, min_size=K, max_size=K, unique=True)),
                      ConstraintSpec(constraints, mask),
                      target_name=draw(name))
    store.intercepts = array(J)
    for row in store.params:
        for sp in row:
            sp.step_values = array(*sp.step_values.shape)
            sp.poly_coeffs = array(*sp.poly_coeffs.shape)
    if draw(st.booleans()):
        store.se_fine = [[array(fb.n_fine_bins) if mask[i, k] else None
                          for k, fb in enumerate(features)] for i in range(J)]
        store.se_coarse = [[array(fb.n_coarse_bins, 3) if mask[i, k] else None
                            for k, fb in enumerate(features)] for i in range(J)]
    return store


@given(stores())
def test_dumps_matches_the_reference_writer_byte_for_byte(store):
    assert dumps_model(store) == reference_dumps(store)


@given(store=stores())
def test_load_gives_back_the_dumped_text(tmp_path_factory, store):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    text = dumps_model(store)
    path.write_text(text)
    assert dumps_model(load_model(path)) == text


def file_keys():
    """Every key of a feature, pair and SE entry, in file order."""
    return ([model._NAME_KEY] + [key for _, keys in model._FEATURE_KEYS for key, _, _ in keys]
            + list(model._PAIR_KEYS) + [key for key, _ in model._SE_KEYS])


def test_the_writer_and_reader_take_every_entry_key_from_the_tables():
    keys = file_keys()
    assert len(set(keys)) == len(keys) == 14
    for walker in (model._document, model._from_document):
        source = inspect.getsource(walker)
        assert not [key for key in keys if f'"{key}"' in source]


def test_readme_model_file_section_names_every_entry_key_in_file_order():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        section = re.search(r"## The model file\n(.*?)\n## ", fh.read(), re.S).group(1)
    assert re.findall(r'`"(\w+)"`', section) == file_keys()


def test_encoder_matches_the_reference_writer_on_numpy_values():
    doc = {
        "scalars": [np.int64(-3), np.uint8(255), np.bool_(True), np.float32(0.1), np.float64(-0.0)],
        "empty": np.empty(0),
        "no_columns": np.zeros((2, 0)),
        "mask": np.array([[True, False]]),
    }
    out = []
    oracles._dump(doc, out)
    assert model._ENCODER.encode(doc) == "".join(out)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("where, what", [
    ("poly_coeffs", "feature 'x0', output 0: poly_coeffs"),
    ("intercepts", "intercepts"),
    ("se", "feature 'x0', output 0: SE coarse accumulator"),
])
def test_save_refuses_a_nonfinite_number_and_keeps_the_old_file(tmp_path, bad, where, what):
    store = random_trained_store()
    store.se_fine = [[np.ones(4)]]
    store.se_coarse = [[np.ones((2, 3))]]
    path = tmp_path / "m.json"
    save_model(store, path)
    before = path.read_bytes()
    {
        "poly_coeffs": store.params[0][0].poly_coeffs,
        "intercepts": store.intercepts,
        "se": store.se_coarse[0][0],
    }[where][0] = bad
    with pytest.raises(DataError, match=re.escape(f"{what} not finite")):
        save_model(store, path)
    assert path.read_bytes() == before


def test_save_refuses_what_load_refuses():
    store = random_trained_store()
    store.layout = BinLayout([replace(store.layout[0], fine_edges=[1.0, 0.5, 1.5])])
    with pytest.raises(DataError, match="fine edges are not strictly ascending"):
        dumps_model(store)
