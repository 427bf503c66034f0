"""Parameter store: evaluation, update folding, masking, knots, serialization."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
from polygam import model, testkit
from polygam.testkit import reference_dumps

from conftest import layout_for, make_dataset, single_feature_store


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
    off, empty edge lists, edge floats, numpy scalars and escaped names."""
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
        fine = np.unique(np.array(draw(st.lists(number, max_size=5)), dtype=float))
        keep = np.array(draw(st.lists(st.booleans(), min_size=fine.size, max_size=fine.size)),
                        dtype=bool)
        kind = draw(st.sampled_from(["numeric", "categorical"]))
        features.append(FeatureBins(fine, fine[keep], draw(scalar), draw(scalar), kind=kind))
        # S <= D - 1, and a curvature sign needs S >= 0 and D >= 2
        D = draw(small_int(0, 3))
        S = draw(small_int(-1, int(D) - 1))
        constraints.append(FeatureConstraint(
            smoothness=S, max_degree=D, monotone=draw(small_int(-1, 1)),
            curvature=draw(small_int(-1, 1)) if S >= 0 and D >= 2 else 0,
        ))
    mask = np.array(draw(st.lists(st.booleans(), min_size=J * K, max_size=J * K))).reshape(J, K)
    store = zero_init(BinLayout(features=features), draw(st.sampled_from(["regression", "binary"])),
                      J, [draw(name) for _ in range(K)], ConstraintSpec(constraints, mask),
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


def test_encoder_matches_the_reference_writer_on_numpy_values():
    doc = {
        "scalars": [np.int64(-3), np.uint8(255), np.bool_(True), np.float32(0.1), np.float64(-0.0)],
        "empty": np.empty(0),
        "no_columns": np.zeros((2, 0)),
        "mask": np.array([[True, False]]),
    }
    out = []
    testkit._dump(doc, out)
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
    store.layout.features[0].fine_edges[:] = [1.0, 0.5, 1.5]
    with pytest.raises(DataError, match="fine edges are not strictly ascending"):
        dumps_model(store)
