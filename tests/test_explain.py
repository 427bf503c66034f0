"""Shape export, elasticities, and SVG rendering."""

import csv
import hashlib
import math
import os

import numpy as np
import pytest

from polygam.booster import TrainConfig, train
from polygam.errors import ConfigError
from polygam.explain import ShapeGrid, elasticity, export_shapes, render_svg, shape_grid
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    evaluate_derivative,
    evaluate_shape,
    knot_gaps,
)
from polygam.uncertainty import attach_se_accumulators, param_se, shape_ci, variance_pred

from conftest import make_dataset, single_feature_store


def read_grid_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    cols = {name: np.array([float(r[i]) for r in data]) for i, name in enumerate(header)}
    return header, cols


def trained_model(seed=0, n=300, constraint=None):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.2, 2.0, n)
    y = np.log(x) + rng.normal(scale=0.1, size=n)
    ds = make_dataset(x, y)
    spec = None
    if constraint is not None:
        spec = ConstraintSpec.default(ds, overrides={"x0": constraint})
    cfg = TrainConfig(
        max_iterations=150, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    return res.store, ds


def test_zero_model_exports_zero_columns(tmp_path):
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    grids = export_shapes(store, str(tmp_path), grid_size=32)
    _, cols = read_grid_csv(tmp_path / "shape_0_x0.csv")
    assert not cols["f"].any()
    assert not cols["f_prime"].any()
    assert not cols["f_double_prime"].any()
    assert len(grids) == 1


def test_grid_size_two_is_exact_endpoints():
    store = single_feature_store([1.0], [1.0], 0.25, 1.75)
    g = shape_grid(store, 0, 0, grid_size=2, with_ci=False)
    assert g.x.tolist() == [0.25, 1.75]


@pytest.mark.parametrize("grid_size", [0, -1])
def test_shape_grid_refuses_an_empty_grid(tmp_path, grid_size):
    store = single_feature_store([1.0], [1.0], 0.25, 1.75)
    want = f"grid_size must be >= 1, got {grid_size}"
    with pytest.raises(ConfigError, match=want):
        shape_grid(store, 0, 0, grid_size=grid_size)
    with pytest.raises(ConfigError, match=want):
        export_shapes(store, str(tmp_path / "s"), grid_size=grid_size)
    assert not (tmp_path / "s").exists()


SELECTIONS = {
    "evaluate_shape": lambda s, i, k: evaluate_shape(s, i, k, 1.0),
    "evaluate_derivative": lambda s, i, k: evaluate_derivative(s, i, k, 1.0, 1),
    "shape_grid": lambda s, i, k: shape_grid(s, i, k, grid_size=8),
    "shape_ci": lambda s, i, k: shape_ci(s, i, k, 1.0),
    "knot_gaps": knot_gaps,
    "param_se": param_se,
    "variance_pred": lambda s, i, k: variance_pred(s, i, k, 1.0),
}


@pytest.mark.parametrize("i, k", [(-1, 0), (2, 0), (0, -1), (0, 1), (0.0, 0), (0, 0.5),
                                  (None, 0), (0, "x0")])
@pytest.mark.parametrize("call", SELECTIONS)
def test_a_selection_outside_the_model_is_refused(call, i, k):
    # a negative index would wrap to the last output or feature, and one
    # past the end would fail with a bare IndexError
    store = single_feature_store([1.0], [1.0], 0.25, 1.75, n_outputs=2, task="multiclass")
    with pytest.raises(ConfigError, match="output index|feature index"):
        SELECTIONS[call](store, i, k)


@pytest.mark.parametrize("grid_size", [2.5, float("nan"), "8"])
def test_shape_grid_refuses_a_grid_size_that_is_not_an_integer(grid_size):
    store = single_feature_store([1.0], [1.0], 0.25, 1.75)
    with pytest.raises(ConfigError, match="grid_size must be an integer"):
        shape_grid(store, 0, 0, grid_size=grid_size)


def test_a_derivative_order_other_than_1_or_2_is_a_config_error():
    store = single_feature_store([1.0], [1.0], 0.25, 1.75)
    with pytest.raises(ConfigError, match="order must be 1 or 2"):
        evaluate_derivative(store, 0, 0, 1.0, 3)


def test_default_grid_is_512_rows(tmp_path):
    store, _ = trained_model()
    export_shapes(store, str(tmp_path), svg=False)
    _, cols = read_grid_csv(tmp_path / "shape_0_x0.csv")
    assert cols["x"].size == 512
    assert np.all(np.diff(cols["x"]) > 0)


def test_csv_reproduces_evaluation_to_full_precision(tmp_path):
    store, _ = trained_model(1)
    export_shapes(store, str(tmp_path), grid_size=64, svg=False)
    _, cols = read_grid_csv(tmp_path / "shape_0_x0.csv")
    assert np.array_equal(cols["f"], evaluate_shape(store, 0, 0, cols["x"]))
    assert np.array_equal(
        cols["f_prime"], evaluate_derivative(store, 0, 0, cols["x"], 1)
    )
    assert np.array_equal(
        cols["f_double_prime"], evaluate_derivative(store, 0, 0, cols["x"], 2)
    )


def test_monotone_export_respects_sign(tmp_path):
    store, _ = trained_model(
        2, constraint=FeatureConstraint(monotone=1, smoothness=0, max_degree=2)
    )
    export_shapes(store, str(tmp_path), svg=False)
    _, cols = read_grid_csv(tmp_path / "shape_0_x0.csv")
    assert cols["f_prime"].min() >= -1e-9


def test_unknown_feature_name_rejected(tmp_path):
    store, _ = trained_model(3)
    with pytest.raises(ConfigError, match="nope"):
        export_shapes(store, str(tmp_path), features=["nope"])


def test_ci_export_requires_accumulators(tmp_path):
    store, _ = trained_model(4)
    with pytest.raises(ConfigError):
        export_shapes(store, str(tmp_path), with_ci=True)


def test_ci_columns_present_and_ordered(tmp_path):
    store, ds = trained_model(5)
    attach_se_accumulators(store, ds.X)
    export_shapes(store, str(tmp_path), grid_size=50, svg=False, with_ci=True)
    header, cols = read_grid_csv(tmp_path / "shape_0_x0.csv")
    assert header == ["x", "f", "f_prime", "f_double_prime", "ci_lower", "ci_upper"]
    assert np.all(cols["ci_lower"] <= cols["f"])
    assert np.all(cols["f"] <= cols["ci_upper"])


def test_export_writes_one_file_per_allowed_output(tmp_path):
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, size=(200, 2))
    y = rng.integers(0, 3, 200)
    ds = make_dataset(X, y, task="multiclass")
    spec = ConstraintSpec.default(ds, outputs_for={"x1": [2]})
    cfg = TrainConfig(
        max_iterations=20, early_stopping_patience=0, validation_fraction=0.0
    )
    res = train(ds, constraints=spec, config=cfg)
    export_shapes(res.store, str(tmp_path), svg=False)
    names = sorted(os.listdir(tmp_path))
    assert names == [
        "shape_0_x0.csv",
        "shape_1_x0.csv",
        "shape_2_x0.csv",
        "shape_2_x1.csv",
    ]


# ---------------------------------------------------------------------------
# elasticity


def test_elasticity_zero_slope_is_zero():
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    store.intercepts[0] = 3.0
    assert elasticity(store, 0, 0, 1.5) == 0.0


def test_elasticity_identity_shape_is_one():
    # f(x) = x with zero intercept: x * f'(x) / f(x) = 1
    store = single_feature_store([], [], 0.0, 4.0)
    store.params[0][0].poly_coeffs[0, 1] = 1.0
    for x in (0.5, 1.0, 3.3):
        assert elasticity(store, 0, 0, x) == pytest.approx(1.0, abs=1e-12)


def test_elasticity_regression_zero_score_rejected():
    store = single_feature_store([], [], 0.0, 4.0)
    store.params[0][0].poly_coeffs[0, 1] = 1.0
    with pytest.raises(ZeroDivisionError):
        elasticity(store, 0, 0, 0.0)


def test_elasticity_multiclass_single_output_feature():
    # softmax chain rule: x * (1 - p_i) * f'; at p_i = 0.5, f' = -0.1, x = 10
    # the slope term gives 10 * 0.5 * (-0.1) = -0.5
    store = single_feature_store([], [], 0.0, 20.0, n_outputs=2, task="multiclass")
    store.constraints.allow_mask[:] = [[True], [False]]
    store.params[0][0].poly_coeffs[0, 1] = -0.1
    x = 10.0
    # choose the intercepts so that p_0 = 0.5 exactly at x = 10
    store.intercepts[:] = [1.0, 0.0]
    got = elasticity(store, 0, 0, x, row=[x])
    assert got == pytest.approx(10.0 * 0.5 * (-0.1), abs=1e-12)


def test_elasticity_multi_output_feature_refused():
    store = single_feature_store([], [], 0.0, 2.0, n_outputs=3, task="multiclass")
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            elasticity(store, 0, 0, 1.0, row=[1.0])


def test_elasticity_classification_needs_row():
    store = single_feature_store([], [], 0.0, 2.0, n_outputs=1, task="binary")
    with pytest.raises(ValueError, match="row"):
        elasticity(store, 0, 0, 1.0)


def test_elasticity_and_render_refusals_are_config_errors():
    store = single_feature_store([], [], 0.0, 2.0, n_outputs=3, task="multiclass")
    with pytest.warns(UserWarning), pytest.raises(ConfigError, match="single-output"):
        elasticity(store, 0, 0, 1.0, row=[1.0])
    store = single_feature_store([], [], 0.0, 2.0, n_outputs=1, task="binary")
    with pytest.raises(ConfigError, match="full feature row"):
        elasticity(store, 0, 0, 1.0)
    empty = np.zeros(0)
    with pytest.raises(ConfigError, match="empty grid"):
        render_svg(ShapeGrid(0, 0, "x0", empty, empty, empty, empty))


def test_elasticity_sign_follows_slope_and_x():
    store = single_feature_store([], [], 0.0, 4.0)
    store.intercepts[0] = 5.0
    store.params[0][0].poly_coeffs[0, 1] = 2.0
    assert elasticity(store, 0, 0, 1.0) > 0
    store.params[0][0].poly_coeffs[0, 1] = -2.0
    assert elasticity(store, 0, 0, 1.0) < 0


# ---------------------------------------------------------------------------
# SVG


def test_svg_deterministic_and_self_contained():
    store, _ = trained_model(7)
    g = shape_grid(store, 0, 0, 128, with_ci=False)
    a = render_svg(g)
    b = render_svg(g)
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "http://www.w3.org/2000/svg" in a


def test_svg_band_present_iff_ci():
    store, ds = trained_model(8)
    attach_se_accumulators(store, ds.X)
    plain = render_svg(shape_grid(store, 0, 0, 64, with_ci=False))
    banded = render_svg(shape_grid(store, 0, 0, 64, with_ci=True))
    assert "polygon" not in plain
    assert "polygon" in banded


def test_svg_zero_model_flat_line(tmp_path):
    store = single_feature_store([1.0], [1.0], 0.0, 2.0)
    svg = render_svg(shape_grid(store, 0, 0, 16, with_ci=False))
    assert "polyline" in svg
    export_shapes(store, str(tmp_path), grid_size=16)
    assert (tmp_path / "shape_0_x0.svg").exists()


INF = np.inf
PIN_X = np.linspace(-1.0, 3.0, 7)
PIN_F = np.array([0.5, -0.25, 1.0, 2.5, 2.0, 0.0, -1.5])


@pytest.mark.parametrize("grid, want", [
    (ShapeGrid(0, 0, "price", PIN_X, PIN_F, PIN_F, PIN_F,
               np.array([-INF, -1.0, 0.5, 2.0, 1.0, -0.5, -INF]),
               np.array([INF, 0.5, 1.5, 3.0, 3.0, 0.5, INF])),
     "3abbcba21156edd4194b6f30a22a97f252e7cdca5e12dd8db55caccac2e40719"),
    (ShapeGrid(1, 2, "zone", PIN_X, PIN_F, PIN_F, PIN_F),
     "9f8526e9296b53879e81f3df7cf1586c98ad4c330f6c901e5a354497a02d0af9"),
    (ShapeGrid(0, 1, "flat", np.array([0.5]), np.array([0.25]), np.zeros(1), np.zeros(1)),
     "db26452edb60f8445652337981d2ee060e97ffef4c2c9e5bce6ceddf673d1095"),
    (ShapeGrid(0, 1, "flat", np.array([0.5]), np.array([0.25]), np.zeros(1), np.zeros(1),
               np.array([0.0]), np.array([0.5])),
     "219d62c8feb2b2e1f77368a0e2a05a539912c3557b48c4e74858443a44977797"),
    (ShapeGrid(0, 0, "x0", np.linspace(0.0, 2.0, 9), np.zeros(9), np.zeros(9), np.zeros(9)),
     "b1fae8680fa2ec474d07c96db232c9930389d1851e94fb4eaa6f8fa6d1d7b6db"),
], ids=["band_with_infinite_ends", "no_band", "one_point", "one_point_with_band",
        "flat_zero"])
def test_svg_bytes_are_pinned(grid, want):
    # a band clipped at both ends, no band, the one-point circle with and
    # without a band (a point draws no band), and a flat zero shape
    assert hashlib.sha256(render_svg(grid).encode()).hexdigest() == want


def test_a_constant_feature_gives_a_one_point_grid_drawn_as_a_circle(tmp_path):
    store = single_feature_store([], [], 2.0, 2.0)
    store.params[0][0].step_values[:] = 0.75
    g = shape_grid(store, 0, 0, grid_size=64)
    assert g.x.tolist() == [2.0] and g.f.tolist() == [0.75]
    assert g.f_prime.tolist() == [0.0] and g.f_double_prime.tolist() == [0.0]
    svg = render_svg(g)
    assert svg.count("<circle ") == 1 and "<polyline " not in svg
    # at the left end of the x axis, half way up a range of f +- 1
    assert '<circle cx="70.00" cy="207.00" r="3" fill="#1f4e9c"/>' in svg
    export_shapes(store, str(tmp_path), grid_size=64)
    assert (tmp_path / "shape_0_x0.csv").read_text() == (
        "x,f,f_prime,f_double_prime\n2.0,0.75,0.0,0.0\n")
