"""One real-array rule for every entry point (`data.real_values`), and one
integer predicate (`data.is_integer`).

Every family of entry points reads its arrays by the same rule: a complex,
string, bytes, date or object array is refused with one DataError message
naming its dtype, whatever the object array holds, and a list or a bool,
integer or real float array of any memory layout is read as the float64
values it holds. The values below are 0 and 1, which every accepted dtype
holds exactly, so an accepted case must give the float64 case's result.
"""

import functools
import re

import numpy as np
import pytest

from polygam.booster import TrainConfig, train
from polygam.data import Dataset, SplitScheme, build_bins, output_problems, split_indices
from polygam.errors import ConfigError, DataError
from polygam.explain import elasticity, shape_grid
from polygam.losses import derivatives, hessian_diag, link_apply, loss_eval
from polygam.model import (ConstraintSpec, FeatureConstraint, accumulate_global, check_pair,
                           dumps_model, evaluate_derivative, evaluate_shape, predict)
from polygam.uncertainty import attach_se_accumulators, shape_ci, variance_pred

from conftest import make_dataset

X01 = np.array([[0, 1], [1, 0], [1, 1], [0, 0], [1, 0], [0, 1], [1, 1], [0, 1]], float)
Y01 = np.array([0, 1, 1, 0, 1, 0, 0, 1], float)
FIT = TrainConfig(max_iterations=3, min_data_in_leaf=1, validation_fraction=0.0,
                  early_stopping_patience=0)


def dataset(X=X01, y=Y01):
    return Dataset(X=X, y=y, feature_names=["a", "b"], kinds=["numeric"] * 2, task="binary",
                   n_outputs=1)


@functools.cache
def fitted():
    """A binary model of X01 and Y01, and a copy with SEs attached."""
    store = train(dataset(), config=FIT).store
    with_se = store.copy()
    attach_se_accumulators(with_se, X01)
    return store, with_se


def validated(X=X01, y=Y01):
    ds = dataset(X, y)
    ds.validate()
    return ds.X, ds.y


def fit_bytes(X=X01, y=Y01):
    return dumps_model(train(dataset(X, y), config=FIT).store)


def se_sums(X):
    store = fitted()[0].copy()
    attach_se_accumulators(store, X)
    return store.se_fine[0] + store.se_coarse[0]


def points(call):
    return lambda x: call(*fitted(), x)


# (family, the base array of its argument, every call that reads it)
FAMILIES = {
    "dataset_X": (X01, [lambda X: validated(X=X)[0], lambda X: fit_bytes(X=X)]),
    "dataset_y": (Y01, [lambda y: validated(y=y)[1].astype(float), lambda y: fit_bytes(y=y)]),
    "predict_X": (X01, [lambda X: predict(fitted()[0], X), se_sums]),
    "elasticity_row": (X01[0], [lambda row: elasticity(fitted()[0], 0, 0, 0.5, row)]),
    "scores": (X01, [lambda F: loss_eval("multiclass", Y01, F),
                     lambda F: derivatives("multiclass", Y01, F).g,
                     lambda F: link_apply("multiclass", F),
                     lambda F: hessian_diag("multiclass", F)]),
    "labels": (Y01, [lambda y: loss_eval("binary", y, X01[:, 0]),
                     lambda y: derivatives("binary", y, X01[:, 0]).g,
                     lambda y: loss_eval("multiclass", y, X01)]),
    "points": (X01, [points(lambda store, _, x: evaluate_shape(store, 0, 1, x)),
                     points(lambda store, _, x: evaluate_derivative(store, 0, 1, x, 1)),
                     points(lambda _, se, x: variance_pred(se, 0, 1, x)),
                     points(lambda _, se, x: shape_ci(se, 0, 1, x))]),
    "value_column": (X01[:, 0], [lambda v: build_bins(v, 4)]),
}


def with_none(a):
    a = a.astype(object)
    a.flat[0] = None
    return a


REFUSED = {
    "complex": lambda a: a + 0j,
    "str": lambda a: a.astype(str),
    "bytes": lambda a: a.astype(bytes),
    "datetime": lambda a: a.astype(np.int64).astype("datetime64[s]"),
    "timedelta": lambda a: a.astype(np.int64).astype("timedelta64[ms]"),
    "object_of_floats": lambda a: a.astype(object),
    "object_of_numeric_strings": lambda a: a.astype(str).astype(object),
    "object_with_none": with_none,
    "list_with_none": lambda a: with_none(a).tolist(),
}

ACCEPTED = {
    "list": lambda a: a.tolist(),
    "bool": lambda a: a.astype(bool),
    "int": lambda a: a.astype(np.int64),
    "uint8": lambda a: a.astype(np.uint8),
    "float16": lambda a: a.astype(np.float16),
    "float32": lambda a: a.astype(np.float32),
    "float64": lambda a: a.copy(),
    "F_ordered": np.asfortranarray,
    "strided": lambda a: np.repeat(a, 2, axis=0)[::2],
}


@pytest.mark.parametrize("case", REFUSED)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_entry_family_refuses_an_array_that_does_not_hold_real_numbers(family, case):
    base, calls = FAMILIES[family]
    bad = REFUSED[case](base)
    message = f"must hold real numbers, got dtype {re.escape(str(np.asarray(bad).dtype))}$"
    for call in calls:
        with pytest.raises(DataError, match=message):
            call(bad)


def same(got, want):
    if isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            same(g, w)
    else:
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("case", ACCEPTED)
@pytest.mark.parametrize("family", FAMILIES)
def test_every_entry_family_reads_a_real_array_as_its_float64_values(family, case):
    base, calls = FAMILIES[family]
    for call in calls:
        same(call(ACCEPTED[case](base)), call(base))


def test_validate_leaves_x_as_the_float64_matrix_and_y_as_an_array():
    X = X01.copy()
    ds = dataset(X, Y01.tolist())
    ds.validate()
    assert ds.X is X  # a float64 X is not copied
    assert isinstance(ds.y, np.ndarray) and ds.y.dtype == np.float64
    ds = dataset(X01.astype(np.float32), Y01.astype(np.int64))
    ds.validate()
    assert ds.X.dtype == np.float64 and np.array_equal(ds.X, X01)
    assert ds.y.dtype == np.int64


@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64, np.bool_])
def test_a_fit_of_any_real_dtype_gives_the_model_bytes_of_its_float64_values(dtype):
    # the fit reads the float64 X that `predict` reads: a float32 X used to
    # run the row pass's x - u in float32, a model `predict` does not redo
    rng = np.random.default_rng(3)
    if dtype in (np.int64, np.bool_):
        X = rng.integers(0, 2 if dtype is np.bool_ else 40, size=(2000, 3)).astype(dtype)
    else:
        X = rng.normal(size=(2000, 3)).astype(dtype)
    X64 = X.astype(float)
    y = np.sin(2.0 * X64[:, 0]) + X64[:, 1] * X64[:, 2] + rng.normal(scale=0.1, size=2000)
    cfg = TrainConfig(max_iterations=100, early_stopping_patience=0, validation_fraction=0.0)
    want = train(make_dataset(X64, y), config=cfg)
    got = train(Dataset(X=X, y=y, feature_names=["x0", "x1", "x2"], kinds=["numeric"] * 3,
                        task="regression", n_outputs=1), config=cfg)
    assert dumps_model(got.store) == dumps_model(want.store)
    assert got.train_loss == want.train_loss


def raise_first(problems):
    if problems:
        raise ConfigError(problems[0])


# one check of each family of integer arguments, with a value it takes;
# each raises ConfigError for a value it refuses
INTEGER_CHECKS = {
    "output_index": (lambda v: check_pair(fitted()[0], v, 0), 0),
    "feature_index": (lambda v: check_pair(fitted()[0], 0, v), 1),
    "constraint_degree": (lambda v: raise_first(FeatureConstraint(max_degree=v).validate("a")), 3),
    "constraint_smoothness": (
        lambda v: raise_first(FeatureConstraint(smoothness=v).validate("a")), 0),
    "spec_output_index": (lambda v: ConstraintSpec.default(dataset(), outputs_for={"a": [v]}), 0),
    "derivative_order": (lambda v: evaluate_derivative(fitted()[0], 0, 0, 0.5, v), 1),
    "fold_degree": (lambda v: accumulate_global(fitted()[0].copy(), 0, 0, v, 0.5, 0.1), 2),
    "n_outputs": (lambda v: raise_first(output_problems("regression", v)), 1),
    "n_bins": (lambda v: build_bins(X01[:, 0], v), 4),
    "split_scheme": (lambda v: raise_first(SplitScheme(n_bins_higher=v).problems()), 4),
    "split_seed": (lambda v: split_indices(8, (0.5, 0.5, 0.0), v), 0),
    "train_config": (lambda v: TrainConfig(max_iterations=v).validate(), 5),
    "grid_size": (lambda v: shape_grid(fitted()[0], 0, 0, v), 8),
}


@pytest.mark.parametrize("check", INTEGER_CHECKS)
def test_every_integer_check_refuses_a_0d_array_and_takes_a_numpy_integer(check):
    # an array is not an integer, a 0-d one included (`data.is_integer`);
    # the message shows it as the array it is
    call, good = INTEGER_CHECKS[check]
    call(good)
    call(np.int64(good))
    with pytest.raises(ConfigError, match=re.escape(f"array({good})")):
        call(np.array(good))


@pytest.mark.parametrize("check", INTEGER_CHECKS)
def test_every_integer_check_refuses_a_bool(check):
    # the bool of the same value is refused: a model file keeps true and 1
    # apart, so no integer argument takes a bool (`data.is_integer`)
    call, good = INTEGER_CHECKS[check]
    with pytest.raises(ConfigError, match=re.escape(repr(bool(good)))):
        call(bool(good))


def test_each_family_keeps_its_own_shape_rule():
    store, with_se = fitted()
    with pytest.raises(DataError, match=r"values must be one column, got shape \(8, 2\)"):
        build_bins(X01, 4)
    with pytest.raises(DataError, match=r"F has shape \(2, 2, 2\), expected \(rows,\)"):
        link_apply("binary", np.zeros((2, 2, 2)))
    with pytest.raises(DataError, match=r"y has shape \(8, 2\), expected \(8,\)"):
        loss_eval("binary", X01, X01[:, 0])
    with pytest.raises(DataError, match=r"X has shape \(8,\), expected \(rows, 2 features\)"):
        predict(store, Y01)
    # points may have any shape, and NaN and +-inf points are evaluated
    x = np.array([[np.nan, np.inf], [-np.inf, 0.5]])
    with np.errstate(invalid="ignore"):  # the end cubics at +-inf
        assert evaluate_shape(store, 0, 0, x).shape == (2, 2)
    assert np.isinf(variance_pred(with_se, 0, 0, x)[:, 0]).all()
    for scalar in (None, np.datetime64(1, "s"), "0.5", 1j):
        with pytest.raises(DataError, match="x must hold real numbers, got dtype"):
            evaluate_shape(store, 0, 0, scalar)
