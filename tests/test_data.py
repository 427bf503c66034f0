"""Binning, the binned-variable transform oracle, splits, and CSV ingestion."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygam.booster import TrainConfig, train
from polygam.data import (
    Dataset,
    FeatureBins,
    FineTable,
    SplitScheme,
    build_bin_layout,
    build_bins,
    load_csv,
    load_feature_matrix,
    split_indices,
)
from polygam.errors import ConfigError, DataError
from polygam.model import SEARCH_MAX_EDGES, TABLE_MIN_VALUES, fine_code

from conftest import make_dataset
from oracles import dense_bin_transform


# ---------------------------------------------------------------------------
# build_bins


def test_build_bins_median_of_four():
    assert build_bins(np.array([1.0, 2.0, 3.0, 4.0]), 2).tolist() == [2.5]


def test_build_bins_constant_column_collapses():
    assert build_bins(np.full(10, 7.0), 256).size == 0


def test_build_bins_few_levels_one_bin_per_level():
    vals = np.array([0.0] * 5 + [1.0] * 5 + [5.0] * 5)
    edges = build_bins(vals, 256)
    assert edges.size <= 2
    # every level lands in its own bin
    assert len({int(np.searchsorted(edges, v, side="right")) for v in (0.0, 1.0, 5.0)}) == 3


def quantile_oracle(values, n_bins):
    """Sort-and-index reference: the i-th cut leaves floor(N*i/n_bins) samples
    on the left; the edge is the midpoint of the straddling pair, ties collapse."""
    s = sorted(float(v) for v in values)
    n = len(s)
    edges = set()
    for i in range(1, n_bins):
        r = (n * i) // n_bins
        if 0 < r < n and s[r] > s[r - 1]:
            edges.add(0.5 * (s[r - 1] + s[r]))
    return np.asarray(sorted(edges))


@pytest.mark.parametrize("seed", range(6))
def test_build_bins_matches_sort_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 1000))
    vals = rng.normal(size=n)
    if seed % 2:
        vals = np.round(vals, 1)  # force ties
    # 2048 bins are more than the rows: every rank is a cut
    for n_bins in (1, 2, 7, 32, 256, 2048):
        got = build_bins(vals, n_bins)
        want = quantile_oracle(vals, n_bins)
        assert np.array_equal(got, want), (n_bins, got, want)


@pytest.mark.parametrize("n_bins", [1.5, 0, -2, "8", None, 8.0])
def test_build_bins_refuses_a_bin_count_that_is_not_an_integer_of_at_least_1(n_bins):
    with pytest.raises(ConfigError, match=re.escape(f"n_bins must be an integer >= 1, got {n_bins!r}")):
        build_bins(np.arange(10.0), n_bins)


def test_build_bins_edges_strictly_inside_range():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=400)
    edges = build_bins(vals, 64)
    assert np.all(np.diff(edges) > 0)
    assert edges.min() > vals.min() and edges.max() < vals.max()


def test_every_bin_contains_a_sample():
    rng = np.random.default_rng(4)
    vals = rng.exponential(size=300)
    edges = build_bins(vals, 50)
    codes = np.searchsorted(edges, vals, side="right")
    assert set(codes.tolist()) == set(range(edges.size + 1))


# ---------------------------------------------------------------------------
# fine codes and the dense transform oracle (oracles.py)


def column(x, edges, b):
    """Bin b's column of the dense oracle (a float for scalar x)."""
    out = dense_bin_transform(x, edges)[..., b - 1]
    return float(out) if np.isscalar(x) else out


def test_transform_below_bin_is_zero():
    assert column(1.0, [2.0], 2) == 0.0


def test_transform_inside_bin_is_offset():
    assert column(3.0, [2.0], 2) == 1.0


def test_transform_saturates_at_upper_edge():
    assert column(5.0, [2.0], 1) == 2.0


def test_transform_middle_bin_saturates_at_edge_value_not_width():
    # bin 2 of edges [1, 2] is [1, 2): offsets reach 0.999, then jump to u_2 = 2
    assert column(1.999, [1.0, 2.0], 2) == pytest.approx(0.999)
    assert column(5.0, [1.0, 2.0], 2) == 2.0


def test_transform_first_bin_keeps_raw_value():
    assert column(1.5, [2.0], 1) == 1.5


def test_transform_last_bin_never_saturates():
    assert column(1e9, [2.0], 2) == 1e9 - 2.0


def test_transform_vectorized_matches_scalar():
    edges = [0.0, 1.0, 3.0]
    xs = np.array([-2.0, 0.0, 0.5, 1.0, 2.0, 3.0, 10.0])
    every = dense_bin_transform(xs, edges)
    assert every.shape == (xs.size, 4)
    for j, x in enumerate(xs):
        assert np.array_equal(every[j], dense_bin_transform(float(x), edges))


def codes(x, edges):
    """fine_code on a feature whose fine grid is `edges`, plus one: the
    1-based bin with u_{b-1} <= x < u_b."""
    e = np.asarray(edges, dtype=float)
    fb = FeatureBins(fine_edges=e, coarse_edges=e, x_min=-np.inf, x_max=np.inf)
    return fine_code(fb, x) + 1


def test_fine_code_boundary_goes_right():
    assert codes(2.0, [2.0]) == 2


def test_fine_code_below_edge():
    assert codes(1.9, [2.0]) == 1


def test_fine_code_far_left():
    assert codes(-1e9, [2.0, 5.0]) == 1


def test_fine_code_partition():
    rng = np.random.default_rng(5)
    edges = np.sort(rng.normal(size=9))
    xs = rng.normal(size=200)
    b = codes(xs, edges)
    assert np.all((b >= 1) & (b <= edges.size + 1))
    lo = np.concatenate(([-np.inf], edges))[b - 1]
    hi = np.concatenate((edges, [np.inf]))[b - 1]
    assert np.all((xs >= lo) & (xs < hi))


def fuzz_grid(kind, n, rng):
    """n strictly ascending edges of one hard shape for the cell table."""
    if kind == "lognormal":  # heavy tail: most edges crowd the first cells
        draws = rng.lognormal(0.0, 2.0, n)
    elif kind == "integer":
        draws = rng.choice(np.arange(-1000.0, 1000.0), n, replace=False)
    else:  # a span of under 1e-12 (whole ulps of 1.0), then one edge at 1e300
        ulps = rng.choice(4000, max(n - 1, 0), replace=False)
        draws = np.append(1.0 + ulps * 2.0**-52, 1e300)[:n]
    edges = np.unique(draws)
    assert edges.size == n
    return edges


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1.7e308, -1.7e308]


@given(
    kind=st.sampled_from(["lognormal", "integer", "tiny_span_1e300"]),
    # grids of 0-2 edges always search; SEARCH_MAX_EDGES + 1 is the smallest
    # grid that reads the table
    n=st.sampled_from([0, 1, 2, SEARCH_MAX_EDGES + 1, 255]),
    # values added to the grid's own: 0 stays under the crossover; the
    # others give 1024-4096 values, on both sides of the doubled crossover
    # of grids whose table needs more than two halvings
    bulk=st.sampled_from([0, TABLE_MIN_VALUES, 2 * TABLE_MIN_VALUES, 3 * TABLE_MIN_VALUES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_fine_code_equals_searchsorted_on_both_sides_of_the_crossover(kind, n, bulk, seed):
    rng = np.random.default_rng(seed)
    edges = fuzz_grid(kind, n, rng)
    fb = FeatureBins(fine_edges=edges, coarse_edges=edges[:0], x_min=0.0, x_max=1.0)
    near = (edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf))
    x = np.concatenate((*near, SPECIALS))
    assert x.size < TABLE_MIN_VALUES
    if bulk:
        extra = rng.choice(x, bulk) * rng.choice([1.0, 1.0 + 1e-15], bulk)
        x = rng.permutation(np.concatenate((x, extra)))
    with mock.patch.object(FineTable, "codes", autospec=True, side_effect=FineTable.codes) as table:
        assert np.array_equal(fine_code(fb, x), np.searchsorted(edges, x, side="right"))
    # consulted from TABLE_MIN_VALUES values, on grids of more than SEARCH_MAX_EDGES
    uses_table = bulk > 0 and n > SEARCH_MAX_EDGES
    assert ("fine_table" in vars(fb)) == uses_table
    if kind == "lognormal" and n == 255:  # heavy tail: most edges share the first cells
        assert fb.fine_table.steps > 2
    # the side of the crossover that ran
    assert table.called == (uses_table and x.size >= TABLE_MIN_VALUES << (fb.fine_table.steps > 2))


@pytest.mark.parametrize("n_edges", [0, 1, 5, SEARCH_MAX_EDGES])
def test_fine_code_searches_few_edge_grids_at_any_size(n_edges):
    rng = np.random.default_rng(n_edges)
    edges = np.sort(rng.choice(np.arange(-50.0, 50.0), n_edges, replace=False))
    fb = FeatureBins(fine_edges=edges, coarse_edges=edges[:0], x_min=-50.0, x_max=50.0)
    x = np.concatenate((rng.choice(np.append(edges, SPECIALS), 1000),
                        rng.uniform(-60.0, 60.0, 3 * TABLE_MIN_VALUES)))
    with mock.patch.object(FineTable, "codes", autospec=True, side_effect=FineTable.codes) as table:
        for m in (TABLE_MIN_VALUES, 2 * TABLE_MIN_VALUES, x.size):
            assert np.array_equal(fine_code(fb, x[:m]), np.searchsorted(edges, x[:m], side="right"))
    assert not table.called and "fine_table" not in vars(fb)


# ---------------------------------------------------------------------------
# layout


def test_coarse_edges_nested_in_fine():
    rng = np.random.default_rng(6)
    ds = make_dataset(rng.normal(size=(500, 3)), rng.normal(size=500))
    layout = build_bin_layout(ds, SplitScheme(256, 20))
    for k in range(3):
        fb = layout[k]
        assert np.isin(fb.coarse_edges, fb.fine_edges).all()
        assert fb.coarse_edges.size + 1 <= 20
        assert fb.x_min == ds.X[:, k].min()
        assert fb.x_max == ds.X[:, k].max()


def test_categorical_feature_one_bin_per_level():
    rng = np.random.default_rng(7)
    col = rng.integers(0, 4, size=200).astype(float)
    ds = make_dataset(
        col.reshape(-1, 1), rng.normal(size=200), kinds=["categorical"]
    )
    layout = build_bin_layout(ds)
    fb = layout[0]
    assert fb.n_fine_bins == 4
    assert np.array_equal(fb.fine_edges, fb.coarse_edges)


# ---------------------------------------------------------------------------
# split_indices


def test_split_fractions_must_sum_to_one():
    with pytest.raises(ValueError):
        split_indices(100, (0.5, 0.2, 0.2), seed=0)


@pytest.mark.parametrize("n, fractions, seed", [
    (100, (1.5, -0.5, 0.0), 0),
    (100, (0.7, 0.1, float("nan")), 0),
    (100, (float("inf"), 0.0, 0.0), 0),
    (100, (0.5, 0.2, 0.2), 0),
    (-5, (0.7, 0.1, 0.2), 0),
    (10.0, (0.7, 0.1, 0.2), 0),
    (100, (0.7, 0.1, 0.2), -1),
    (100, (0.7, 0.1, 0.2), 1.5),
    (100, (0.5, 0.5), 0),
    (100, (0.5, 0.25, 0.25, 0.0), 0),
])
def test_split_refuses_bad_input_with_config_error(n, fractions, seed):
    with pytest.raises(ConfigError):
        split_indices(n, fractions, seed)


def test_split_disjoint_and_complete():
    tr, va, te = split_indices(103, (0.7, 0.1, 0.2), seed=11)
    allidx = np.concatenate([tr, va, te])
    assert np.array_equal(np.sort(allidx), np.arange(103))


def test_split_deterministic_by_seed():
    a = split_indices(200, (0.7, 0.1, 0.2), seed=5)
    b = split_indices(200, (0.7, 0.1, 0.2), seed=5)
    c = split_indices(200, (0.7, 0.1, 0.2), seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_split_stratified_keeps_all_classes():
    labels = np.repeat([0, 1, 2], [60, 30, 10])
    tr, va, te = split_indices(100, (0.7, 0.1, 0.2), seed=0, labels=labels)
    for part in (tr, va, te):
        assert set(labels[part].tolist()) == {0, 1, 2}
    # rough proportionality on the dominant class
    assert abs((labels[tr] == 0).mean() - 0.6) < 0.05


@pytest.mark.parametrize("n, fractions, seed, labels, parts", [
    (12, (0.5, 0.25, 0.25), 0, None, [[2, 4, 5, 7, 9, 11], [0, 3, 6], [1, 8, 10]]),
    (37, (0.7, 0.1, 0.2), 5, None, [
        [1, 2, 3, 6, 7, 8, 9, 11, 12, 13, 17, 19, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
         34, 35, 36],
        [16, 20, 21, 33],
        [0, 4, 5, 10, 14, 15, 18]]),
    (20, (0.6, 0.2, 0.2), 3, np.repeat([0, 1], [13, 7]),
     [[0, 1, 2, 4, 7, 9, 11, 12, 13, 16, 17, 18], [5, 6, 10, 19], [3, 8, 14, 15]]),
    (0, (0.7, 0.1, 0.2), 0, None, [[], [], []]),
    (0, (0.7, 0.1, 0.2), 0, np.zeros(0), [[], [], []]),
])
def test_split_indices_are_pinned(n, fractions, seed, labels, parts):
    # a seed keeps its split, so an old config_resolved.ini reruns the same fit
    got = split_indices(n, fractions, seed, labels=labels)
    assert [p.tolist() for p in got] == parts
    assert all(p.dtype == np.intp for p in got)


@pytest.mark.parametrize("labels", [np.zeros(5), np.zeros(11), np.zeros((10, 1))])
def test_split_refuses_labels_that_are_not_one_per_row(labels):
    with pytest.raises(ConfigError, match=r"labels must hold one value per row \(10\)"):
        split_indices(10, (0.5, 0.3, 0.2), 0, labels=labels)


# ---------------------------------------------------------------------------
# CSV ingestion


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def test_load_csv_regression(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "b", "y"], [[1, 2, 3.5], [4, 5, 6.5], [7, 8, 9.5], [1, 1, 0.0]])
    ds = load_csv(p, target="y", task="regression")
    assert ds.n_rows == 4 and ds.n_features == 2
    assert ds.feature_names == ["a", "b"]
    assert ds.task == "regression" and ds.n_outputs == 1
    assert ds.y.tolist() == [3.5, 6.5, 9.5, 0.0]


def test_load_csv_multiclass_counts_classes(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "y"], [[i, i % 3] for i in range(9)])
    ds = load_csv(p, target="y", task="multiclass")
    assert ds.n_outputs == 3
    assert ds.y.dtype == np.int64


def test_load_csv_nan_cell_names_row_and_column(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "y"], [[1, 2], ["NaN", 3]])
    with pytest.raises(DataError) as exc:
        load_csv(p, target="y", task="regression")
    msg = str(exc.value)
    assert "a" in msg and ("row" in msg.lower() or "line" in msg.lower())


def test_load_csv_missing_target(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "b"], [[1, 2]])
    with pytest.raises(DataError):
        load_csv(p, target="y", task="regression")


def test_load_csv_multiclass_gap_in_classes(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "y"], [[1, 0], [2, 2], [3, 0]])
    with pytest.raises(DataError):
        load_csv(p, target="y", task="multiclass")


def test_load_csv_refuses_more_classes_than_rows_before_listing_them(tmp_path):
    # one label of 10^12 would ask for 10^12 classes: refused by count, not
    # by a set of every class
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "y"], [[1, 0], [2, 10**12], [3, 1]])
    with pytest.raises(DataError, match="label 1e[+]12 asks for more classes than the 3 rows"):
        load_csv(p, target="y", task="multiclass")


@pytest.mark.parametrize("task, label", [("binary", 0.5), ("binary", 2), ("multiclass", -1),
                                         ("multiclass", 1.5)])
def test_load_csv_labels_pass_the_dataset_rule(tmp_path, task, label):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "y"], [[1, 0], [2, label], [3, 1]])
    with pytest.raises(DataError, match=f"{task} labels must be whole numbers in 0..1; row 1"):
        load_csv(p, target="y", task=task)


def test_load_csv_binary_label_range(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "y"], [[1, 0], [2, 2]])
    with pytest.raises(DataError):
        load_csv(p, target="y", task="binary")


@pytest.mark.parametrize(
    "task, n_outputs, labels, row",
    [
        ("binary", 1, [0, 1, 2, 0], 2),
        ("binary", 1, [0, 0.5, 1, 1], 1),
        ("binary", 1, [0, 1, np.nan, 1], 2),
        ("multiclass", 3, [0, 1, 2, 3], 3),
        ("multiclass", 3, [0, -1, 2, 1], 1),
        ("multiclass", 3, [0, 1, 1.5, 2], 2),
    ],
)
def test_validate_refuses_labels_the_task_cannot_hold(task, n_outputs, labels, row):
    def dataset(y):
        return Dataset(X=np.arange(4.0).reshape(4, 1), y=np.array(y), feature_names=["a"],
                       kinds=["numeric"], task=task, n_outputs=n_outputs)

    dataset([0.0, 1.0, 1.0, 0.0]).validate()  # whole numbers in float form are labels
    bad = dataset(labels)
    with pytest.raises(DataError, match=f"labels must be whole numbers in 0..{n_outputs - 1 or 1}; row {row} "):
        bad.validate()
    with pytest.raises(DataError, match=f"row {row} "):
        train(bad)


def test_validate_refuses_repeated_feature_names():
    # training and replay find an update's feature by its name
    ds = Dataset(X=np.zeros((4, 3)), y=np.zeros(4), feature_names=["a", "b", "a"],
                 kinds=["numeric"] * 3, task="regression", n_outputs=1)
    with pytest.raises(DataError, match=r"repeated: \['a'\]"):
        ds.validate()
    with pytest.raises(DataError, match="unique"):
        train(ds)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"task": "poisson"}, "unknown task 'poisson'"),
        ({"kinds": ["numeric"]}, "kinds must give"),
        ({"kinds": ["numeric", "ordinal"]}, "kinds must give"),
        ({"n_outputs": 2}, "regression needs exactly 1 outputs, got n_outputs = 2"),
        ({"task": "binary", "n_outputs": 2}, "binary needs exactly 1 outputs"),
        ({"task": "multiclass", "n_outputs": 1}, "multiclass needs at least 2 outputs"),
        ({"feature_names": ["a", 5]}, "feature names must be strings, got 5"),
    ],
)
def test_validate_refuses_an_unknown_task_kinds_or_output_count(change, message):
    fields = dict(X=np.arange(8.0).reshape(4, 2), y=np.array([0, 1, 1, 0]),
                  feature_names=["a", "b"], kinds=["numeric"] * 2, task="regression",
                  n_outputs=1)
    Dataset(**fields).validate()
    bad = Dataset(**{**fields, **change})
    with pytest.raises(DataError, match=message):
        bad.validate()
    with pytest.raises(DataError, match=message):
        train(bad)


@pytest.mark.parametrize(
    "X, dtype",
    [
        (np.arange(8.0).reshape(4, 2) + 1j, "complex128"),
        (np.arange(8.0).reshape(4, 2).astype(str), "<U32"),
        (np.array([["a", "b"]] * 4), "<U1"),
        (np.zeros((4, 2), dtype="datetime64[s]"), r"datetime64\[s\]"),
    ],
)
def test_validate_refuses_a_matrix_that_does_not_hold_real_numbers(X, dtype):
    bad = Dataset(X=X, y=np.zeros(4), feature_names=["a", "b"], kinds=["numeric"] * 2,
                  task="regression", n_outputs=1)
    with pytest.raises(DataError, match=f"X must hold real numbers, got dtype {dtype}$"):
        bad.validate()
    with pytest.raises(DataError, match=f"got dtype {dtype}$"):
        train(bad)


def test_validate_refuses_an_object_matrix():
    # an object array is refused by its dtype, whatever it holds: None,
    # numbers or numeric strings, as `predict` refuses it
    fields = dict(y=np.zeros(4), feature_names=["a", "b"], kinds=["numeric"] * 2,
                  task="regression", n_outputs=1)
    X = np.arange(8.0).reshape(4, 2).astype(object)
    X[2, 1] = None
    with pytest.raises(DataError, match="X must hold real numbers, got dtype object$"):
        Dataset(X=X, **fields).validate()
    X[2, 1] = 5.0
    for call in (Dataset(X=X, **fields).validate, lambda: train(Dataset(X=X, **fields))):
        with pytest.raises(DataError, match="X must hold real numbers, got dtype object$"):
            call()
    Dataset(X=X.astype(float), **fields).validate()


def test_build_bin_layout_refuses_a_dataset_with_no_rows():
    with pytest.raises(DataError, match="no rows"):
        build_bin_layout(make_dataset(np.zeros((0, 2)), np.zeros(0)))


def test_train_refuses_a_training_set_with_no_rows():
    ds = make_dataset(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(DataError, match="no rows"):
        train(ds, config=TrainConfig(validation_fraction=0.0, early_stopping_patience=0))


@pytest.mark.parametrize(
    "scheme", [SplitScheme(n_bins_higher=0), SplitScheme(n_bins_higher=-3),
               SplitScheme(n_bins_degree0=0), SplitScheme(n_bins_degree0=2.5)])
def test_build_bin_layout_refuses_a_bin_count_below_one(scheme):
    ds = make_dataset(np.linspace(0.0, 1.0, 50), np.zeros(50))
    bad = "n_bins_degree0" if scheme.n_bins_degree0 != 256 else "n_bins_higher"
    with pytest.raises(ConfigError, match=f"{bad} must be an integer >= 1"):
        build_bin_layout(ds, scheme)


def test_load_csv_categorical_inference_and_override(tmp_path):
    p = tmp_path / "d.csv"
    rows = [[i % 2, i % 5, i * 1.0, i * 0.5] for i in range(20)]
    write_csv(p, ["two", "five", "cont", "y"], rows)
    ds = load_csv(p, target="y", task="regression")
    assert ds.kinds == ["categorical", "numeric", "numeric"]
    ds2 = load_csv(p, target="y", task="regression", categorical=("five",))
    assert ds2.kinds == ["categorical", "categorical", "numeric"]


def test_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 3))
    y = rng.normal(size=50)
    p = tmp_path / "d.csv"
    write_csv(
        p,
        ["a", "b", "c", "y"],
        [[repr(v) for v in row] + [repr(t)] for row, t in zip(X.tolist(), y.tolist())],
    )
    ds = load_csv(p, target="y", task="regression")
    assert np.array_equal(ds.X, X) and np.array_equal(ds.y, y)


def test_load_feature_matrix_checks_columns(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "b"], [[1, 2]])
    with pytest.raises(DataError):
        load_feature_matrix(p, ["a", "c"])
    with pytest.raises(DataError):
        load_feature_matrix(p, ["a"])  # b unknown
    X = load_feature_matrix(p, ["a"], ignore=("b",))
    assert X.tolist() == [[1.0]]


def test_load_feature_matrix_allows_empty(tmp_path):
    p = tmp_path / "d.csv"
    write_csv(p, ["a", "b"], [])
    X = load_feature_matrix(p, ["b", "a"])
    assert X.shape == (0, 2)
