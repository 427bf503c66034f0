"""`predict`'s flat evaluation pass against the per-feature reference loop.

`oracles.reference_predict` adds each allowed (feature, output) pair to its
output's column in feature order, as `predict` did before it evaluated all
pairs at once. The two must agree bit for bit, codes included, for any
store, any row count around the chunk size, on one lane or several, and
after any change to the store between calls.
"""

import sys
import threading
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polygam import lanes, model
from polygam.booster import TrainConfig, train
from polygam.data import BinLayout, FeatureBins
from polygam.errors import DataError
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    ShapeParams,
    accumulate_global,
    accumulate_update,
    dumps_model,
    load_model,
    predict,
    save_model,
    zero_init,
)
from polygam.uncertainty import attach_se_accumulators

from conftest import make_dataset
from oracles import reference_predict

# rows at +-1e300 overflow the cubics to inf and NaN, in the reference too
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)

C = model.CHUNK_ROWS
ROW_COUNTS = [0, 1, 1023, 1024, C - 1, C, C + 1, 2 * C + 1]


def build_store(n_outputs, n_edges, mask, seed):
    """A store over random grids (n_edges[k] fine edges, about a third of
    them coarse) with random parameters sprinkled with -0.0, written into
    the arrays `zero_init` made, so `predict` reads them from the store's
    table. An output that uses no feature gets the intercept -0.0."""
    rng = np.random.default_rng(seed)
    feats = []
    for e in n_edges:
        fine = np.unique(rng.standard_cauchy(e) * 10.0 ** rng.integers(-2, 3))
        coarse = fine[rng.random(fine.size) < 0.35]
        lo, hi = (fine[0] - 1.0, fine[-1] + 1.0) if fine.size else (-1.0, 1.0)
        feats.append(FeatureBins(fine, coarse, float(lo), float(hi)))
    K = len(feats)
    spec = ConstraintSpec(features=[FeatureConstraint()] * K, allow_mask=np.array(mask, bool))
    store = zero_init(BinLayout(features=feats), "multiclass", n_outputs,
                      [f"x{k}" for k in range(K)], spec)

    def numbers(*shape):
        v = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 3, size=shape)
        return np.where(rng.random(shape) < 0.15, -0.0, v)

    store.intercepts = np.where(spec.allow_mask.any(axis=1), numbers(n_outputs), -0.0)
    for row in store.params:
        for sp in row:
            sp.step_values[...] = numbers(*sp.step_values.shape)
            sp.poly_coeffs[...] = numbers(*sp.poly_coeffs.shape)
    return store


def rows(store, n, seed):
    """n rows mixing knots and their float neighbours, the observed range's
    ends, values inside and far outside it, signed zeros and +-1e300."""
    rng = np.random.default_rng(seed)
    X = np.empty((n, len(store.layout)))
    for k, fb in enumerate(store.layout.features):
        e = fb.fine_edges
        pool = np.concatenate((
            e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), fb.coarse_lower_edges,
            [fb.x_min, fb.x_max, 0.0, -0.0, 1e300, -1e300],
            rng.uniform(fb.x_min - 5.0, fb.x_max + 5.0, 16),
        ))
        X[:, k] = rng.choice(pool, n)
    return X


@st.composite
def cases(draw):
    J = draw(st.integers(1, 3))
    K = draw(st.integers(0, 4))
    n_edges = [draw(st.sampled_from([0, 1, 4, 40])) for _ in range(K)]
    mask = np.array(draw(st.lists(st.booleans(), min_size=J * K, max_size=J * K)),
                    dtype=bool).reshape(J, K)
    return J, n_edges, mask, draw(st.sampled_from(ROW_COUNTS)), draw(st.integers(0, 2**32 - 1))


# outputs using 3, 0 and 1 features; feature 2 serves no output; feature 1
# has no fine edge; three chunks, the last of one row
@example((3, [5, 0, 3, 40], [[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0]], 2 * C + 1, 1))
@example((1, [], np.zeros((1, 0), bool), 1, 2))  # no feature at all
@example((0, [4], np.zeros((0, 1), bool), 3, 5))  # no output at all
@example((2, [4, 1], np.ones((2, 2), bool), C + 1, 3))  # no padding slot
@given(cases())
def test_predict_equals_the_reference_loop_bit_for_bit(case):
    J, n_edges, mask, n, seed = case
    store = build_store(J, n_edges, mask, seed)
    assert_matches_reference(store, rows(store, n, seed))


def assert_matches_reference(store, X):
    F, codes = predict(store, X, return_codes=True)
    R, want = reference_predict(store, X, return_codes=True)
    assert F.shape == R.shape == (X.shape[0], store.n_outputs)
    assert F.tobytes() == R.tobytes()
    assert predict(store, X).tobytes() == F.tobytes()
    for got, ref in zip(codes, want, strict=True):
        assert (got is None) == (ref is None)
        if ref is not None:
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


def test_predict_reads_parameters_afresh_after_every_change():
    """No parameter value outlives a call: in-place edits, replaced params,
    folded updates, new intercepts, mask edits and a new layout all show in
    the next prediction. The cached plan is rebuilt only for the last three."""
    mask = np.array([[1, 1, 0], [1, 0, 1]], bool)
    store = build_store(2, [6, 6, 6], mask, 4)
    X = rows(store, C + 3, 4)
    last = [predict(store, X)]

    def changed(replan=False):
        plan = store.plan
        F = predict(store, X)
        assert F.tobytes() == reference_predict(store, X).tobytes()
        assert F.tobytes() != last[0].tobytes()
        assert (store.plan is not plan) == replan
        last[0] = F

    fb, rng = store.layout[0], np.random.default_rng(5)
    store.params[0][1].step_values[2:] += 0.5
    changed()
    store.params[1][0].poly_coeffs[0, 3] -= 1.25
    changed()
    store.params = [list(row) for row in store.params]  # read from fresh tables from here on
    sp = store.params[1][2]
    store.params[1][2] = replace(sp, poly_coeffs=rng.normal(size=sp.poly_coeffs.shape))
    changed()
    store.params[0][0] = ShapeParams(rng.normal(size=fb.n_fine_bins),
                                     rng.normal(size=(fb.n_coarse_bins, 4)))
    changed()
    accumulate_update(store, 0, 0, 0, fb.fine_edges[3], 0.3, -0.7, 0.5)
    changed()
    accumulate_update(store, 1, 0, 2, fb.coarse_edges[0], -1.0, 2.0, 0.5)
    changed()
    accumulate_global(store, 1, 2, 1, 0.8, 0.5)
    changed()
    store.intercepts = np.array([3.0, -0.0])
    changed()
    store.constraints.allow_mask[0, 2] = True
    changed(replan=True)
    store.constraints.allow_mask = np.array([[0, 1, 1], [1, 0, 0]], bool)
    changed(replan=True)
    store.layout = BinLayout(features=[
        FeatureBins(f.fine_edges * 0.5, f.coarse_edges * 0.5, f.x_min * 0.5, f.x_max * 0.5)
        for f in store.layout.features
    ])
    changed(replan=True)


@pytest.mark.parametrize("field, cut", [("step_values", np.s_[:-1]), ("poly_coeffs", np.s_[:-1]),
                                        ("step_values", np.s_[:, None]),
                                        ("poly_coeffs", np.s_[:, :-1])])
def test_predict_refuses_parameters_that_do_not_fit_the_layout(field, cut):
    """The flat pass gathers without checking each index, so a pair whose
    arrays are not shaped as its grids is refused when a fresh table is
    built, by `predict` or by `ParameterStore.copy`, before any gather."""
    store = build_store(2, [6, 6], np.ones((2, 2), bool), 7)
    store.params = [list(row) for row in store.params]
    sp = store.params[1][0]
    store.params[1][0] = replace(sp, **{field: getattr(sp, field)[cut]})
    X = rows(store, 5, 7)
    with pytest.raises(DataError, match="do not match the bin layout"):
        predict(store, X)
    with pytest.raises(DataError, match="do not match the bin layout"):
        predict(store.copy(), X)


def test_predict_refuses_pairs_that_trade_entries_at_equal_totals():
    """Pair (0, 0) one step value short and pair (0, 1) one long: the
    table's sizes still match the layout, but every pair is checked on its
    own, so neither path reads the values shifted across pairs."""
    store = build_store(1, [6, 6], [[1, 1]], 3)
    a, b = store.params[0]
    store.params = [[replace(a, step_values=a.step_values[:-1]),
                     replace(b, step_values=np.append(b.step_values, a.step_values[-1]))]]
    X = rows(store, 5, 3)
    with pytest.raises(DataError, match="do not match the bin layout"):
        predict(store, X)
    with pytest.raises(DataError, match="do not match the bin layout"):
        predict(store.copy(), X)


def test_predict_never_reads_a_masked_pair():
    """A fresh table fills and checks the allowed pairs only: a masked pair
    one step value short is left at 0, as the bound table's masked pairs
    are never gathered."""
    store = build_store(2, [6, 6], [[1, 0], [1, 1]], 3)
    store.params = [[replace(sp, step_values=sp.step_values[: -1 if (i, k) == (0, 1) else None])
                     for k, sp in enumerate(row)] for i, row in enumerate(store.params)]
    assert_matches_reference(store, rows(store, 40, 3))


def assert_in_its_table(store):
    """Every pair's arrays are contiguous views of the store's one table,
    laid out in (output, feature) order, with a zero row after the last;
    params is the tuple of tuples bound to it."""
    params, coef, steps = store.table[2:5]
    assert params is store.params and type(params) is tuple
    assert all(type(row) is tuple for row in params)
    pairs = [sp for row in params for sp in row]
    assert coef.shape[1] == 4 and not coef[-1].any()
    for table, arrays, end in ((coef, [sp.poly_coeffs for sp in pairs], coef[-1].nbytes),
                               (steps, [sp.step_values for sp in pairs], 0)):
        at = table.ctypes.data
        for a in arrays:
            assert a.base is table and a.flags.c_contiguous and a.ctypes.data == at
            at += a.nbytes
        assert at + end == table.ctypes.data + table.nbytes


def small_fit():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(300, 3))
    y = np.digitize(X[:, 0] + X[:, 1] ** 2 + rng.logistic(size=300), [0.0, 1.5])
    cfg = TrainConfig(max_iterations=6, early_stopping_patience=0, validation_fraction=0.0)
    return train(make_dataset(X, y, task="multiclass"), config=cfg), X


def test_every_store_the_library_makes_reads_its_parameters_from_one_table(tmp_path):
    res, X = small_fit()
    save_model(res.store, tmp_path / "m.json")
    loaded = load_model(tmp_path / "m.json")
    built = build_store(2, [6, 0, 3], [[1, 1, 0], [0, 1, 1]], 22)
    for store in (res.store, res.initial_store, res.replay_to(3), loaded, built,
                  built.copy(), zero_init(built.layout, "multiclass", 2, built.feature_names,
                                          built.constraints)):
        assert_in_its_table(store)
    assert predict(loaded, X).tobytes() == predict(res.store, X).tobytes()


def test_a_copy_and_its_original_share_no_parameter():
    a = build_store(2, [6, 6, 6], [[1, 1, 0], [1, 0, 1]], 23)
    b = a.copy()
    X = rows(a, 40, 23)
    before = predict(a, X)
    assert predict(b, X).tobytes() == before.tobytes()
    for edit, seen, other in ((b, b, a), (a, a, b)):
        fb = edit.layout[0]
        edit.params[1][0].poly_coeffs[1, 2] += 0.75
        accumulate_update(edit, 0, 0, 0, fb.fine_edges[2], 0.3, -0.7, 0.5)
        assert predict(other, X).tobytes() == reference_predict(other, X).tobytes()
        assert predict(seen, X).tobytes() == reference_predict(seen, X).tobytes()
    assert predict(b, X).tobytes() != before.tobytes() != predict(a, X).tobytes()


def test_a_bound_pair_cannot_be_rebound_or_replaced():
    store = build_store(2, [6, 6, 6], [[1, 1, 0], [1, 0, 1]], 24)
    sp = store.params[1][2]
    with pytest.raises(FrozenInstanceError):
        sp.poly_coeffs = sp.poly_coeffs + 1.5
    with pytest.raises(FrozenInstanceError):
        sp.step_values = store.params[0][0].step_values
    with pytest.raises(TypeError):
        store.params[1][2] = ShapeParams(sp.step_values.copy(), sp.poly_coeffs.copy())
    with pytest.raises(TypeError):
        store.params[1] = store.params[0]
    assert_in_its_table(store)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_predict_sees_params_replaced_wholesale(monkeypatch, cpus):
    store = build_store(2, [6, 6, 6], [[1, 1, 0], [1, 0, 1]], 24)
    X = rows(store, C + 3, 24)
    before = predict(store, X)
    open_lanes(monkeypatch, cpus)
    store.params = [[ShapeParams(sp.step_values * 2.0, sp.poly_coeffs) for sp in row]
                    for row in store.params]
    F = predict(store, X)
    assert F.tobytes() == reference_predict(store, X).tobytes()
    assert F.tobytes() != before.tobytes()
    assert_matches_reference(store, X)


@pytest.mark.parametrize("grow", ["feature", "output"])
def test_predict_sees_a_store_grown_past_its_table(grow):
    """A store grown by replacing its params, layout and mask is read from a
    fresh table laid out for its new pairs."""
    store = build_store(2, [6, 6], np.ones((2, 2), bool), 28)
    rng, mask = np.random.default_rng(28), store.constraints.allow_mask
    if grow == "feature":
        fb = store.layout[0]
        store.layout = BinLayout(features=[*store.layout.features, fb])
        store.feature_names = [*store.feature_names, "x2"]
        fcs, mask = [*store.constraints.features, FeatureConstraint()], np.ones((2, 3), bool)
        store.params = [[*row, ShapeParams(rng.normal(size=fb.n_fine_bins),
                                           rng.normal(size=(fb.n_coarse_bins, 4)))]
                        for row in store.params]
    else:
        store.n_outputs, store.intercepts = 3, np.append(store.intercepts, 0.5)
        store.params = [*store.params, [ShapeParams(rng.normal(size=fb.n_fine_bins),
                                                    rng.normal(size=(fb.n_coarse_bins, 4)))
                                        for fb in store.layout.features]]
        fcs, mask = store.constraints.features, np.ones((3, 2), bool)
    store.constraints = ConstraintSpec(features=fcs, allow_mask=mask)
    assert_matches_reference(store, rows(store, 40, 28))


@pytest.mark.parametrize("grid", ["fine", "coarse"])
def test_predict_refuses_a_layout_with_other_bin_counts(grid):
    store = build_store(2, [6, 6], np.ones((2, 2), bool), 25)
    X = rows(store, 5, 25)
    predict(store, X)
    f = store.layout[1]
    fine = f.fine_edges[:-1] if grid == "fine" else f.fine_edges
    coarse = fine[:1] if grid == "coarse" and f.coarse_edges.size != 1 else fine[:2]
    store.layout = BinLayout(features=[store.layout[0], FeatureBins(fine, coarse, f.x_min,
                                                                    f.x_max)])
    with pytest.raises(DataError, match="do not match the bin layout"):
        predict(store, X)


@pytest.mark.parametrize("shape", [(1, 2), (3, 2), (2, 1), (2, 3)])
def test_predict_refuses_an_allow_mask_of_another_shape(shape):
    """The plan's pairs index the table by (output, feature), so a mask not
    shaped (outputs, features) is refused before any gather."""
    store = build_store(2, [6, 6], np.ones((2, 2), bool), 29)
    X = rows(store, 5, 29)
    store.constraints.allow_mask = np.ones(shape, bool)
    with pytest.raises(DataError, match=r"allow mask shape \(\d, \d\) does not match"):
        predict(store, X)


def test_predict_builds_a_table_only_for_replaced_params(monkeypatch):
    store = small_fit()[0].store
    X = rows(store, C + 1, 26)
    calls, table = [], model._table
    monkeypatch.setattr(model, "_table", lambda *args: calls.append(1) or table(*args))
    for _ in range(3):
        predict(store, X[:1])
        predict(store, X)
    assert calls == []
    store.params = [list(row) for row in store.params]
    predict(store, X[:1])
    assert calls == [1]
    predict(store, X)
    assert calls == [1, 1]


def test_threads_sharing_a_store_predict_the_reference_bits():
    store = build_store(3, [5, 0, 3, 40], LANE_MASK, 27).copy()  # the plan is not built yet
    X = rows(store, C + 1, 27)
    want = reference_predict(store, X)
    bad, interval = [], sys.getswitchinterval()

    def work():
        for r in range(200):
            if predict(store, X[r : r + 1]).tobytes() != want[r : r + 1].tobytes():
                bad.append(r)
        if predict(store, X).tobytes() != want.tobytes():
            bad.append("bulk")

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def with_none(X):
    X = X.astype(object)
    X[3, 1] = None
    return X


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("make, message", [
    (lambda X: X + 1j, "X must hold real numbers, got dtype complex128$"),
    (lambda X: np.full(X.shape, "a"), "X must hold real numbers, got dtype <U1$"),
    (lambda X: X.astype(str), r"X must hold real numbers, got dtype <U\d+$"),
    (with_none, "X must hold real numbers, got dtype object$"),
])
def test_predict_and_se_attach_refuse_a_matrix_that_does_not_hold_real_numbers(make, message):
    # a complex X used to lose its imaginary part to a ComplexWarning
    store = build_store(2, [6, 6], np.ones((2, 2), bool), 7)
    X = make(rows(store, 5, 7))
    for call in (predict, attach_se_accumulators):
        with pytest.raises(DataError, match=message):
            call(store, X)
    assert not store.has_uncertainty


# ---------------------------------------------------------------------------
# lanes: with the gate forced open, a call cuts its rows into one range per
# lane, each in chunks of max(CHUNK_ROWS, LANE_CHUNK_VALUES // pairs) rows

LANE_MASK = [[1, 1, 0, 1], [0, 0, 0, 0], [1, 0, 0, 0]]  # four pairs
LANE_CHUNK = 2500  # rows per lane chunk, with LANE_CHUNK_VALUES patched


def lane_store(seed=11):
    return build_store(3, [5, 0, 3, 40], LANE_MASK, seed)


def open_lanes(monkeypatch, cpus, chunk_values=None):
    monkeypatch.setattr(lanes, "PAR_MIN_VALUES", 0)
    monkeypatch.setattr(lanes, "_cpus", lambda: cpus)
    if chunk_values is not None:
        monkeypatch.setattr(model, "LANE_CHUNK_VALUES", chunk_values)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_lane_predict_equals_the_reference_loop_bit_for_bit(monkeypatch, cpus):
    store = lane_store()
    open_lanes(monkeypatch, cpus, chunk_values=4 * LANE_CHUNK)
    L, ch = cpus, LANE_CHUNK
    # empty and one-row calls, lane cuts that leave lanes without rows or
    # uneven, and each lane's range around one and two lane chunks
    counts = {0, 1, L - 1, L, L + 1, 2 * L + 1, C - 1, C + 1, ch - 1, ch, ch + 1,
              L * ch - 1, L * ch, L * ch + 1, L * (ch + 1) + 1, 2 * L * ch + L - 1}
    X = rows(store, max(counts), cpus)
    for n in sorted(counts):
        assert_matches_reference(store, X[:n])


@pytest.mark.parametrize("cpus", [2, 3])
def test_lane_predict_at_the_lane_chunk_size_of_the_module(monkeypatch, cpus):
    store = lane_store(12)
    open_lanes(monkeypatch, cpus)
    chunk = model.LANE_CHUNK_VALUES // 4
    assert chunk > C
    X = rows(store, cpus * chunk + cpus + 1, 12)
    for n in (cpus * chunk - 1, cpus * chunk + cpus + 1):
        assert_matches_reference(store, X[:n])


def test_lane_se_attach_keeps_model_bytes(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(3000, 3))
    y = np.digitize(X[:, 0] + X[:, 1] ** 2 + rng.logistic(size=3000), [0.0, 1.5])
    ds = make_dataset(X, y, task="multiclass")
    cfg = TrainConfig(max_iterations=8, early_stopping_patience=0, validation_fraction=0.0)
    store = train(ds, config=cfg).store
    dumps = []
    for cpus in (1, 2, 3):
        with monkeypatch.context() as m:
            open_lanes(m, cpus, chunk_values=1000)
            s = store.copy()
            attach_se_accumulators(s, X)
            dumps.append(dumps_model(s))
    assert dumps[1] == dumps[0] and dumps[2] == dumps[0]


def test_lane_predict_leaves_no_thread_and_raises_a_lane_error(monkeypatch):
    store = lane_store(14)
    X = rows(store, 3000, 14)
    open_lanes(monkeypatch, 2, chunk_values=4000)
    before, caller, seen = threading.active_count(), threading.get_ident(), set()
    code = model.fine_code

    def spy(fb, x):
        seen.add(threading.get_ident())
        return code(fb, x)

    with monkeypatch.context() as m:
        m.setattr(model, "fine_code", spy)
        predict(store, X)
    assert len(seen) == 2 and caller in seen  # a worker lane ran beside this thread
    assert threading.active_count() == before

    def fail_off_the_calling_thread(fb, x):
        if threading.get_ident() != caller:
            raise FloatingPointError("lane failed")
        return code(fb, x)

    monkeypatch.setattr(model, "fine_code", fail_off_the_calling_thread)
    with pytest.raises(FloatingPointError, match="lane failed"):
        predict(store, X)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_lane_predict_keeps_the_callers_numpy_error_state(monkeypatch, cpus):
    store = lane_store(15)
    X = rows(store, 400, 15)
    X[np.abs(X) == 1e300] = 0.0
    open_lanes(monkeypatch, cpus)
    with np.errstate(over="raise"):
        predict(store, X)
        for big in (1e300, -1e300):
            X[-1, 0] = big  # in the last lane's range: a worker's on two lanes
            with pytest.raises(FloatingPointError, match="overflow"):
                predict(store, X)


def test_one_row_predict_stays_off_the_lanes(monkeypatch):
    store = lane_store(16)
    X = rows(store, lanes.PAR_MIN_VALUES, 16)
    calls, pool = [], lanes._lanes_pool
    monkeypatch.setattr(lanes, "_cpus", lambda: calls.append("cpus") or 2)
    monkeypatch.setattr(lanes, "_lanes_pool", lambda: calls.append("pool") or pool())
    predict(store, X[:1])
    predict(store, X[:-1])
    assert calls == []
    # at the gate: the gate reads the CPU count, the pool opens, and its
    # first job reads the count again to size the pool's threads
    predict(store, X)
    assert calls == ["cpus", "pool", "cpus"]


def test_lane_work_arrays_start_at_five_offsets_in_a_page():
    # binary_large's lane: 8 pairs and 16,384-row chunks, 1 MiB per array;
    # arrays that start at one offset in a page fall on the same cache sets
    at, rows, t, val, c, *_ = model._work(8, 1, 8, 16384)
    assert len({a.ctypes.data % 4096 for a in (at, rows, t, val, c)}) == 5
    assert at.dtype == rows.dtype == np.intp
    assert all(a.shape == (8, 16384) and a.flags.c_contiguous for a in (at, rows, t, val, c))
