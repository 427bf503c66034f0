"""`predict`'s flat evaluation pass against the per-feature reference loop.

`oracles.reference_predict` adds each allowed (feature, output) pair to its
output's column in feature order, as `predict` did before it evaluated all
pairs at once. The two must agree bit for bit, codes included, for any
store, any row count around the chunk size, and after any change to the
store between calls.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polygam import model
from polygam.data import BinLayout, FeatureBins
from polygam.errors import DataError
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    ShapeParams,
    accumulate_global,
    accumulate_update,
    predict,
    zero_init,
)

from oracles import reference_predict

# rows at +-1e300 overflow the cubics to inf and NaN, in the reference too
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning"
)

C = model.CHUNK_ROWS
ROW_COUNTS = [0, 1, 1023, 1024, C - 1, C, C + 1, 2 * C + 1]


def build_store(n_outputs, n_edges, mask, seed):
    """A store over random grids (n_edges[k] fine edges, about a third of
    them coarse) with random parameters sprinkled with -0.0. An output that
    uses no feature gets the intercept -0.0."""
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
            sp.step_values = numbers(*sp.step_values.shape)
            sp.poly_coeffs = numbers(*sp.poly_coeffs.shape)
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
@example((2, [4, 1], np.ones((2, 2), bool), C + 1, 3))  # no padding slot
@given(cases())
def test_predict_equals_the_reference_loop_bit_for_bit(case):
    J, n_edges, mask, n, seed = case
    store = build_store(J, n_edges, mask, seed)
    X = rows(store, n, seed)
    F, codes = predict(store, X, return_codes=True)
    R, want = reference_predict(store, X, return_codes=True)
    assert F.shape == R.shape == (n, J)
    assert F.tobytes() == R.tobytes()
    assert predict(store, X).tobytes() == F.tobytes()
    for got, ref in zip(codes, want, strict=True):
        assert (got is None) == (ref is None)
        if ref is not None:
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)


def test_predict_reads_parameters_afresh_after_every_change():
    """No parameter value outlives a call: in-place edits, reassigned arrays,
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
    store.params[1][2].poly_coeffs = rng.normal(size=store.params[1][2].poly_coeffs.shape)
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


@pytest.mark.parametrize("field, cut", [("step_values", np.s_[:-1]), ("poly_coeffs", np.s_[:-1])])
def test_predict_refuses_parameters_that_do_not_fit_the_layout(field, cut):
    """The flat pass gathers without checking each index, so a parameter
    array shorter than its grid is refused before any gather."""
    store = build_store(2, [6, 6], np.ones((2, 2), bool), 7)
    sp = store.params[1][0]
    setattr(sp, field, getattr(sp, field)[cut])
    with pytest.raises(DataError, match="do not match the bin layout"):
        predict(store, rows(store, 5, 7))
