"""Property test: the paper's guarantees over random small fits.

Each example trains a small model over random constraints (S in -1..2, any
valid D, monotone and curvature signs), one to three outputs and a random
allow-mask, then checks inside the observed range [x_min, x_max]:

* knot gaps vanish up to order S;
* masked (output, feature) blocks are exactly zero;
* monotone and curvature signs hold on a dense grid;
* save -> load -> predict gives the same bits.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polygam.booster import TrainConfig, train
from polygam.data import SplitScheme, build_bin_layout
from polygam.model import (
    ConstraintSpec,
    FeatureConstraint,
    evaluate_derivative,
    knot_gaps,
    load_model,
    predict,
    save_model,
)

from conftest import make_dataset

GAP_TOL = 1e-8  # as in the continuity acceptance criterion
SIGN_TOL = -1e-9  # the clamp aims at 0 and drops a step whose exact check is below -1e-10


@st.composite
def feature_constraints(draw):
    D = draw(st.integers(0, 3))
    S = draw(st.integers(-1, D - 1)) if D else -1
    m = draw(st.sampled_from([-1, 0, 1]))
    c = draw(st.sampled_from([-1, 0, 1])) if S >= 0 and D >= 2 else 0
    return FeatureConstraint(smoothness=S, max_degree=D, monotone=m, curvature=c)


@st.composite
def fit_cases(draw):
    n_outputs = draw(st.integers(1, 3))
    task = "multiclass" if n_outputs > 1 else draw(st.sampled_from(["regression", "binary"]))
    n_features = draw(st.integers(1, 3))
    fcs = [draw(feature_constraints()) for _ in range(n_features)]
    pair = st.sampled_from([True, True, True, False])  # mostly allowed
    mask = np.array(draw(st.lists(pair, min_size=n_outputs * n_features,
                                  max_size=n_outputs * n_features))).reshape(n_outputs, -1)
    seed = draw(st.integers(0, 2**16))
    return task, n_outputs, fcs, mask, seed


@given(fit_cases())
# constrained columns allowed in several outputs warn by design
@pytest.mark.filterwarnings("ignore:feature .* is constrained but allowed in multiple outputs")
def test_fit_keeps_continuity_masks_signs_and_round_trip(tmp_path_factory, case):
    task, n_outputs, fcs, mask, seed = case
    rng = np.random.default_rng(seed)
    n = 200
    X = rng.uniform(-1.0, 2.0, size=(n, len(fcs)))
    f = np.sin(3.0 * X[:, 0]) + X[:, 0] ** 2 - X[:, -1] ** 3
    if task == "regression":
        y = f + rng.normal(scale=0.3, size=n)
    elif task == "binary":
        y = (f + rng.normal(scale=0.5, size=n) > np.median(f)).astype(int)
    else:
        cuts = np.quantile(f, np.linspace(0.0, 1.0, n_outputs + 1)[1:-1])
        y = np.digitize(f + rng.normal(scale=0.5, size=n), cuts)
        y[:n_outputs] = np.arange(n_outputs)  # every class present
    ds = make_dataset(X, y, task=task)
    assert ds.n_outputs == n_outputs
    layout = build_bin_layout(ds, SplitScheme(32, 6))
    cfg = TrainConfig(learning_rate=0.3, max_iterations=25, early_stopping_patience=0,
                      validation_fraction=0.0, min_data_in_leaf=5)
    store = train(ds, layout=layout, constraints=ConstraintSpec(features=fcs, allow_mask=mask),
                  config=cfg).store

    for k, fc in enumerate(fcs):
        fb = layout[k]
        grid = np.linspace(fb.x_min, fb.x_max, 1001)
        for i in range(n_outputs):
            sp = store.params[i][k]
            where = f"output {i}, feature {k}, {fc}"
            if not mask[i, k]:
                assert not sp.step_values.any() and not sp.poly_coeffs.any(), where
                continue
            for order in range(fc.smoothness + 1):
                gaps = knot_gaps(store, i, k, order)
                assert np.abs(gaps).max(initial=0.0) <= GAP_TOL, (where, order)
            if fc.monotone:
                slope = fc.monotone * evaluate_derivative(store, i, k, grid, 1)
                assert slope.min() >= SIGN_TOL, where
                # the step layer and any jump at a knot go the same way
                jumps = fc.monotone * knot_gaps(store, i, k, 0)
                assert jumps.min(initial=0.0) >= SIGN_TOL, where
            if fc.curvature:
                bend = fc.curvature * evaluate_derivative(store, i, k, grid, 2)
                assert bend.min() >= SIGN_TOL, where

    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(store, path)
    rows = np.concatenate([X, rng.uniform(X.min(axis=0), X.max(axis=0), size=(50, len(fcs)))])
    assert predict(load_model(path), rows).tobytes() == predict(store, rows).tobytes()
