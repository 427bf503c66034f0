"""Print one sha256 per cell of a grid of small fits, to check that a change
leaves model bytes alone.

Cells run over every valid (S, D) pair, the monotone and curvature signs each
pair admits, and the three tasks. Each fit has four features: a constrained
column, an exact duplicate of it under the same constraint, a free column,
and a free column that is masked out of the last output (out of the model
when there is one output). Training uses a separate validation
set with early stopping. A cell prints three hashes. The first covers the
model bytes, the training log and a mid-run `replay_to`. The second, `se=`,
covers the model after `attach_se_accumulators`, so a change to the
standard-error sums alone moves only this one. The third, `path=`, covers
the split path only: (output, feature, degree, kind, threshold) of every log
record. A change that moves the last bits of the fit on purpose keeps the
path hash where it makes the same decisions. The fourth, `pred=`, covers
`predict` on a fixed probe matrix of PROBE_ROWS rows: every fine edge and
its two float neighbours, the observed range's ends, rows inside and
outside that range, and +-1e300. The fits have 240 rows, so only the probe
is large enough for `fine_code`'s cell table. Every cell also checks that
save -> `load_model` -> dump gives the first dump again, for the model and
for the SE-attached model, and that the probe's predictions from a copy of
the model, from the loaded model and from a copy whose pairs hold fresh
arrays (so `predict` builds its parameter table afresh) are the same
bytes; it stops with an error if any is not.

Run it under two source trees and diff the output:

    PYTHONPATH=<tree>/src python3 tools/byte_grid.py --seed 0 > grid_0.txt

The fits are far below the size at which training builds its feature
workspaces, scans and runs its row pass on parallel lanes, and the probe
below the size at which `predict` does. `--lanes N` stubs the CPU count of
`polygam.lanes` to N and opens its size gate, so that every cell builds its
workspaces, scans its segments, runs its row pass, predicts the probe and
attaches SEs on N lanes; the hashes must not change.

Uses only the standard library and numpy. The library and its tests do not
import it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import tempfile
import warnings

# polygam applies PB_THREADS only when it is imported before numpy
import polygam as pg

import numpy as np

TASKS = ("regression", "binary", "multiclass")
PROBE_ROWS = 2048


def cells():
    """(S, D, monotone, curvature, task) for every valid combination."""
    for D in range(4):
        for S in range(-1, D):
            curvatures = (-1, 0, 1) if S >= 0 and D >= 2 else (0,)
            for m in (-1, 0, 1):
                for c in curvatures:
                    for task in TASKS:
                        yield S, D, m, c, task


def dataset(X, f, task, rng):
    if task == "regression":
        y, n_outputs = f + rng.normal(scale=0.3, size=f.size), 1
    elif task == "binary":
        y, n_outputs = (f + rng.normal(scale=0.5, size=f.size) > np.median(f)).astype(np.int64), 1
    else:
        cuts = np.quantile(f, [0.33, 0.66])
        y, n_outputs = np.digitize(f + rng.normal(scale=0.5, size=f.size), cuts), 3
    return pg.Dataset(
        X=np.ascontiguousarray(X), y=y, feature_names=["a", "a_copy", "b", "c"],
        kinds=["numeric"] * 4, task=task, n_outputs=n_outputs,
    )


def round_trip(store, path) -> bytes:
    """The store's model bytes, after checking that save -> load -> dump
    gives them again."""
    text = pg.model.dumps_model(store)
    pg.save_model(store, path)
    if pg.model.dumps_model(pg.load_model(path)) != text:
        raise AssertionError("save -> load_model -> dumps_model changed the model bytes")
    return text.encode()


def probe(layout, rng) -> np.ndarray:
    """PROBE_ROWS rows; each column shuffles its feature's hard values among
    draws from its observed range widened by half its span on each side."""
    cols = []
    for fb in layout.features:
        e, lo, hi = fb.fine_edges, fb.x_min, fb.x_max
        hard = np.concatenate((e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                               [lo, hi, -1e300, 1e300, 0.0, -0.0]))
        half = 0.5 * (hi - lo)
        fill = rng.uniform(lo - half, hi + half, PROBE_ROWS - hard.size)
        cols.append(rng.permutation(np.concatenate((hard, fill))))
    return np.column_stack(cols)


def fit_hash(S, D, m, c, task, seed, iterations, model_path):
    rng = np.random.default_rng([seed, S + 1, D, m + 1, c + 1, TASKS.index(task)])
    n = 300
    X = rng.uniform(-1.0, 2.0, size=(n, 4))
    X[:, 1] = X[:, 0]
    f = np.sin(3.0 * X[:, 0]) + X[:, 0] ** 2 + 0.5 * X[:, 2] + 0.3 * X[:, 3]
    ds = dataset(X[:240], f[:240], task, rng)
    valid = dataset(X[240:], f[240:], task, rng)
    fc = pg.FeatureConstraint(smoothness=S, max_degree=D, monotone=m, curvature=c)
    mask = np.ones((ds.n_outputs, 4), dtype=bool)
    mask[-1, 3] = False
    free = pg.FeatureConstraint()
    spec = pg.ConstraintSpec(features=[fc, fc, free, free], allow_mask=mask)
    layout = pg.build_bin_layout(ds, pg.SplitScheme(48, 8))
    cfg = pg.TrainConfig(learning_rate=0.3, max_iterations=iterations,
                         early_stopping_patience=10, min_data_in_leaf=5)
    res = pg.train(ds, layout=layout, constraints=spec, config=cfg, valid=valid)
    digest = hashlib.sha256()
    path = hashlib.sha256()
    digest.update(round_trip(res.store, model_path))
    for rec in res.log:
        digest.update(rec.to_json().encode())
        decision = (rec.output, rec.feature, rec.degree, rec.kind, rec.threshold)
        path.update(repr(decision).encode())
    digest.update(pg.model.dumps_model(res.replay_to(res.n_iterations // 2)).encode())
    X_probe = probe(layout, rng)
    pred = pg.predict(res.store, X_probe).tobytes()
    replaced = res.store.copy()  # predicts from a fresh table of its new arrays
    replaced.params = [[pg.ShapeParams(sp.step_values.copy(), sp.poly_coeffs.copy())
                        for sp in row] for row in replaced.params]
    for store in (res.store.copy(), pg.load_model(model_path), replaced):
        if pg.predict(store, X_probe).tobytes() != pred:
            raise AssertionError("a copied, loaded or replaced store changed the predictions")
    pred = hashlib.sha256(pred)
    pg.attach_se_accumulators(res.store, ds.X)
    se = hashlib.sha256(round_trip(res.store, model_path))
    return digest.hexdigest(), se.hexdigest(), path.hexdigest(), pred.hexdigest(), res.n_iterations


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--iterations", type=int, default=40)
    ap.add_argument("--lanes", type=int, default=None,
                    help="run every fit and predict on this many lanes, gate open")
    args = ap.parse_args(argv)
    if args.lanes is not None:
        if args.lanes < 1:
            ap.error("--lanes must be at least 1")
        pg.lanes._cpus = lambda: args.lanes
        pg.lanes.PAR_MIN_VALUES = 0
    with warnings.catch_warnings(), tempfile.TemporaryDirectory() as tmp:
        # constrained columns allowed in several outputs warn by design
        warnings.simplefilter("ignore")
        model_path = os.path.join(tmp, "model.json")
        for S, D, m, c, task in cells():
            sha, se, path, pred, iters = fit_hash(S, D, m, c, task, args.seed, args.iterations,
                                                  model_path)
            print(f"S={S:2d} D={D} mono={m:2d} curv={c:2d} {task:10s} iters={iters:3d} {sha} "
                  f"se={se} path={path} pred={pred}")


if __name__ == "__main__":
    main()
