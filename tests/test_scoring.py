"""The stacked candidate scorer against per-scan scoring.

The reference scores each (feature, degree) scan with its own leaf-value and
gain calls, as separate arrays, and ranks every finite positive row of every
scan by (-gain, feature, degree, threshold, kind). The scorer under test lays
all scans of a fit end to end, one row per output, and takes one first
argmax per output; both must pick the same log record, bit for bit, so
both rank the side sums of the same feature scans. At every iteration the
reference first checks the scan's fine-threshold sums against bincount over
the rows' fine codes, within 1e-12 * sum|w|; tests/test_booster.py checks
the table sums against direct references.
"""

import math

import numpy as np
from hypothesis import given, strategies as st

from polygam.booster import (
    LogRecord,
    TrainConfig,
    _add_update,
    _best_updates,
    _Candidates,
    _clamp,
    _ClampRows,
    _FeatureWork,
    _fold,
    _Scan,
    candidate_gain,
    leaf_value,
)
from polygam.data import SplitScheme, build_bin_layout
from polygam.losses import derivatives
from polygam.model import ConstraintSpec, FeatureConstraint, _offsets, fine_code, zero_init

from conftest import make_dataset, scan_matrix


def reference_best(i, g, h, works, store, cfg, it):
    n = g.size
    l1, l2, min_leaf = cfg.l1, cfg.l2, cfg.min_data_in_leaf
    first = _offsets(store.layout, store.n_outputs)[0]
    found = []

    def collect(k, d, kind, edges, gl, gr, gains, valid):
        for j in np.flatnonzero(valid & np.isfinite(gains) & (gains > 0.0)):
            thr = math.inf if kind == "global" else float(edges[j])
            key = (-float(gains[j]), k, d, thr, 0 if kind == "split" else 1)
            split = kind == "split"
            found.append((key, LogRecord(
                it, i, store.feature_names[k], d, kind, thr if split else None,
                float(gl[j]), float(gr[j]) if split else None, float(gains[j]))))

    for k, wk in enumerate(works):
        if not store.constraints.allow_mask[i, k]:
            continue
        fc, fb = wk.fc, wk.fb
        constrained = bool(fc.monotone or fc.curvature)
        scan = wk.sums[i]
        if 0 in wk.split_degrees and fb.fine_edges.size:
            fcodes = fine_code(fb, wk.x)
            for side, w in enumerate((g, h)):
                c = np.cumsum(np.bincount(fcodes, weights=w, minlength=fb.n_fine_bins))
                tol = 1e-12 * np.abs(w).sum()
                assert (np.abs(scan[2 * side, : wk.n_fine] - c[:-1]) <= tol).all()
                assert (np.abs(scan[2 * side + 1, : wk.n_fine] - (c[-1] - c[:-1])) <= 2 * tol).all()
            # the near ties of pooled monotone rows would turn on last bits, so
            # the ranking reads the scan's sums
            sgl, sgr, shl, shr = scan[:, : wk.n_fine]
            nl = wk.n_left_fine
            valid = (nl >= min_leaf) & (n - nl >= min_leaf)
            gl, gr = leaf_value(sgl, shl, l1, l2), leaf_value(sgr, shr, l1, l2)
            if fc.monotone:
                bad = valid & (fc.monotone * (gr - gl) < 0.0)
                pooled = leaf_value(sgl + sgr, shl + shr, l1, l2)
                gl, gr = np.where(bad, pooled, gl), np.where(bad, pooled, gr)
            gains = candidate_gain(gl, sgl, shl, gr, sgr, shr)
            collect(k, 0, "split", fb.fine_edges, gl, gr, gains, valid)
        high = [d for d in wk.split_degrees if d >= 1]
        sums = scan[:, wk.n_fine :]
        if high and fb.coarse_edges.size:
            nl = wk.n_left_coarse
            valid = (nl >= min_leaf) & (n - nl >= min_leaf)
            for d in high:
                R = np.flatnonzero(wk.row_degree == d)
                sgl, sgr, shl, shr = sums[:, R]
                gl, gr = leaf_value(sgl, shl, l1, l2), leaf_value(sgr, shr, l1, l2)
                J = np.flatnonzero(valid)
                if constrained and J.size:
                    rows = _ClampRows([(i, k, wk, d, R[J], R[J])], cfg.learning_rate,
                                      first).at(store)
                    gl[J], gr[J] = _clamp(rows, cfg, np.stack([gl[J], gr[J]]),
                                          (sgl[J], sgr[J], shl[J], shr[J]))
                gains = candidate_gain(gl, sgl, shl, gr, sgr, shr)
                collect(k, d, "split", fb.coarse_edges, gl, gr, gains, valid)
        for d in wk.global_degrees:
            (r,) = np.flatnonzero(wk.row_degree == d)
            sg, sh = sums[0, r], sums[2, r]
            gamma = np.array([[leaf_value(sg, sh, l1, l2)], [0.0]])
            if constrained and d >= 1:
                one = np.array([r])
                rows = _ClampRows([(i, k, wk, d, one, one)], cfg.learning_rate, first).at(store)
                gamma = _clamp(rows, cfg, gamma, tuple(sums[:, r : r + 1]))
            gain = candidate_gain(gamma[0], sg, sh, 0.0, 0.0, 0.0)
            collect(k, d, "global", None, gamma[0], None, gain, np.array([True]))
    return min(found, key=lambda kc: kc[0])[1] if found else None


@st.composite
def feature_constraints(draw):
    D = draw(st.integers(0, 3))
    S = draw(st.integers(-1, D - 1)) if D else -1
    m = draw(st.sampled_from([-1, 0, 1]))
    c = draw(st.sampled_from([-1, 0, 1])) if S >= 0 and D >= 2 else 0
    return FeatureConstraint(smoothness=S, max_degree=D, monotone=m, curvature=c)


@st.composite
def scoring_cases(draw):
    multiclass = draw(st.booleans())
    n_features = draw(st.integers(1, 3))
    fcs = [draw(feature_constraints()) for _ in range(n_features)]
    # a duplicated column with the same constraint ties with its original
    duplicate = n_features >= 2 and draw(st.booleans())
    if duplicate:
        fcs[1] = fcs[0]
    n_outputs = 3 if multiclass else 1
    pair = st.sampled_from([True, True, True, False])  # mostly allowed
    mask = np.array(draw(st.lists(pair, min_size=n_outputs * n_features,
                                  max_size=n_outputs * n_features))).reshape(n_outputs, -1)
    min_leaf = draw(st.sampled_from([1, 5, 20]))
    seed = draw(st.integers(0, 2**16))
    return multiclass, fcs, duplicate, mask, min_leaf, seed


@given(scoring_cases())
def test_stacked_scorer_matches_per_scan_reference(case):
    multiclass, fcs, duplicate, mask, min_leaf, seed = case
    rng = np.random.default_rng(seed)
    n = 150
    X = rng.uniform(-1.0, 2.0, size=(n, len(fcs)))
    if duplicate:
        X[:, 1] = X[:, 0]
    f = np.sin(3.0 * X[:, 0]) + X[:, -1] ** 3
    if multiclass:
        y = np.digitize(f + rng.normal(scale=0.5, size=n), np.quantile(f, [0.33, 0.66]))
        ds = make_dataset(X, y, task="multiclass")
    else:
        ds = make_dataset(X, f + rng.normal(scale=0.3, size=n))
    layout = build_bin_layout(ds, SplitScheme(24, 5))
    spec = ConstraintSpec(features=fcs, allow_mask=mask)
    store = zero_init(layout, ds.task, ds.n_outputs, ds.feature_names, spec)
    cfg = TrainConfig(learning_rate=0.3, min_data_in_leaf=min_leaf)
    # as in a fit, a feature that every output masks has no workspace
    works = [_FeatureWork(X[:, k], layout[k], fc, np.flatnonzero(mask[:, k]))
             if mask[:, k].any() else None for k, fc in enumerate(fcs)]
    cands = _Candidates(works, cfg, n, _offsets(layout, ds.n_outputs)[0])
    scan = _Scan([wk for wk in works if wk is not None])
    F = np.zeros((n, ds.n_outputs))
    for it in range(6):
        batch = derivatives(ds.task, ds.y, F)
        GH = scan_matrix(batch.g, batch.h)
        scan(GH, h_side=it == 0 or multiclass)
        got = _best_updates(cands, store, cfg, it)
        want = [reference_best(i, batch.g[:, i], batch.h[:, i], works, store, cfg, it)
                for i in range(ds.n_outputs)]
        assert got == [rec for rec in want if rec is not None], it
        for rec in got:
            if it == 0 and duplicate and mask[rec.output, 0]:
                # the zero state gives both copies identical gains: the lower wins
                assert rec.feature != ds.feature_names[1]
            k = _fold(store, rec, cfg.learning_rate)
            u = works[k].fb.x_min if rec.kind == "global" else rec.threshold
            _add_update(rec, u, cfg.learning_rate, works[k].x, F[:, rec.output],
                        np.empty(n), np.empty(n))
